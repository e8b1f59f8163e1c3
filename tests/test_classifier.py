from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from faultcast.classifier import (
    DEFAULT_SIGMA,
    SIGMA_GRID,
    ClassifierConfig,
    ErrorBaseline,
    baseline_from_errors,
    check_schema,
    chord_drops,
    fit_classifier,
    load_classifier,
    save_classifier,
    score,
    select_elbow,
    sigma_sweep,
    threshold,
)
from faultcast.autoencoder import TrainingConfig, init_autoencoder
from faultcast.errors import (
    DataError,
    DimensionMismatch,
    IoError,
    SchemaError,
    SchemaMismatch,
    TooFewPoints,
)
from faultcast.kpi import TimeSeriesDataset, parse_kpi_id
from faultcast.ranker import analyze
from helpers import make_classifier, unit_baseline, zero_model

ELBOW_CURVE = [(1.5, 1000), (3.0, 300), (4.5, 120), (6.0, 90), (7.5, 80), (9.0, 75), (10.5, 72)]


def test_default_sigma_and_grid():
    assert DEFAULT_SIGMA == 4.5
    assert SIGMA_GRID == (1.5, 3.0, 4.5, 6.0, 7.5, 9.0, 10.5)


def test_threshold_hand_values():
    baseline = ErrorBaseline(state_mu=0.10, state_std=0.04, kpi_mu=np.zeros(1), kpi_std=np.ones(1))
    assert threshold(baseline, 4.5) == pytest.approx(0.28, abs=1e-12)
    flat = ErrorBaseline(state_mu=0.10, state_std=0.0, kpi_mu=np.zeros(1), kpi_std=np.ones(1))
    assert threshold(flat, 4.5) == 0.10


def test_threshold_rejects_non_positive_sigma():
    baseline = unit_baseline(1)
    with pytest.raises(ValueError):
        threshold(baseline, 0.0)
    with pytest.raises(ValueError):
        threshold(baseline, -1.5)


@given(
    mu=st.floats(min_value=0.0, max_value=1.0),
    std=st.floats(min_value=0.0, max_value=1.0),
    sigma=st.floats(min_value=0.5, max_value=16.0),
)
def test_threshold_is_affine_in_sigma(mu, std, sigma):
    baseline = ErrorBaseline(state_mu=mu, state_std=std, kpi_mu=np.zeros(1), kpi_std=np.ones(1))
    assert abs(threshold(baseline, sigma) - (mu + sigma * std)) <= 1e-12
    if std > 0:
        step = threshold(baseline, sigma + 1.0) - threshold(baseline, sigma)
        assert abs(step - std) <= 1e-12


def _zero_classifier(n: int, mean=None, std=None):
    """Zero model: a state's residuals are its normalized entries squared."""
    kpis = [parse_kpi_id(f"k{i}@n") for i in range(n)]
    return make_classifier(zero_model(n), unit_baseline(n), kpis, mean=mean, std=std)


def test_state_error_matches_mean_squared_residual():
    classifier = _zero_classifier(2)
    assert score(classifier, np.array([0.0, 0.0]))[0] == 0.0
    assert score(classifier, np.array([1.0, 1.0]))[0] == pytest.approx(1.0)
    assert score(classifier, np.array([2.0, 0.0]))[0] == pytest.approx(2.0)


def test_score_against_hand_values():
    """One state (1-D) or a batch (2-D), normalized before reconstruction."""
    classifier = _zero_classifier(2)
    errors, residuals = score(classifier, np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]]))
    np.testing.assert_allclose(errors, [0.0, 1.0, 2.0])
    np.testing.assert_allclose(residuals, [[0.0, 0.0], [1.0, 1.0], [4.0, 0.0]])
    error, residual = score(classifier, np.array([1.0, 1.0]))
    assert error.shape == () and error == pytest.approx(1.0)
    np.testing.assert_allclose(residual, [1.0, 1.0])

    scaled = _zero_classifier(2, mean=[10.0, 0.0], std=[2.0, 0.0])  # zero std: scale 1
    errors, residuals = score(scaled, np.array([[14.0, 3.0]]))
    np.testing.assert_allclose(residuals, [[4.0, 9.0]])
    np.testing.assert_allclose(errors, [6.5])


def test_score_batch_matches_per_row_calls(small_classifier, faulty_dataset_small):
    """One batched product rounds differently from one-row products, by ulps only."""
    errors, residuals = score(small_classifier, faulty_dataset_small.values)
    for row, values in enumerate(faulty_dataset_small.values):
        error, residual = score(small_classifier, values)
        assert abs(float(error) - errors[row]) <= 1e-15 * errors[row]
        assert np.max(np.abs(residual - residuals[row])) <= 1e-15 * residuals[row].sum()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_score_rejects_non_finite_values(bad):
    classifier = _zero_classifier(2)
    with pytest.raises(DataError, match="finite"):
        score(classifier, np.array([1.0, bad]))
    with pytest.raises(DataError, match="finite"):
        score(classifier, np.array([[1.0, 1.0], [bad, 0.0]]))


def test_an_error_that_overflows_scores_inf_and_is_anomalous():
    classifier = _zero_classifier(2)
    with np.errstate(over="ignore"):
        errors, _ = score(classifier, np.array([[1e200, 0.0], [0.0, 0.0]]))
    assert errors.tolist() == [math.inf, 0.0]
    assert errors[0] > threshold(classifier.baseline, 1e300)


def test_score_errors_are_the_mean_of_the_residuals_bit_for_bit(small_classifier, faulty_dataset_small):
    for raw in (faulty_dataset_small.values, faulty_dataset_small.values[7]):
        errors, residuals = score(small_classifier, raw)
        assert np.asarray(errors).tobytes() == residuals.mean(axis=-1).tobytes()


_NEAR_MAX = st.one_of(st.floats(1e308, 1.7976931348623157e308), st.floats(-1.7976931348623157e308, -1e308))


@given(seed=st.integers(0, 19), rows=st.lists(st.lists(_NEAR_MAX, min_size=4, max_size=4), min_size=1, max_size=6))
@example(seed=0, rows=[[1.7e308] * 4])  # its one-row forward pass meets inf - inf: NaN residuals
def test_a_state_whose_forward_pass_overflows_is_never_nan_and_never_normal(seed, rows):
    """A NaN error would read as normal: ``NaN > limit`` is false."""
    classifier = make_classifier(
        init_autoencoder(4, seed), unit_baseline(4), [parse_kpi_id(f"k{i}@n") for i in range(4)]
    )
    states = np.array(rows)
    with np.errstate(over="ignore", invalid="ignore"):
        errors, residuals = score(classifier, states)
        assert not np.isnan(errors).any() and not np.isnan(residuals).any()
        for state in states:
            error, residual = score(classifier, state)
            assert not math.isnan(error) and not np.isnan(residual).any()
            assert analyze(classifier, state, np.zeros((40, 4)), 0).verdict.anomalous


def test_score_rejects_wrong_width():
    with pytest.raises(DimensionMismatch):
        score(_zero_classifier(2), np.zeros(3))


def test_classifier_config_validation():
    with pytest.raises(ValueError):
        ClassifierConfig(sigma=0.0)
    with pytest.raises(ValueError):
        ClassifierConfig(sigma=4.5, sigma_kpi=-1.0)
    assert ClassifierConfig(sigma=3.0).effective_sigma_kpi == 3.0
    assert ClassifierConfig(sigma=3.0, sigma_kpi=9.0).effective_sigma_kpi == 9.0


def test_baseline_from_errors_population_statistics():
    state_errors = np.array([1.0, 2.0, 3.0, 4.0])
    residuals = np.array([[1.0, 0.0], [3.0, 0.0], [1.0, 2.0], [3.0, 2.0]])
    baseline = baseline_from_errors(state_errors, residuals)
    assert baseline.state_mu == pytest.approx(2.5)
    assert baseline.state_std == pytest.approx(np.std(state_errors, ddof=0))
    np.testing.assert_allclose(baseline.kpi_mu, [2.0, 1.0])
    np.testing.assert_allclose(baseline.kpi_std, [1.0, 1.0])


def test_fit_classifier_training_rows_normal_at_top_sigma(train_dataset_small):
    classifier, curve = fit_classifier(train_dataset_small, TrainingConfig(epochs=60, seed=2))
    assert len(curve) == 60
    points = sigma_sweep(classifier, train_dataset_small, grid=(10.5,))
    assert points[0].fp_count == 0
    assert points[0].prediction_count == 0


def _sweep_classifier():
    """Zero model over one KPI: the state error is the raw value squared."""
    return make_classifier(zero_model(1), unit_baseline(1), [parse_kpi_id("a@n")])


def test_sigma_sweep_counts_fp_and_predictions():
    classifier = _sweep_classifier()
    ds = TimeSeriesDataset(
        timestamps=[0, 1, 2, 3],
        kpis=[parse_kpi_id("a@n")],
        values=[[0.1], [5.0], [0.2], [6.0]],
    )
    points = sigma_sweep(classifier, ds, grid=(1.5, 3.0), fault_onset=2)
    assert [(p.sigma, p.fp_count, p.prediction_count) for p in points] == [
        (1.5, 1, 1),
        (3.0, 1, 1),
    ]


def test_sigma_sweep_without_onset_counts_all_as_fp():
    classifier = _sweep_classifier()
    ds = TimeSeriesDataset(
        timestamps=[0, 1, 2, 3],
        kpis=[parse_kpi_id("a@n")],
        values=[[0.1], [5.0], [0.2], [6.0]],
    )
    points = sigma_sweep(classifier, ds, grid=(1.5,))
    assert points[0].fp_count == 2
    assert points[0].prediction_count == 0


def test_sigma_sweep_validates_grid_and_schema():
    classifier = _sweep_classifier()
    ds = TimeSeriesDataset(timestamps=[0], kpis=[parse_kpi_id("a@n")], values=[[0.0]])
    with pytest.raises(ValueError):
        sigma_sweep(classifier, ds, grid=())
    with pytest.raises(ValueError):
        sigma_sweep(classifier, ds, grid=(3.0, 1.5))
    for grid in ((0.0, 1.5), (-1.0,), (1.5, float("inf")), (float("nan"),)):
        with pytest.raises(ValueError, match="positive and finite"):
            sigma_sweep(classifier, ds, grid=grid)
    wrong = TimeSeriesDataset(timestamps=[0], kpis=[parse_kpi_id("b@n")], values=[[0.0]])
    with pytest.raises(SchemaMismatch):
        sigma_sweep(classifier, wrong, grid=(1.5,))


@given(
    values=st.lists(st.floats(min_value=-10, max_value=10), min_size=3, max_size=24),
    onset=st.integers(min_value=0, max_value=23),
)
def test_sigma_sweep_counts_shrink_as_sigma_grows(values, onset):
    """Raising sigma can only remove verdicts, never add them."""
    classifier = _sweep_classifier()
    ds = TimeSeriesDataset(
        timestamps=np.arange(len(values)),
        kpis=[parse_kpi_id("a@n")],
        values=np.asarray(values)[:, None],
    )
    points = sigma_sweep(classifier, ds, fault_onset=min(onset, len(values) - 1))
    for earlier, later in zip(points, points[1:]):
        assert later.fp_count <= earlier.fp_count
        assert later.prediction_count <= earlier.prediction_count


def test_chord_drops_hand_computed():
    drops = chord_drops(ELBOW_CURVE)
    assert [s for s, _ in drops] == [3.0, 4.5, 6.0, 7.5, 9.0]
    by_sigma = dict(drops)
    assert by_sigma[3.0] == pytest.approx(1636 / 3, abs=1e-9)
    assert by_sigma[4.5] == pytest.approx(1712 / 3, abs=1e-9)
    assert by_sigma[6.0] == pytest.approx(446.0, abs=1e-9)


def test_select_elbow_oracles():
    assert select_elbow(ELBOW_CURVE) == 4.5
    assert select_elbow([(1.0, 10.0), (2.0, 1.0), (3.0, 0.0)]) == 2.0


def test_select_elbow_tie_goes_to_smaller_sigma():
    # both interior points sit exactly 2 units below the chord
    assert select_elbow([(1.0, 8.0), (2.0, 4.0), (3.0, 2.0), (4.0, 2.0)]) == 2.0


def test_select_elbow_linear_curve_picks_first_interior_point():
    assert select_elbow([(1.0, 9.0), (2.0, 6.0), (3.0, 3.0), (4.0, 0.0)]) == 2.0


def test_chord_drops_validation():
    with pytest.raises(TooFewPoints):
        chord_drops([(1.0, 5.0), (2.0, 1.0)])
    with pytest.raises(ValueError):
        chord_drops([(1.0, 5.0), (1.0, 4.0), (2.0, 1.0)])


def test_save_load_round_trip(tmp_path, small_classifier):
    path = tmp_path / "model.json"
    save_classifier(small_classifier, path)
    loaded = load_classifier(path)
    assert loaded.kpis == small_classifier.kpis
    assert loaded.model.layer_sizes == small_classifier.model.layer_sizes
    for w1, w2 in zip(loaded.model.weights, small_classifier.model.weights):
        np.testing.assert_array_equal(w1, w2)
    for b1, b2 in zip(loaded.model.biases, small_classifier.model.biases):
        np.testing.assert_array_equal(b1, b2)
    np.testing.assert_array_equal(loaded.normalization.mean, small_classifier.normalization.mean)
    np.testing.assert_array_equal(loaded.normalization.std, small_classifier.normalization.std)
    assert loaded.baseline.state_mu == small_classifier.baseline.state_mu
    assert loaded.baseline.state_std == small_classifier.baseline.state_std
    np.testing.assert_array_equal(loaded.baseline.kpi_mu, small_classifier.baseline.kpi_mu)
    np.testing.assert_array_equal(loaded.baseline.kpi_std, small_classifier.baseline.kpi_std)
    assert loaded.training == small_classifier.training

    # a reload scores exactly like the original
    state = np.zeros(len(loaded.kpis))
    assert score(loaded, state)[0] == score(small_classifier, state)[0]


def test_load_classifier_rejects_bad_files(tmp_path, small_classifier):
    with pytest.raises(IoError):
        load_classifier(tmp_path / "absent.json")
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json", encoding="utf-8")
    with pytest.raises(SchemaError):
        load_classifier(garbled)

    path = tmp_path / "model.json"
    save_classifier(small_classifier, path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["version"] = 99
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(SchemaError):
        load_classifier(path)
    path.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(SchemaError):
        load_classifier(path)


def _load_edited(tmp_path, classifier, key: tuple[str, ...], edit) -> None:
    """Save, call ``edit(parent, name)`` on the nested ``key``, then reload."""
    path = tmp_path / "model.json"
    save_classifier(classifier, path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    parent = payload
    for part in key[:-1]:
        parent = parent[part]
    edit(parent, key[-1])
    path.write_text(json.dumps(payload), encoding="utf-8")
    load_classifier(path)


MODEL_KEYS = [
    ("kpis",),
    ("layer_sizes",),
    ("weights",),
    ("biases",),
    ("normalization",),
    ("normalization", "mean"),
    ("normalization", "std"),
    ("baseline",),
    ("baseline", "state_mu"),
    ("baseline", "state_std"),
    ("baseline", "kpi_mu"),
    ("baseline", "kpi_std"),
    ("training",),
    ("training", "epochs"),
    ("training", "learning_rate"),
    ("training", "batch_size"),
    ("training", "seed"),
]


@pytest.mark.parametrize("key", MODEL_KEYS, ids=".".join)
def test_load_classifier_rejects_missing_key(tmp_path, small_classifier, key):
    with pytest.raises(SchemaError, match="missing key"):
        _load_edited(tmp_path, small_classifier, key, lambda parent, name: parent.pop(name))


@pytest.mark.parametrize(
    "key, value",
    [
        (("kpis",), "a@n"),
        (("kpis",), [1, 2, 3, 4]),
        (("layer_sizes",), 4),
        (("layer_sizes",), [4.0, 2.0, 2.0, 2.0, 4.0]),
        (("weights",), None),
        (("weights",), [[["x"]]]),
        (("biases",), [[True]]),
        (("normalization",), []),
        (("normalization", "mean"), "0"),
        (("normalization", "std"), [[1.0]]),
        (("baseline",), "baseline"),
        (("baseline", "state_mu"), "0.5"),
        (("baseline", "state_std"), None),
        (("baseline", "state_std"), [0.1]),
        (("baseline", "kpi_mu"), {"a": 1}),
        (("baseline", "kpi_std"), [1.0, None, 1.0, 1.0]),
        (("baseline", "kpi_std"), [1.0, 1e999, 1.0, 1.0]),
        (("baseline", "kpi_mu"), 0.0),
        (("baseline", "kpi_mu"), [[0.0, 0.0, 0.0, 0.0]]),
        (("baseline", "kpi_mu"), [0.0, True, 0.0, 0.0]),
        (("baseline", "state_mu"), float("nan")),
        (("version",), 1.0),
        (("comment",), "unknown key"),
        (("training",), 3),
        (("training", "epochs"), "80"),
        (("training", "epochs"), 0),
        (("training", "learning_rate"), True),
        (("training", "learning_rate"), float("inf")),
        (("training", "comment"), "unknown key"),
        (("training", "batch_size"), 2.5),
        (("training", "seed"), None),
    ],
    ids=lambda v: ".".join(v) if isinstance(v, tuple) else repr(v),
)
def test_load_classifier_rejects_wrong_type(tmp_path, small_classifier, key, value):
    def replace(parent, name):
        parent[name] = value

    with pytest.raises(SchemaError):
        _load_edited(tmp_path, small_classifier, key, replace)


@pytest.mark.parametrize(
    "key",
    [
        ("kpis",),
        ("normalization", "mean"),
        ("normalization", "std"),
        ("baseline", "kpi_mu"),
        ("baseline", "kpi_std"),
    ],
    ids=".".join,
)
def test_load_classifier_rejects_short_list(tmp_path, small_classifier, key):
    """One entry short of the KPI count; for ``kpis`` the network is one too wide."""
    with pytest.raises(DimensionMismatch):
        _load_edited(tmp_path, small_classifier, key, lambda parent, name: parent[name].pop())


def test_check_schema_names_first_offending_column():
    classifier = make_classifier(
        zero_model(2), unit_baseline(2), [parse_kpi_id("a@n"), parse_kpi_id("b@n")]
    )
    check_schema(classifier, [parse_kpi_id("a@n"), parse_kpi_id("b@n")])
    with pytest.raises(SchemaMismatch, match="missing column b@n"):
        check_schema(classifier, [parse_kpi_id("a@n")])
    with pytest.raises(SchemaMismatch, match="unexpected column c@n"):
        check_schema(
            classifier, [parse_kpi_id("a@n"), parse_kpi_id("b@n"), parse_kpi_id("c@n")]
        )
    with pytest.raises(SchemaMismatch, match="b@n"):
        check_schema(classifier, [parse_kpi_id("a@n"), parse_kpi_id("x@n")])
