from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from faultcast.errors import (
    DataError,
    DimensionMismatch,
    IoError,
    MalformedKpiId,
    MissingValue,
    SchemaError,
)
from faultcast.kpi import (
    KpiDescriptor,
    KpiId,
    Matrix,
    NormalizationStats,
    TimeSeriesDataset,
    Vector,
    fit_normalization,
    from_json,
    load_dataset,
    load_descriptors,
    parse_kpi_id,
    to_json,
    write_dataset,
)

ID_PART = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd"), whitelist_characters="-_."),
    min_size=1,
    max_size=12,
)


def test_parse_kpi_id_round_trip():
    kpi = parse_kpi_id("pressure@tank-1")
    assert kpi == KpiId(metric="pressure", node="tank-1")
    assert str(kpi) == "pressure@tank-1"


@pytest.mark.parametrize("text", ["no-separator", "a@b@c", "@node", "metric@", "@"])
def test_parse_kpi_id_rejects_malformed(text):
    with pytest.raises(MalformedKpiId):
        parse_kpi_id(text)


def test_kpi_id_constructor_rejects_embedded_at():
    with pytest.raises(MalformedKpiId):
        KpiId(metric="a@b", node="n")
    with pytest.raises(MalformedKpiId):
        KpiId(metric="m", node="")


@given(metric=ID_PART, node=ID_PART)
def test_kpi_id_text_round_trip(metric, node):
    kpi = KpiId(metric=metric, node=node)
    assert parse_kpi_id(str(kpi)) == kpi


def test_kpi_id_ordering_is_lexicographic():
    a = KpiId(metric="load", node="c1")
    b = KpiId(metric="load", node="c2")
    c = KpiId(metric="temp", node="c1")
    assert sorted([c, b, a]) == [a, b, c]


def test_dataset_validates_timestamps_and_values():
    kpis = [parse_kpi_id("x@n")]
    with pytest.raises(SchemaError):
        TimeSeriesDataset(timestamps=[0, 0], kpis=kpis, values=[[1.0], [2.0]])
    with pytest.raises(SchemaError):
        TimeSeriesDataset(timestamps=[0, 1], kpis=kpis, values=[[1.0], [np.nan]])
    with pytest.raises(DimensionMismatch):
        TimeSeriesDataset(timestamps=[0], kpis=kpis, values=[[1.0, 2.0]])
    with pytest.raises(DimensionMismatch):
        TimeSeriesDataset(timestamps=[0, 1], kpis=kpis, values=[[1.0]])
    with pytest.raises(SchemaError):
        TimeSeriesDataset(timestamps=[0], kpis=[], values=np.zeros((1, 0)))


def test_dataset_counts_rows_and_kpis():
    kpis = [parse_kpi_id("a@n"), parse_kpi_id("b@n")]
    ds = TimeSeriesDataset(timestamps=[0, 1, 2], kpis=kpis, values=np.zeros((3, 2)))
    assert ds.n_rows == 3 and ds.n_kpis == 2


def test_load_dataset_happy_path(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("timestamp,a@n,b@n\n0,1.5,2\n5,-3.25,4e2\n", encoding="utf-8")
    ds = load_dataset(path)
    assert [str(k) for k in ds.kpis] == ["a@n", "b@n"]
    np.testing.assert_array_equal(ds.timestamps, [0, 5])
    np.testing.assert_array_equal(ds.values, [[1.5, 2.0], [-3.25, 400.0]])


def test_load_dataset_forward_fill_copies_previous_row(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("timestamp,a@n\n0,1.0\n1,\n2,3.0\n", encoding="utf-8")
    ds = load_dataset(path, missing_policy="forward_fill")
    np.testing.assert_array_equal(ds.values[:, 0], [1.0, 1.0, 3.0])


def test_load_dataset_missing_cell_policies(tmp_path):
    first_row_hole = tmp_path / "first.csv"
    first_row_hole.write_text("timestamp,a@n\n0,\n", encoding="utf-8")
    with pytest.raises(MissingValue):
        load_dataset(first_row_hole, missing_policy="forward_fill")

    hole = tmp_path / "hole.csv"
    hole.write_text("timestamp,a@n\n0,1.0\n1,\n", encoding="utf-8")
    with pytest.raises(MissingValue):
        load_dataset(hole, missing_policy="reject")
    with pytest.raises(ValueError):
        load_dataset(hole, missing_policy="bogus")


@pytest.mark.parametrize(
    "body",
    [
        "time,a@n\n0,1\n",  # wrong first header cell
        "timestamp\n0\n",  # no KPI columns
        "timestamp,a@n,a@n\n0,1,2\n",  # duplicate columns
        "timestamp,a@n\n0,1,2\n",  # ragged row
        "timestamp,a@n\nzero,1\n",  # non-integer timestamp
        "timestamp,a@n\n0,abc\n",  # non-numeric value
        "timestamp,a@n\n0,inf\n",  # non-finite value
        "",  # empty file
    ],
)
def test_load_dataset_schema_errors(tmp_path, body):
    path = tmp_path / "bad.csv"
    path.write_text(body, encoding="utf-8")
    with pytest.raises(SchemaError):
        load_dataset(path)


def test_load_dataset_missing_file_is_io_error(tmp_path):
    with pytest.raises(IoError):
        load_dataset(tmp_path / "absent.csv")


@given(
    values=st.lists(
        st.lists(
            st.floats(min_value=-1e12, max_value=1e12, allow_nan=False, width=64),
            min_size=2,
            max_size=2,
        ),
        min_size=1,
        max_size=8,
    )
)
def test_dataset_csv_round_trip_is_exact(tmp_path_factory, values):
    """17 significant digits reproduce every float64 exactly."""
    path = tmp_path_factory.mktemp("rt") / "data.csv"
    kpis = [parse_kpi_id("a@n"), parse_kpi_id("b@n")]
    ds = TimeSeriesDataset(
        timestamps=np.arange(len(values)), kpis=kpis, values=np.asarray(values)
    )
    write_dataset(ds, path)
    loaded = load_dataset(path)
    np.testing.assert_array_equal(loaded.values, ds.values)
    np.testing.assert_array_equal(loaded.timestamps, ds.timestamps)
    assert loaded.kpis == ds.kpis


def test_write_dataset_unwritable_path_is_io_error(tmp_path):
    ds = TimeSeriesDataset(timestamps=[0], kpis=[parse_kpi_id("a@n")], values=[[1.0]])
    with pytest.raises(IoError):
        write_dataset(ds, tmp_path / "missing-dir" / "data.csv")


def test_normalization_round_trip():
    stats = NormalizationStats(mean=np.array([1.0, -2.0]), std=np.array([2.0, 0.5]))
    raw = np.array([[3.0, -1.0], [1.0, -2.0]])
    normalized = stats.transform(raw)
    np.testing.assert_allclose(normalized, [[1.0, 2.0], [0.0, 0.0]])
    np.testing.assert_allclose(normalized * stats.effective_std + stats.mean, raw)


def test_normalization_constant_column_uses_unit_scale():
    stats = NormalizationStats(mean=np.array([5.0]), std=np.array([0.0]))
    np.testing.assert_array_equal(stats.transform(np.array([[7.0]])), [[2.0]])
    # the measured std is preserved, only the effective scale is substituted
    assert stats.std[0] == 0.0 and stats.effective_std[0] == 1.0


def test_normalization_validation():
    with pytest.raises(DataError):
        NormalizationStats(mean=np.zeros(2), std=np.array([1.0, -0.1]))
    with pytest.raises(DimensionMismatch):
        NormalizationStats(mean=np.zeros(2), std=np.zeros(3))
    stats = NormalizationStats(mean=np.zeros(2), std=np.ones(2))
    with pytest.raises(DimensionMismatch):
        stats.transform(np.zeros((4, 3)))


def test_fit_normalization_uses_population_std():
    kpis = [parse_kpi_id("a@n")]
    ds = TimeSeriesDataset(
        timestamps=[0, 1, 2, 3], kpis=kpis, values=[[1.0], [2.0], [3.0], [4.0]]
    )
    stats = fit_normalization(ds)
    assert stats.mean[0] == pytest.approx(2.5)
    assert stats.std[0] == pytest.approx(np.std([1.0, 2.0, 3.0, 4.0], ddof=0))


def test_normalization_transform_inverse_round_trip():
    kpis = [parse_kpi_id("a@n")]
    ds = TimeSeriesDataset(timestamps=[0, 1], kpis=kpis, values=[[2.0], [4.0]])
    stats = fit_normalization(ds)
    normalized = stats.transform(ds.values)
    np.testing.assert_allclose(normalized, [[-1.0], [1.0]])
    np.testing.assert_allclose(normalized * stats.effective_std + stats.mean, ds.values)


def test_load_descriptors(tmp_path):
    path = tmp_path / "desc.csv"
    path.write_text(
        "kpi,description,unit\n"
        "pressure@tank-1,tank pressure of the service tank,bar\n"
        "load@engine-1,engine load,\n",
        encoding="utf-8",
    )
    table = load_descriptors(path)
    tank = table[parse_kpi_id("pressure@tank-1")]
    assert tank == KpiDescriptor(
        kpi=parse_kpi_id("pressure@tank-1"),
        description="tank pressure of the service tank",
        unit="bar",
    )
    assert table[parse_kpi_id("load@engine-1")].unit is None


def test_load_descriptors_without_unit_column(tmp_path):
    path = tmp_path / "desc.csv"
    path.write_text("kpi,description\na@n,alpha reading\n", encoding="utf-8")
    table = load_descriptors(path)
    assert table[parse_kpi_id("a@n")].description == "alpha reading"


def test_load_descriptors_errors(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("name,description\na@n,x\n", encoding="utf-8")
    with pytest.raises(SchemaError):
        load_descriptors(bad)
    bad.write_text("kpi,description\na@n,x\nb@n\n", encoding="utf-8")
    with pytest.raises(SchemaError, match="row 3 has 1 cell"):
        load_descriptors(bad)
    with pytest.raises(IoError):
        load_descriptors(tmp_path / "absent.csv")


@pytest.mark.parametrize(
    "loader, text, where",
    [
        (load_dataset, "timestamp,a@n,bad\n0,1,2\n", "row 1: expected exactly one '@'"),
        (load_dataset, "timestamp, @n\n0,1\n", "row 1: empty metric"),
        (load_descriptors, "kpi,description\na@n,x\n\nb@n@m,y\n", "row 4: expected exactly one"),
        (load_descriptors, "kpi,description,unit\na@,x,bar\n", "row 2: empty node"),
    ],
)
def test_a_malformed_kpi_id_names_its_file_and_row(loader, text, where, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(MalformedKpiId) as caught:
        loader(path)
    assert str(caught.value).startswith(f"{path}: {where}")


@dataclass(frozen=True)
class _Sample:
    kpi: KpiId = field(metadata={"json": "id"})
    weights: dict[KpiId, float]
    counts: tuple[int, ...]
    note: str | None


SAMPLE = _Sample(
    kpi=KpiId("a", "n"), weights={KpiId("b", "n"): 0.5}, counts=(1, 2), note=None
)
SAMPLE_JSON = {"id": "a@n", "weights": {"b@n": 0.5}, "counts": [1, 2], "note": None}


def test_codec_round_trips_a_dataclass():
    assert to_json(SAMPLE) == SAMPLE_JSON
    assert from_json(SAMPLE_JSON, _Sample, "sample") == SAMPLE
    with_note = {**SAMPLE_JSON, "note": "checked"}
    assert from_json(with_note, _Sample, "sample").note == "checked"


def test_codec_reads_an_integer_as_a_float():
    loaded = from_json({**SAMPLE_JSON, "weights": {"b@n": 1}}, _Sample, "sample")
    assert type(loaded.weights[KpiId("b", "n")]) is float


@pytest.mark.parametrize(
    "edit, fragment",
    [
        ({"note": "DROP"}, "sample is missing key 'note'"),
        ({"extra": 1}, "unknown sample field: extra"),
        ({"counts": [1.0]}, r"sample field counts\[0\] must be an integer"),
        ({"counts": [True]}, "must be an integer"),
        ({"counts": "1,2"}, "sample field counts must be an array"),
        ({"weights": {"b@n": True}}, "sample field weights.b@n must be a number"),
        ({"weights": {"b@n": "0.5"}}, "must be a number"),
        ({"weights": [0.5]}, "sample field weights must be an object"),
        ({"id": 5}, "sample KPI id is not a string: id is 5"),
        ({"note": 5}, "sample field note must be a string"),
    ],
)
def test_codec_refuses_what_its_type_hints_do_not_allow(edit, fragment):
    payload = {**SAMPLE_JSON, **edit}
    payload = {k: v for k, v in payload.items() if v != "DROP"}
    with pytest.raises(SchemaError, match=fragment):
        from_json(payload, _Sample, "sample")


def test_codec_reports_a_malformed_kpi_id():
    with pytest.raises(MalformedKpiId):
        from_json({**SAMPLE_JSON, "weights": {"b": 0.5}}, _Sample, "sample")


def test_codec_writes_arrays_and_lists_and_reads_them_back():
    weights = [np.array([[1.0, -0.0], [2.5, 3.0]]), np.array([[0.5]])]
    assert to_json(weights) == [[[1.0, -0.0], [2.5, 3.0]], [[0.5]]]
    loaded = from_json(to_json(weights), list[Matrix], "sample")
    assert type(loaded) is list
    for read, written in zip(loaded, weights):
        assert read.dtype == np.float64
        assert read.tobytes() == written.tobytes()
    assert from_json([1, 2], Vector, "sample").tolist() == [1.0, 2.0]


@pytest.mark.parametrize(
    "hint, payload",
    [
        pytest.param(Vector, 0.5, id="Vector 0.5"),
        pytest.param(Vector, [[0.5]], id="Vector [[0.5]]"),
        pytest.param(Vector, [0.5, True], id="Vector [0.5, True]"),
        pytest.param(Vector, ["0.5"], id='Vector ["0.5"]'),
        pytest.param(Vector, [0.5, None], id="Vector [0.5, None]"),
        pytest.param(Vector, [float("inf")], id='Vector [float("inf")]'),
        pytest.param(Vector, [float("nan")], id='Vector [float("nan")]'),
        pytest.param(Vector, [10**400], id="Vector [10**400]"),
        pytest.param(Matrix, [0.5], id="Matrix [0.5]"),
        pytest.param(Matrix, [], id="Matrix []"),
        pytest.param(Matrix, [[0.5], [0.5, 0.5]], id="Matrix [[0.5], [0.5, 0.5]]"),
        pytest.param(Matrix, [[0.5], 0.5], id="Matrix [[0.5], 0.5]"),
        pytest.param(Matrix, [[[0.5]]], id="Matrix [[[0.5]]]"),
    ],
)
def test_codec_reads_an_array_only_of_finite_numbers_in_its_dimensions(hint, payload):
    with pytest.raises(SchemaError, match=r"sample field x must be a \d-D array of finite numbers"):
        from_json(payload, hint, "sample", "x")
