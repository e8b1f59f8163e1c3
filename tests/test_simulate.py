from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from faultcast.classifier import SIGMA_GRID, StateVerdict
from faultcast.errors import IoError, NoAnomalousReport, OnsetOutOfRange, SchemaError
from faultcast.kpi import KpiDescriptor, TimeSeriesDataset, parse_kpi_id
from faultcast.ranker import AnomalyReport, ComponentAttribution, RankedCause
from faultcast.simulate import (
    CausalLink,
    EvalRow,
    EvaluationTable,
    FaultSpec,
    Scenario,
    SimulationSpec,
    evaluate_scenarios,
    fault_to_json,
    generate_normal,
    inject_fault,
    load_fault,
    load_spec,
    localization_score,
    make_chain_spec,
    spec_to_json,
)
from faultcast.simulate import _propagate
from helpers import load_text, make_classifier, reference_propagate, unit_baseline, zero_model

A = parse_kpi_id("load@pump-1")
B = parse_kpi_id("flow@pump-2")


# The list whose first entry holds each edited spec key; other keys are top level.
SPEC_SECTIONS = {
    "coefficient": "causal_edges",
    "lag": "causal_edges",
    "description": "kpis",
    "unit": "kpis",
}


def _descriptor(kpi):
    return KpiDescriptor(kpi=kpi, description=f"{kpi.metric} on {kpi.node}")


def _pair_spec(noise_std=0.0, length=8, seed=7, coefficient=1.2):
    return SimulationSpec(
        kpis=(_descriptor(A), _descriptor(B)),
        causal_edges=(CausalLink(source=A, target=B, coefficient=coefficient, lag=1),),
        noise_std=noise_std,
        length=length,
        seed=seed,
    )


class TestSpecValidation:
    def test_rejects_duplicate_kpis(self):
        with pytest.raises(ValueError, match="duplicate"):
            SimulationSpec(
                kpis=(_descriptor(A), _descriptor(A)),
                causal_edges=(),
                noise_std=1.0,
                length=10,
                seed=0,
            )

    def test_rejects_unknown_edge_endpoints(self):
        ghost = parse_kpi_id("ghost@nowhere")
        with pytest.raises(ValueError, match="unknown"):
            SimulationSpec(
                kpis=(_descriptor(A),),
                causal_edges=(CausalLink(source=A, target=ghost, coefficient=1.0, lag=1),),
                noise_std=1.0,
                length=10,
                seed=0,
            )

    def test_rejects_bad_scalars(self):
        with pytest.raises(ValueError):
            SimulationSpec(kpis=(), causal_edges=(), noise_std=1.0, length=10, seed=0)
        with pytest.raises(ValueError):
            _pair_spec(noise_std=-1.0)
        with pytest.raises(ValueError):
            _pair_spec(length=0)
        with pytest.raises(ValueError):
            CausalLink(source=A, target=B, coefficient=1.0, lag=0)

    def test_fault_spec_validation(self):
        with pytest.raises(ValueError, match="kind"):
            FaultSpec(onset=5, kind="melt", target=A, magnitude=1.0)
        with pytest.raises(OnsetOutOfRange):
            FaultSpec(onset=-1, kind="offset", target=A, magnitude=1.0)
        fault = FaultSpec(onset=0, kind="offset", target=A, magnitude=1.0)
        assert fault.ground_truth_component == "pump-1"


class TestMakeChainSpec:
    def test_default_topology(self):
        spec = make_chain_spec()
        assert len(spec.kpis) == 12
        assert spec.length == 600 and spec.seed == 0 and spec.noise_std == 1.0
        ids = spec.kpi_ids
        assert str(ids[0]) == "load@component-1"
        assert str(ids[1]) == "temperature@component-1"
        assert str(ids[2]) == "vibration@component-1"
        assert str(ids[3]) == "load@component-2"

        local_edges = [e for e in spec.causal_edges if e.source.node == e.target.node]
        chain_edges = [e for e in spec.causal_edges if e.source.node != e.target.node]
        assert len(local_edges) == 8 and len(chain_edges) == 3
        assert all(e.coefficient == 0.7 for e in local_edges)
        assert all(e.source.metric == "load" for e in local_edges)
        assert [(str(e.source), str(e.target), e.lag) for e in chain_edges] == [
            ("load@component-1", "load@component-2", 1),
            ("load@component-2", "load@component-3", 1),
            ("load@component-3", "load@component-4", 1),
        ]
        assert all(e.coefficient == 0.8 for e in chain_edges)

        table = spec.descriptor_table()
        assert table[ids[0]].description == "load on component-1"

    def test_local_lags_count_up(self):
        spec = make_chain_spec(components=1, kpis_per_component=4)
        lags = sorted(e.lag for e in spec.causal_edges)
        assert lags == [1, 2, 3]

    def test_kpis_per_component_bounds(self):
        with pytest.raises(ValueError):
            make_chain_spec(kpis_per_component=0)
        with pytest.raises(ValueError):
            make_chain_spec(kpis_per_component=7)


class TestGenerateNormal:
    def test_matches_reference_recursion(self):
        spec = _pair_spec(noise_std=0.7, length=8, seed=7, coefficient=0.9)
        dataset = generate_normal(spec)
        rng = np.random.default_rng(7)
        noise = rng.normal(0.0, 0.7, size=(8, 2))
        expected = np.zeros((8, 2))
        for t in range(8):
            row = noise[t].copy()
            if t > 0:
                row += 0.5 * expected[t - 1]
                row[1] += 0.9 * expected[t - 1, 0]
            expected[t] = row
        np.testing.assert_array_equal(dataset.values, expected)
        np.testing.assert_array_equal(dataset.timestamps, np.arange(8))
        assert dataset.kpis == [A, B]

    def test_seed_override_and_determinism(self):
        spec = _pair_spec(noise_std=1.0)
        np.testing.assert_array_equal(
            generate_normal(spec).values, generate_normal(spec, seed=7).values
        )
        assert not np.array_equal(
            generate_normal(spec, seed=1).values, generate_normal(spec, seed=2).values
        )

    def test_zero_noise_is_identically_zero(self):
        assert not generate_normal(_pair_spec(noise_std=0.0)).values.any()


def _same_bits(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()  # tells -0.0 from 0.0, unlike ==


_FINITE = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@st.composite
def _recursions(draw):
    """A spec with cycles, shared targets and long lags, its innovations, a start and maybe a pin."""
    n = draw(st.integers(1, 5))
    length = draw(st.integers(1, 12))
    kpis = tuple(_descriptor(parse_kpi_id(f"m{i}@n")) for i in range(n))
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.floats(-3, 3), st.integers(1, length + 2)),
            max_size=8,
        )
    )
    links = tuple(CausalLink(kpis[s].kpi, kpis[t].kpi, c, lag) for s, t, c, lag in edges)
    spec = SimulationSpec(kpis=kpis, causal_edges=links, noise_std=1.0, length=length, seed=0)
    innovations = np.array(draw(st.lists(st.lists(_FINITE, min_size=n, max_size=n), min_size=length, max_size=length)))
    start = draw(st.integers(0, length - 1))
    pinned = None
    if draw(st.booleans()):
        targets = [t for _, t, _, _ in edges] or list(range(n))
        values = np.array(draw(st.lists(_FINITE, min_size=length, max_size=length)))
        pinned = (draw(st.sampled_from(targets)), values)
    return spec, innovations, start, pinned


class TestPropagate:
    @given(_recursions())
    @example((_pair_spec(length=3), np.full((3, 2), -0.0), 0, None))  # row 0 has no self-term to add +0.0
    def test_keeps_the_bits_of_the_numpy_recursion(self, case):
        spec, innovations, start, pinned = case
        _same_bits(_propagate(spec, innovations, start, pinned), reference_propagate(spec, innovations, start, pinned))

    @pytest.mark.parametrize("components,per_component", [(1, 1), (2, 6), (4, 3), (10, 5)])
    def test_keeps_the_bits_on_chain_specs(self, components, per_component):
        spec = make_chain_spec(components, per_component, length=60, seed=3)
        _same_bits(generate_normal(spec).values, reference_propagate(spec, _noise(spec), 0))
        clean = generate_normal(spec).values
        for start in (0, 1, spec.length // 2, spec.length - 1):
            pinned = (len(spec.kpis) - 1, clean[:, 0] + 1.0)
            zeros = np.zeros_like(clean)
            _same_bits(_propagate(spec, zeros, start, pinned), reference_propagate(spec, zeros, start, pinned))


def _noise(spec: SimulationSpec) -> np.ndarray:
    return np.random.default_rng(spec.seed).normal(0.0, spec.noise_std, size=(spec.length, len(spec.kpis)))


class TestInjectFault:
    def test_offset_cascades_through_the_chain(self):
        spec = _pair_spec(noise_std=0.0)
        clean = generate_normal(spec)
        fault = FaultSpec(onset=3, kind="offset", target=A, magnitude=2.0)
        faulty, truth = inject_fault(clean, spec, fault)
        assert truth == fault
        delta = faulty.values - clean.values
        np.testing.assert_array_equal(delta[:3], 0.0)
        np.testing.assert_allclose(delta[3:, 0], 2.0)
        np.testing.assert_allclose(delta[3:7, 1], [0.0, 2.4, 3.6, 4.2])
        # the downstream response approaches magnitude * 1.2 / (1 - 0.5)
        assert delta[-1, 1] < 4.8

    def test_pre_onset_and_upstream_columns_are_untouched(self):
        spec = _pair_spec(noise_std=1.0)
        clean = generate_normal(spec)
        fault = FaultSpec(onset=4, kind="offset", target=B, magnitude=5.0)
        faulty, _ = inject_fault(clean, spec, fault)
        np.testing.assert_array_equal(faulty.values[:4], clean.values[:4])
        # A does not listen to B, so its whole column is bitwise identical
        np.testing.assert_array_equal(faulty.values[:, 0], clean.values[:, 0])
        assert (faulty.values[4:, 1] != clean.values[4:, 1]).all()

    def test_spike_hits_only_the_onset_row_on_the_target(self):
        spec = _pair_spec(noise_std=0.0)
        clean = generate_normal(spec)
        fault = FaultSpec(onset=3, kind="spike", target=A, magnitude=2.0)
        faulty, _ = inject_fault(clean, spec, fault)
        delta = faulty.values - clean.values
        np.testing.assert_allclose(delta[:, 0], [0, 0, 0, 2.0, 0, 0, 0, 0])
        # downstream echo arrives one lag later and decays
        np.testing.assert_allclose(delta[:, 1], [0, 0, 0, 0, 2.4, 1.2, 0.6, 0.3])

    def test_drift_ramps_linearly(self):
        spec = _pair_spec(noise_std=0.0, length=10)
        clean = generate_normal(spec)
        fault = FaultSpec(onset=5, kind="drift", target=A, magnitude=3.0)
        faulty, _ = inject_fault(clean, spec, fault)
        delta = faulty.values - clean.values
        np.testing.assert_allclose(delta[5:, 0], 3.0 * np.arange(5) / 5)

    def test_stuck_holds_the_onset_value(self):
        spec = _pair_spec(noise_std=1.0)
        clean = generate_normal(spec)
        fault = FaultSpec(onset=3, kind="stuck", target=A, magnitude=0.0)
        faulty, _ = inject_fault(clean, spec, fault)
        np.testing.assert_allclose(
            faulty.values[3:, 0], clean.values[3, 0], rtol=0, atol=1e-12
        )
        np.testing.assert_array_equal(faulty.values[:3], clean.values[:3])

    def test_onset_zero_faults_the_whole_run(self):
        spec = _pair_spec(noise_std=0.0)
        clean = generate_normal(spec)
        fault = FaultSpec(onset=0, kind="offset", target=A, magnitude=1.0)
        faulty, _ = inject_fault(clean, spec, fault)
        np.testing.assert_allclose(faulty.values[:, 0] - clean.values[:, 0], 1.0)

    def test_validation(self):
        spec = _pair_spec(noise_std=0.0)
        clean = generate_normal(spec)
        with pytest.raises(OnsetOutOfRange):
            inject_fault(clean, spec, FaultSpec(onset=8, kind="offset", target=A, magnitude=1.0))
        other = TimeSeriesDataset(
            timestamps=clean.timestamps, kpis=[B, A], values=clean.values
        )
        with pytest.raises(SchemaError):
            inject_fault(other, spec, FaultSpec(onset=1, kind="offset", target=A, magnitude=1.0))


def _report(timestamp, anomalous, ranked=(), components=()):
    return AnomalyReport(
        verdict=StateVerdict(
            timestamp=timestamp, state_error=1.0, threshold=0.5, anomalous=anomalous
        ),
        root_cause_kpis=tuple(ranked),
        top_components=tuple(components),
    )


class TestLocalizationScore:
    TRUTH = FaultSpec(onset=10, kind="offset", target=A, magnitude=1.0)

    def test_scores_the_first_post_onset_anomalous_report(self):
        decoy = _report(
            5,
            True,
            ranked=[RankedCause(kpi=B, centrality=1.0, score=1.0)],
            components=[ComponentAttribution(node="pump-2", central_kpi_count=1)],
        )
        quiet = _report(10, False)
        hit = _report(
            12,
            True,
            ranked=[
                RankedCause(kpi=B, centrality=0.6, score=2.0),
                RankedCause(kpi=A, centrality=0.4, score=1.0),
            ],
            components=[ComponentAttribution(node="pump-1", central_kpi_count=1)],
        )
        later = _report(13, True)
        score = localization_score([decoy, quiet, hit, later], self.TRUTH)
        assert score.top3_hit
        assert score.root_kpi_rank == 2

    def test_rank_is_none_when_the_target_is_not_ranked(self):
        report = _report(
            10,
            True,
            ranked=[RankedCause(kpi=B, centrality=1.0, score=1.0)],
            components=[ComponentAttribution(node="pump-2", central_kpi_count=1)],
        )
        score = localization_score([report], self.TRUTH)
        assert not score.top3_hit
        assert score.root_kpi_rank is None

    def test_no_anomalous_report_raises(self):
        with pytest.raises(NoAnomalousReport):
            localization_score([_report(5, True), _report(11, False)], self.TRUTH)


@pytest.fixture
def sweep_table():
    kpi = parse_kpi_id("a@n")
    classifier = make_classifier(zero_model(1), unit_baseline(1), [kpi])
    quiet = Scenario(
        name="quiet",
        dataset=TimeSeriesDataset(timestamps=[0, 1], kpis=[kpi], values=[[0.1], [0.2]]),
    )
    faulty = Scenario(
        name="faulty",
        dataset=TimeSeriesDataset(
            timestamps=[0, 1, 2, 3], kpis=[kpi], values=[[0.1], [5.0], [0.2], [6.0]]
        ),
        fault=FaultSpec(onset=2, kind="offset", target=kpi, magnitude=5.0),
    )
    return evaluate_scenarios(classifier, [quiet, faulty], grid=(1.5, 3.0))


class TestEvaluation:
    def test_rows_and_totals(self, sweep_table):
        assert [
            (r.scenario, r.sigma, r.fp_count, r.prediction_count, r.failure_free)
            for r in sweep_table.rows
        ] == [
            ("quiet", 1.5, 0, 0, True),
            ("quiet", 3.0, 0, 0, True),
            ("faulty", 1.5, 1, 1, False),
            ("faulty", 3.0, 1, 1, False),
        ]

    def test_to_csv_exact(self, sweep_table):
        assert sweep_table.to_csv() == (
            "scenario,sigma,fp,predictions\n"
            "quiet,1.5,0,0\n"
            "quiet,3,0,0\n"
            "faulty,1.5,1,1\n"
            "faulty,3,1,1\n"
        )

    def test_elbow_curve_prefers_failure_free_rows(self, sweep_table):
        assert sweep_table.elbow_curve() == [(1.5, 0), (3.0, 0)]

    def test_elbow_curve_falls_back_to_all_rows(self, sweep_table):
        only_faulty = EvaluationTable(
            rows=tuple(r for r in sweep_table.rows if not r.failure_free)
        )
        assert only_faulty.elbow_curve() == [(1.5, 1), (3.0, 1)]

    def test_to_text_alignment(self, sweep_table):
        assert sweep_table.to_text() == (
            "sigma  quiet  faulty  total_fp\n"
            "  1.5    0/0     1/1         1\n"
            "    3    0/0     1/1         1\n"
        )

    def test_default_grid_is_the_sigma_grid(self):
        kpi = parse_kpi_id("a@n")
        classifier = make_classifier(zero_model(1), unit_baseline(1), [kpi])
        quiet = Scenario(
            name="quiet",
            dataset=TimeSeriesDataset(timestamps=[0], kpis=[kpi], values=[[0.0]]),
        )
        table = evaluate_scenarios(classifier, [quiet])
        assert [r.sigma for r in table.rows] == list(SIGMA_GRID)


class TestSerialization:
    def test_spec_round_trip(self, tmp_path):
        spec = make_chain_spec(components=2, kpis_per_component=2)
        assert load_text(load_spec, spec_to_json(spec), tmp_path) == spec

    def test_fault_round_trip(self, tmp_path):
        fault = FaultSpec(onset=120, kind="drift", target=A, magnitude=2.5)
        assert load_text(load_fault, fault_to_json(fault), tmp_path) == fault
        payload = fault_to_json(fault)
        assert '"ground_truth_component": "pump-1"' in payload

    def test_load_from_files(self, tmp_path):
        spec = _pair_spec(noise_std=0.3)
        fault = FaultSpec(onset=2, kind="spike", target=B, magnitude=1.0)
        spec_path = tmp_path / "spec.json"
        fault_path = tmp_path / "fault.json"
        spec_path.write_text(spec_to_json(spec), encoding="utf-8")
        fault_path.write_text(fault_to_json(fault), encoding="utf-8")
        assert load_spec(spec_path) == spec
        assert load_fault(fault_path) == fault

    def test_io_and_schema_errors(self, tmp_path):
        with pytest.raises(IoError):
            load_spec(tmp_path / "absent.json")
        with pytest.raises(IoError):
            load_fault(tmp_path / "absent.json")
        with pytest.raises(SchemaError):
            load_text(load_spec, "{broken", tmp_path)
        with pytest.raises(SchemaError):
            load_text(load_spec, "{}", tmp_path)
        with pytest.raises(SchemaError):
            load_text(load_fault, '{"onset": 1}', tmp_path)

    @pytest.mark.parametrize(
        "edit",
        [
            {"coefficient": "abc"},
            {"coefficient": 1e400},
            {"lag": 0},
            {"noise_std": 1e400},
            {"lag": 1.9},
            {"lag": True},
            {"seed": True},
            {"length": 30.0},
            {"description": 5},
            {"unit": 3},
            {"comment": "unknown key"},
        ],
    )
    def test_spec_with_a_bad_value_is_a_schema_error(self, edit, tmp_path):
        payload = json.loads(spec_to_json(_pair_spec(noise_std=0.3)))
        section = SPEC_SECTIONS.get(next(iter(edit)))
        (payload if section is None else payload[section][0]).update(edit)
        with pytest.raises(SchemaError):
            load_text(load_spec, json.dumps(payload), tmp_path)

    def test_spec_kpi_must_carry_its_unit(self, tmp_path):
        payload = json.loads(spec_to_json(_pair_spec(noise_std=0.3)))
        assert payload["kpis"][0]["unit"] is None
        del payload["kpis"][0]["unit"]
        with pytest.raises(SchemaError, match="missing key 'kpis\\[0\\].unit'"):
            load_text(load_spec, json.dumps(payload), tmp_path)

    @pytest.mark.parametrize(
        "edit",
        [
            {"kind": "bogus"},
            {"magnitude": 1e400},
            {"onset": 1e400},
            {"magnitude": "3.5"},
            {"magnitude": True},
            {"onset": 10.9},
            {"comment": "unknown key"},
        ],
    )
    def test_fault_with_a_bad_value_is_a_schema_error(self, edit, tmp_path):
        fault = FaultSpec(onset=2, kind="spike", target=B, magnitude=1.0)
        payload = {**json.loads(fault_to_json(fault)), **edit}
        with pytest.raises(SchemaError):
            load_text(load_fault, json.dumps(payload), tmp_path)

    def test_fault_reads_without_its_derived_component(self, tmp_path):
        fault = FaultSpec(onset=2, kind="spike", target=B, magnitude=1.0)
        payload = json.loads(fault_to_json(fault))
        del payload["ground_truth_component"]
        assert load_text(load_fault, json.dumps(payload), tmp_path) == fault
