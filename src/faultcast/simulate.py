"""Synthetic KPI scenarios with known causal structure and ground truth.

The generator is a linear-Gaussian structural model: every KPI keeps an
AR(1) self-term with coefficient 0.5 and receives lagged contributions from
its causal parents plus Gaussian noise.  All lags are at least 1, so each
timestep depends only on the past and generation is well defined.

Fault injection perturbs one target KPI from an onset onward and propagates
the perturbation downstream by re-simulating the recursion.  Because the
model is linear, the perturbed run equals the clean run plus the response to
the perturbation alone (superposition), which is how it is computed: rows
before the onset and KPIs the fault cannot reach stay bitwise identical.
"""

from __future__ import annotations

import json
import math
import os
import typing
from dataclasses import dataclass

import numpy as np

from .classifier import TrainedClassifier, sigma_sweep
from .config import SIGMA_GRID
from .errors import NoAnomalousReport, OnsetOutOfRange, SchemaError, load_json
from .kpi import KpiDescriptor, KpiId, TimeSeriesDataset, from_json, to_json

if typing.TYPE_CHECKING:
    from .ranker import AnomalyReport

SELF_COEFFICIENT = 0.5

FAULT_KINDS = ("drift", "spike", "stuck", "offset")


@dataclass(frozen=True)
class CausalLink:
    """Directed influence: target(t) += coefficient * source(t - lag)."""

    source: KpiId
    target: KpiId
    coefficient: float
    lag: int

    def __post_init__(self) -> None:
        if self.lag < 1:
            raise ValueError("lag must be >= 1")
        if not math.isfinite(self.coefficient):
            raise ValueError("coefficient must be finite")


@dataclass(frozen=True)
class SimulationSpec:
    kpis: tuple[KpiDescriptor, ...]
    causal_edges: tuple[CausalLink, ...]
    noise_std: float
    length: int
    seed: int

    def __post_init__(self) -> None:
        if len(self.kpis) < 1:
            raise ValueError("need at least one KPI")
        ids = [d.kpi for d in self.kpis]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate KPIs in spec")
        known = set(ids)
        for edge in self.causal_edges:
            if edge.source not in known or edge.target not in known:
                raise ValueError(f"edge {edge.source}->{edge.target} references an unknown KPI")
        if not 0 <= self.noise_std < math.inf:
            raise ValueError("noise_std must be finite and non-negative")
        if self.length < 1:
            raise ValueError("length must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")

    @property
    def kpi_ids(self) -> list[KpiId]:
        return [d.kpi for d in self.kpis]

    def descriptor_table(self) -> dict[KpiId, KpiDescriptor]:
        return {d.kpi: d for d in self.kpis}


@dataclass(frozen=True)
class FaultSpec:
    """One fault on one KPI; the faulty component is the KPI's node.

    onset=0 marks a scenario that is faulty throughout its duration.
    """

    onset: int
    kind: str
    target: KpiId
    magnitude: float

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"kind must be one of {FAULT_KINDS}")
        if self.onset < 0:
            raise OnsetOutOfRange(f"onset {self.onset} is negative")
        if not math.isfinite(self.magnitude):
            raise ValueError("magnitude must be finite")

    @property
    def ground_truth_component(self) -> str:
        return self.target.node


def _propagate(
    spec: SimulationSpec, innovations: np.ndarray, start: int, pinned: tuple[int, np.ndarray] | None = None
) -> np.ndarray:
    """The generator recursion driven by ``innovations``, rows ``start`` onward.

    Row t is ``innovations[t]`` plus the AR(1) self-term and the lagged
    parent contributions; earlier rows stay zero.  ``pinned = (column,
    values)`` overrides that column with ``values[t]`` as each row is built.

    The recursion runs on Python floats: a row is a dozen values, so numpy
    calls would cost more than the arithmetic.  Python rounds each product and
    sum as numpy does, so the result keeps its bits.
    """
    index = {kpi: i for i, kpi in enumerate(spec.kpi_ids)}
    edges = [(index[e.source], index[e.target], e.coefficient, e.lag) for e in spec.causal_edges]
    rows = innovations.tolist()
    values = np.zeros_like(innovations).tolist()
    pin = None if pinned is None else (pinned[0], pinned[1].tolist())
    for t in range(start, len(rows)):
        row = rows[t] if t == 0 else [x + SELF_COEFFICIENT * p for x, p in zip(rows[t], values[t - 1])]
        for src, tgt, coeff, lag in edges:
            if t - lag >= 0:
                row[tgt] += coeff * values[t - lag][src]
        if pin is not None:
            row[pin[0]] = pin[1][t]
        values[t] = row
    return np.array(values)


def generate_normal(spec: SimulationSpec, seed: int | None = None) -> TimeSeriesDataset:
    """Simulate a failure-free run; pure function of (spec, seed)."""
    rng = np.random.default_rng(spec.seed if seed is None else seed)
    noise = rng.normal(0.0, spec.noise_std, size=(spec.length, len(spec.kpis)))
    return TimeSeriesDataset(
        timestamps=np.arange(spec.length, dtype=np.int64),
        kpis=spec.kpi_ids,
        values=_propagate(spec, noise, 0),
    )


def _fault_delta_on_target(clean_target: np.ndarray, fault: FaultSpec, length: int) -> np.ndarray:
    """Perturbation applied to the target column, full length, zero pre-onset."""
    delta = np.zeros(length)
    t = np.arange(fault.onset, length)
    if fault.kind == "offset":
        delta[t] = fault.magnitude
    elif fault.kind == "drift":
        delta[t] = fault.magnitude * (t - fault.onset) / (length - fault.onset)
    elif fault.kind == "spike":
        delta[fault.onset] = fault.magnitude
    else:  # stuck: hold the value the target had at onset
        delta[t] = clean_target[fault.onset] - clean_target[t]
    return delta


def inject_fault(
    dataset: TimeSeriesDataset, spec: SimulationSpec, fault: FaultSpec
) -> tuple[TimeSeriesDataset, FaultSpec]:
    """Perturb a clean run with one fault; returns (faulty data, ground truth).

    The target column becomes its clean trajectory plus the fault term
    (``stuck`` holds the onset value).  Downstream KPIs respond through the
    generator recursion re-run on the perturbation, so the cascade unfolds
    with the same noise realization.  Rows before the onset match the clean
    dataset bitwise, as do all KPIs unreachable from the target.
    """
    if dataset.kpis != spec.kpi_ids:
        raise SchemaError("dataset columns do not match the simulation spec")
    if not 0 <= fault.onset < dataset.n_rows:
        raise OnsetOutOfRange(
            f"onset {fault.onset} outside the simulated range [0, {dataset.n_rows})"
        )
    if fault.target not in spec.kpi_ids:
        raise SchemaError(f"fault target {fault.target} is not a KPI of the simulation spec")
    target = spec.kpi_ids.index(fault.target)
    forced = _fault_delta_on_target(dataset.values[:, target], fault, dataset.n_rows)
    delta = _propagate(spec, np.zeros_like(dataset.values), fault.onset, (target, forced))
    faulty = TimeSeriesDataset(
        timestamps=dataset.timestamps.copy(), kpis=list(dataset.kpis), values=dataset.values + delta
    )
    return faulty, fault


@dataclass(frozen=True)
class Scenario:
    """One evaluation run: a dataset and, when faulty, its ground truth."""

    name: str
    dataset: TimeSeriesDataset
    fault: FaultSpec | None = None


@dataclass(frozen=True)
class EvalRow:
    scenario: str
    sigma: float
    fp_count: int
    prediction_count: int
    failure_free: bool


@dataclass(frozen=True)
class EvaluationTable:
    """Cross product of scenarios and sigma values."""

    rows: tuple[EvalRow, ...]

    def elbow_curve(self) -> list[tuple[float, int]]:
        """Per-sigma FP totals as (sigma, total_fp), the knee-selection input.

        Restricted to failure-free scenarios when any exist (their false
        positives are what threshold tuning minimizes); otherwise all rows.
        """
        use_all = not any(r.failure_free for r in self.rows)
        curve: dict[float, int] = {}
        for row in self.rows:
            if use_all or row.failure_free:
                curve[row.sigma] = curve.get(row.sigma, 0) + row.fp_count
        return sorted(curve.items())

    def elbow_csv(self) -> str:
        """:meth:`elbow_curve` as the ``sigma,total_fp`` table that ``tune`` and ``evaluate`` write."""
        return "sigma,total_fp\n" + "".join(f"{sigma:g},{fp}\n" for sigma, fp in self.elbow_curve())

    def to_csv(self) -> str:
        lines = ["scenario,sigma,fp,predictions"]
        for row in self.rows:
            lines.append(f"{row.scenario},{row.sigma:g},{row.fp_count},{row.prediction_count}")
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        """Aligned table: one row per sigma, one column per scenario (fp/pred)."""
        names = list(dict.fromkeys(row.scenario for row in self.rows))
        sigmas = sorted({row.sigma for row in self.rows})
        cells = {(row.scenario, row.sigma): f"{row.fp_count}/{row.prediction_count}" for row in self.rows}
        totals = {sigma: sum(row.fp_count for row in self.rows if row.sigma == sigma) for sigma in sigmas}
        header = ["sigma", *names, "total_fp"]
        body = [
            [f"{sigma:g}", *(cells.get((name, sigma), "-") for name in names), str(totals[sigma])]
            for sigma in sigmas
        ]
        widths = [max(len(r[i]) for r in [header, *body]) for i in range(len(header))]
        lines = [
            "  ".join(cell.rjust(width) for cell, width in zip(row, widths))
            for row in [header, *body]
        ]
        return "\n".join(lines) + "\n"


def evaluate_scenarios(
    classifier: TrainedClassifier,
    scenarios: list[Scenario],
    grid: tuple[float, ...] = SIGMA_GRID,
) -> EvaluationTable:
    """Sigma-sweep every scenario against one trained classifier."""
    rows: list[EvalRow] = []
    for scenario in scenarios:
        onset = scenario.fault.onset if scenario.fault is not None else None
        for point in sigma_sweep(classifier, scenario.dataset, grid, fault_onset=onset):
            rows.append(
                EvalRow(
                    scenario=scenario.name,
                    sigma=point.sigma,
                    fp_count=point.fp_count,
                    prediction_count=point.prediction_count,
                    failure_free=scenario.fault is None,
                )
            )
    return EvaluationTable(rows=tuple(rows))


@dataclass(frozen=True)
class LocalizationScore:
    top3_hit: bool
    root_kpi_rank: int | None


def localization_score(reports: list[AnomalyReport], truth: FaultSpec) -> LocalizationScore:
    """Score the first post-onset anomalous report against the ground truth."""
    report = next(
        (
            r
            for r in reports
            if r.verdict.timestamp >= truth.onset and r.verdict.anomalous
        ),
        None,
    )
    if report is None:
        raise NoAnomalousReport("no post-onset report was classified anomalous")
    top3_hit = truth.ground_truth_component in [c.node for c in report.top_components]
    rank = next(
        (i + 1 for i, r in enumerate(report.root_cause_kpis) if r.kpi == truth.target),
        None,
    )
    return LocalizationScore(top3_hit=top3_hit, root_kpi_rank=rank)


def make_chain_spec(
    components: int = 4,
    kpis_per_component: int = 3,
    chain_coefficient: float = 0.8,
    local_coefficient: float = 0.7,
    noise_std: float = 1.0,
    length: int = 600,
    seed: int = 0,
) -> SimulationSpec:
    """Benchmark topology: a causal chain of components.

    Each component hosts one primary KPI and local KPIs driven by it; the
    primary of each component drives the primary of the next.  A fault at
    the first component's primary KPI cascades through the whole system.
    """
    metrics = ["load", "temperature", "vibration", "current", "flow", "speed"]
    if kpis_per_component < 1 or kpis_per_component > len(metrics):
        raise ValueError(f"kpis_per_component must lie in [1, {len(metrics)}]")
    kpis: list[KpiDescriptor] = []
    edges: list[CausalLink] = []
    primaries: list[KpiId] = []
    for c in range(1, components + 1):
        node = f"component-{c}"
        primary = KpiId(metric=metrics[0], node=node)
        primaries.append(primary)
        kpis.append(
            KpiDescriptor(kpi=primary, description=f"{metrics[0]} on {node}", unit=None)
        )
        for m in range(1, kpis_per_component):
            local = KpiId(metric=metrics[m], node=node)
            kpis.append(
                KpiDescriptor(kpi=local, description=f"{metrics[m]} on {node}", unit=None)
            )
            edges.append(
                CausalLink(source=primary, target=local, coefficient=local_coefficient, lag=m)
            )
    for upstream, downstream in zip(primaries, primaries[1:]):
        edges.append(
            CausalLink(source=upstream, target=downstream, coefficient=chain_coefficient, lag=1)
        )
    return SimulationSpec(
        kpis=tuple(kpis),
        causal_edges=tuple(edges),
        noise_std=noise_std,
        length=length,
        seed=seed,
    )


def spec_to_json(spec: SimulationSpec) -> str:
    return json.dumps(to_json(spec), indent=2, sort_keys=True)


def fault_to_json(fault: FaultSpec) -> str:
    payload = to_json(fault)
    payload["ground_truth_component"] = fault.ground_truth_component
    return json.dumps(payload, indent=2, sort_keys=True)


def _fault_from_payload(payload: dict) -> FaultSpec:
    """The derived ``ground_truth_component`` key, when present, is not read."""
    payload.pop("ground_truth_component", None)
    return from_json(payload, FaultSpec, "fault spec")


def load_spec(path: str | os.PathLike[str]) -> SimulationSpec:
    return load_json(lambda p: from_json(p, SimulationSpec, "simulation spec"), "simulation spec", path=path)


def load_fault(path: str | os.PathLike[str]) -> FaultSpec:
    return load_json(_fault_from_payload, "fault spec", path=path)
