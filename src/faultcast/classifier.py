"""System-state classification on reconstruction error.

A trained classifier bundles the autoencoder, the normalization used during
training, and an error baseline (mean/std of training reconstruction errors).
:func:`score` is the one scoring primitive: it normalizes raw states, runs one
batched forward pass and returns each state's mean squared error with its
per-KPI squared residuals.  Training (the baseline), the sigma sweep,
``faultcast detect`` and :func:`faultcast.ranker.analyze` all score through
it.  A state is anomalous when its error strictly exceeds mu + sigma * std.
The sigma sweep and knee selection reproduce the threshold-tuning procedure:
count false positives per sigma on failure-free runs, then pick the sigma
with the largest vertical drop below the chord of the curve.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .autoencoder import AutoencoderModel, TrainingConfig, forward, init_autoencoder, train
from .errors import DataError, DimensionMismatch, IoError, SchemaMismatch, TooFewPoints, load_json
from .kpi import (
    KpiId,
    Matrix,
    NormalizationStats,
    TimeSeriesDataset,
    Vector,
    fit_normalization,
    from_json,
    to_json,
)

# Default sigma multiplier and the sweep grid it was chosen from.
DEFAULT_SIGMA = 4.5
SIGMA_GRID: tuple[float, ...] = (1.5, 3.0, 4.5, 6.0, 7.5, 9.0, 10.5)


@dataclass(frozen=True)
class ClassifierConfig:
    """Threshold multipliers.  ``sigma_kpi=None`` falls back to ``sigma``."""

    sigma: float = DEFAULT_SIGMA
    sigma_kpi: float | None = None

    def __post_init__(self) -> None:
        if not 0 < self.sigma < math.inf:
            raise ValueError("sigma must be positive and finite")
        if self.sigma_kpi is not None and not 0 < self.sigma_kpi < math.inf:
            raise ValueError("sigma_kpi must be positive and finite")

    @property
    def effective_sigma_kpi(self) -> float:
        return self.sigma if self.sigma_kpi is None else self.sigma_kpi


@dataclass(eq=False)
class ErrorBaseline:
    """Population statistics of training reconstruction errors.

    ``state_mu``/``state_std`` summarize per-state mean squared errors and
    must be finite; ``kpi_mu``/``kpi_std`` summarize per-KPI squared
    residuals column-wise.
    """

    state_mu: float
    state_std: float
    kpi_mu: Vector
    kpi_std: Vector

    def __post_init__(self) -> None:
        if not (math.isfinite(self.state_mu) and math.isfinite(self.state_std)):
            raise ValueError("state_mu and state_std must be finite")
        self.kpi_mu = np.asarray(self.kpi_mu, dtype=np.float64)
        self.kpi_std = np.asarray(self.kpi_std, dtype=np.float64)


@dataclass(frozen=True)
class StateVerdict:
    """Outcome of classifying one state."""

    timestamp: int
    state_error: float
    threshold: float
    anomalous: bool


@dataclass(eq=False)
class TrainedClassifier:
    """Autoencoder plus everything needed to score raw states."""

    model: AutoencoderModel
    baseline: ErrorBaseline
    normalization: NormalizationStats
    kpis: list[KpiId]
    training: TrainingConfig


def score(classifier: TrainedClassifier, raw_values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reconstruction error of one raw state (1-D) or a batch of raw states (2-D).

    The values are normalized with the training statistics and reconstructed
    in one forward pass.  Returns ``(state_errors, kpi_residuals)``: the
    squared per-KPI residuals, shaped like the input, and their mean over each
    state (a 0-D array for a 1-D input).  Raises :class:`DataError` on a NaN or
    infinite value, raw or after normalization, which would otherwise score as
    a normal state.  A finite normalized state whose error overflows scores
    ``inf``, which is anomalous at any threshold.
    """
    normalized = classifier.normalization.transform(raw_values)
    if not np.isfinite(normalized).all():
        raise DataError("KPI values must be finite and stay finite when normalized")
    residuals = (normalized - forward(classifier.model, normalized)) ** 2
    return residuals.mean(axis=-1), residuals


def threshold(baseline: ErrorBaseline, sigma: float) -> float:
    """Anomaly threshold: baseline mean plus sigma standard deviations."""
    if not 0 < sigma < math.inf:
        raise ValueError("sigma must be positive and finite")
    return baseline.state_mu + sigma * baseline.state_std


def baseline_from_errors(state_errors: np.ndarray, kpi_residuals: np.ndarray) -> ErrorBaseline:
    """Population mean/std over per-state errors and per-KPI squared residuals."""
    state_errors = np.asarray(state_errors, dtype=np.float64)
    kpi_residuals = np.asarray(kpi_residuals, dtype=np.float64)
    return ErrorBaseline(
        state_mu=float(state_errors.mean()),
        state_std=float(state_errors.std()),
        kpi_mu=kpi_residuals.mean(axis=0),
        kpi_std=kpi_residuals.std(axis=0),
    )


def fit_classifier(
    dataset: TimeSeriesDataset, training: TrainingConfig
) -> tuple[TrainedClassifier, list[float]]:
    """Normalize, train the autoencoder, and freeze the error baseline.

    Returns the classifier and the per-epoch training loss curve.
    """
    stats = fit_normalization(dataset)
    model = init_autoencoder(dataset.n_kpis, training.seed)
    model, curve = train(model, stats.transform(dataset.values), training)
    # score reads only the model and the normalization; the baseline is what it measures.
    unscored = ErrorBaseline(0.0, 0.0, np.zeros(dataset.n_kpis), np.zeros(dataset.n_kpis))
    classifier = TrainedClassifier(
        model=model,
        baseline=unscored,
        normalization=stats,
        kpis=list(dataset.kpis),
        training=training,
    )
    classifier.baseline = baseline_from_errors(*score(classifier, dataset.values))
    return classifier, curve


def check_schema(classifier: TrainedClassifier, kpis: Sequence[KpiId]) -> None:
    """Raise :class:`SchemaMismatch` naming the first offending column."""
    expected = classifier.kpis
    for i in range(max(len(expected), len(kpis))):
        if i >= len(expected):
            raise SchemaMismatch(f"unexpected column {kpis[i]}")
        if i >= len(kpis):
            raise SchemaMismatch(f"missing column {expected[i]}")
        if kpis[i] != expected[i]:
            raise SchemaMismatch(f"column {i + 1} is {kpis[i]}, model expects {expected[i]}")


@dataclass(frozen=True)
class SweepPoint:
    """False-positive and prediction counts at one sigma."""

    sigma: float
    fp_count: int
    prediction_count: int


def check_sigma_grid(grid: Sequence[float]) -> None:
    """Raise ``ValueError`` unless ``grid`` is non-empty, positive, finite and ascending."""
    if len(grid) == 0:
        raise ValueError("sigma grid must be non-empty")
    if not all(0 < sigma < math.inf for sigma in grid):
        raise ValueError("sigma grid values must be positive and finite")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("sigma grid must be strictly ascending")


def sigma_sweep(
    classifier: TrainedClassifier,
    dataset: TimeSeriesDataset,
    grid: Sequence[float] = SIGMA_GRID,
    fault_onset: int | None = None,
) -> list[SweepPoint]:
    """Count anomalous verdicts per sigma on one raw scenario.

    Verdicts strictly before ``fault_onset`` count as false positives,
    verdicts at or after it as predictions.  Without an onset the scenario is
    failure-free and every anomalous verdict is a false positive.
    """
    check_sigma_grid(grid)
    check_schema(classifier, dataset.kpis)
    errors, _ = score(classifier, dataset.values)
    before = (
        np.ones(dataset.n_rows, dtype=bool)
        if fault_onset is None
        else dataset.timestamps < fault_onset
    )
    points: list[SweepPoint] = []
    for sigma in grid:
        anomalous = errors > threshold(classifier.baseline, sigma)
        points.append(
            SweepPoint(
                sigma=float(sigma),
                fp_count=int(np.count_nonzero(anomalous & before)),
                prediction_count=int(np.count_nonzero(anomalous & ~before)),
            )
        )
    return points


def chord_drops(curve: Sequence[tuple[float, float]]) -> list[tuple[float, float]]:
    """Vertical distance of each interior point below the first-last chord."""
    if len(curve) < 3:
        raise TooFewPoints(f"knee selection needs at least 3 points, got {len(curve)}")
    sigmas = [float(s) for s, _ in curve]
    counts = [float(c) for _, c in curve]
    if any(b <= a for a, b in zip(sigmas, sigmas[1:])):
        raise ValueError("sigma values must be strictly ascending")
    slope = (counts[-1] - counts[0]) / (sigmas[-1] - sigmas[0])
    return [
        (sigmas[i], counts[0] + slope * (sigmas[i] - sigmas[0]) - counts[i])
        for i in range(1, len(curve) - 1)
    ]


def select_elbow(curve: Sequence[tuple[float, float]]) -> float:
    """Sigma of the interior point with the largest drop below the chord.

    Ties resolve to the smaller sigma.
    """
    best_sigma, best_drop = None, -np.inf
    for sigma, drop in chord_drops(curve):
        if drop > best_drop:
            best_sigma, best_drop = sigma, drop
    assert best_sigma is not None
    return best_sigma


MODEL_FORMAT_VERSION = 1


@dataclass(frozen=True)
class _ModelFile:
    """The top-level keys of a model file."""

    version: int
    kpis: list[KpiId]
    layer_sizes: list[int]
    weights: list[Matrix]
    biases: list[Vector]
    normalization: NormalizationStats
    baseline: ErrorBaseline
    training: TrainingConfig


def save_classifier(classifier: TrainedClassifier, path: str | os.PathLike[str]) -> None:
    """Persist a classifier as a single JSON file (full double precision)."""
    model = classifier.model
    saved = _ModelFile(
        version=MODEL_FORMAT_VERSION,
        kpis=classifier.kpis,
        layer_sizes=model.layer_sizes,
        weights=model.weights,
        biases=model.biases,
        normalization=classifier.normalization,
        baseline=classifier.baseline,
        training=classifier.training,
    )
    try:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(to_json(saved), handle, indent=2, sort_keys=True, allow_nan=False)
            handle.write("\n")
    except OSError as exc:
        raise IoError(f"cannot write model: {path}") from exc


def load_classifier(path: str | os.PathLike[str]) -> TrainedClassifier:
    """Load a classifier persisted by :func:`save_classifier`.

    A missing or unknown key or a value of the wrong type raises
    :class:`SchemaError`; lengths that disagree with the KPI list raise
    :class:`DimensionMismatch`.
    """
    return load_json(_classifier_from_payload, "model", path=path, version=MODEL_FORMAT_VERSION)


def _classifier_from_payload(payload: dict) -> TrainedClassifier:
    saved = from_json(payload, _ModelFile, "model")
    model = AutoencoderModel(layer_sizes=saved.layer_sizes, weights=saved.weights, biases=saved.biases)
    lengths = {
        "layer_sizes[0]": model.n_inputs,
        "normalization.mean": saved.normalization.mean.shape[0],
        "baseline.kpi_mu": saved.baseline.kpi_mu.shape[0],
        "baseline.kpi_std": saved.baseline.kpi_std.shape[0],
    }
    for what, length in lengths.items():
        if length != len(saved.kpis):
            raise DimensionMismatch(f"{what} has length {length}, model has {len(saved.kpis)} KPIs")
    return TrainedClassifier(
        model=model,
        baseline=saved.baseline,
        normalization=saved.normalization,
        kpis=saved.kpis,
        training=saved.training,
    )
