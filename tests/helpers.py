"""Shared white-box builders used across the test modules."""

from __future__ import annotations

import numpy as np

from faultcast.autoencoder import AutoencoderModel, TrainingConfig, bottleneck_layer_sizes, forward
from faultcast.classifier import ErrorBaseline, TrainedClassifier
from faultcast.errors import DimensionMismatch
from faultcast.kpi import KpiId, NormalizationStats


def zero_model(n: int) -> AutoencoderModel:
    """A valid network for n inputs whose output is identically zero."""
    sizes = bottleneck_layer_sizes(n)
    weights = [np.zeros((a, b)) for a, b in zip(sizes, sizes[1:])]
    biases = [np.zeros(b) for b in sizes[1:]]
    return AutoencoderModel(layer_sizes=sizes, weights=weights, biases=biases)


def linear_model(weight: np.ndarray, bias: np.ndarray) -> AutoencoderModel:
    """A single linear layer (the output layer has no activation)."""
    n_in, n_out = weight.shape
    return AutoencoderModel(layer_sizes=[n_in, n_out], weights=[weight.copy()], biases=[bias.copy()])


def make_classifier(
    model: AutoencoderModel,
    baseline: ErrorBaseline,
    kpis: list[KpiId],
    mean: np.ndarray | None = None,
    std: np.ndarray | None = None,
) -> TrainedClassifier:
    """Wire a hand-built model into a classifier with explicit statistics."""
    n = model.n_inputs
    stats = NormalizationStats(
        mean=np.zeros(n) if mean is None else np.asarray(mean, dtype=np.float64),
        std=np.ones(n) if std is None else np.asarray(std, dtype=np.float64),
    )
    return TrainedClassifier(
        model=model,
        baseline=baseline,
        normalization=stats,
        kpis=list(kpis),
        training=TrainingConfig(),
    )


def unit_baseline(n: int) -> ErrorBaseline:
    """state_mu=0, state_std=1, per-KPI mu=0/std=1: thresholds equal sigma."""
    return ErrorBaseline(state_mu=0.0, state_std=1.0, kpi_mu=np.zeros(n), kpi_std=np.ones(n))


def batch_loss(model: AutoencoderModel, batch: np.ndarray) -> float:
    """Reference MSE matching the training objective (mean over rows and KPIs)."""
    batch = np.asarray(batch, dtype=np.float64)
    return float(np.mean((batch - forward(model, batch)) ** 2))


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine of the angle between two vectors; 0 if either is zero.

    The brute-force reference that retrieval's one matrix product is checked against.
    """
    if len(a) != len(b):
        raise DimensionMismatch(f"vector lengths differ: {len(a)} vs {len(b)}")
    denominator = np.linalg.norm(a) * np.linalg.norm(b)
    if denominator == 0.0:
        return 0.0
    return float(np.dot(a, b) / denominator)


def load_text(loader, text: str, directory):
    """``loader`` applied to a file under ``directory`` that holds ``text``."""
    path = directory / "artifact.json"
    path.write_text(text, encoding="utf-8")
    return loader(path)
