"""Shared white-box builders used across the test modules."""

from __future__ import annotations

import math

import numpy as np

from faultcast.autoencoder import AutoencoderModel, TrainingConfig, bottleneck_layer_sizes, forward
from faultcast.classifier import ErrorBaseline, TrainedClassifier
from faultcast.errors import DimensionMismatch, NonFiniteLoss
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


def copy_model(model: AutoencoderModel) -> AutoencoderModel:
    """An independent copy of ``model``'s weights and biases."""
    return AutoencoderModel(
        layer_sizes=list(model.layer_sizes),
        weights=[w.copy() for w in model.weights],
        biases=[b.copy() for b in model.biases],
    )


def reference_loss_and_gradients(
    model: AutoencoderModel, batch: np.ndarray
) -> tuple[float, list[np.ndarray], list[np.ndarray]]:
    """Backpropagation into freshly allocated arrays, one operation at a time."""
    last = len(model.weights) - 1
    activations = [batch]
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = activations[-1] @ w + b
        activations.append(z if i == last else np.tanh(z))
    diff = activations[-1] - batch
    loss = float(np.mean(diff**2))

    n_layers = len(model.weights)
    grads_w: list[np.ndarray] = [np.empty(0)] * n_layers
    grads_b: list[np.ndarray] = [np.empty(0)] * n_layers
    delta = 2.0 * diff / diff.size  # output layer is linear
    for i in range(n_layers - 1, -1, -1):
        grads_w[i] = activations[i].T @ delta
        grads_b[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ model.weights[i].T) * (1.0 - activations[i] ** 2)
    return loss, grads_w, grads_b


def reference_train(
    model: AutoencoderModel, data: np.ndarray, config: TrainingConfig
) -> tuple[AutoencoderModel, list[float]]:
    """Mini-batch gradient descent one array at a time: the bits ``train`` must keep.

    Each step fancy-indexes its batch from the epoch's permutation, calls
    :func:`reference_loss_and_gradients` and updates every weight and bias
    array on its own.
    """
    data = np.asarray(data, dtype=np.float64)
    model = copy_model(model)
    rng = np.random.default_rng(config.seed)
    n_rows = data.shape[0]
    batch_size = config.resolve_batch_size(n_rows)
    curve: list[float] = []
    for epoch in range(config.epochs):
        order = rng.permutation(n_rows)
        for start in range(0, n_rows, batch_size):
            batch = data[order[start : start + batch_size]]
            _, grads_w, grads_b = reference_loss_and_gradients(model, batch)
            for w, b, gw, gb in zip(model.weights, model.biases, grads_w, grads_b):
                w -= config.learning_rate * gw
                b -= config.learning_rate * gb
        epoch_loss = float(np.mean((data - forward(model, data)) ** 2))
        if not math.isfinite(epoch_loss):
            raise NonFiniteLoss(f"loss became non-finite at epoch {epoch + 1}")
        curve.append(epoch_loss)
    return model, curve


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
