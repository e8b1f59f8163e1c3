"""Fully connected autoencoder trained with plain mini-batch gradient descent.

The network is symmetric: for n input KPIs the layer widths are
[n, ceil(n/2), max(2, ceil(n/4)), ceil(n/2), n], a narrow middle for any
realistic KPI count.  Hidden layers use tanh, the output layer is linear, and
the loss is the mean squared reconstruction error.  Everything is
deterministic given the seed: weight initialization, batch shuffling, and
therefore the trained weights.

Gradients are computed analytically (backpropagation) so they can be checked
against finite differences.

Training copies the weights and biases into one float64 parameter vector,
trains per-layer views of it and writes gradients into views of a matching
one, so a step updates every parameter with one ``params -= learning_rate *
grads``: at these sizes a step costs numpy calls, not arithmetic.  Each element
sees the same operations on the same operands in the same order as a per-array
update, so the weights, the loss curve and the epoch of :class:`NonFiniteLoss`
keep their bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonFiniteLoss


@dataclass(frozen=True)
class TrainingConfig:
    """Hyperparameters for :func:`train`.

    ``batch_size=None`` resolves to min(32, number of rows) at training time.
    """

    epochs: int = 200
    learning_rate: float = 0.01
    batch_size: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not 0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be positive and finite")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")

    def resolve_batch_size(self, n_rows: int) -> int:
        return self.batch_size if self.batch_size is not None else min(32, n_rows)


@dataclass(eq=False)
class AutoencoderModel:
    """Weights and biases of the reconstruction network.

    ``weights[i]`` has shape (layer_sizes[i], layer_sizes[i+1]) and
    ``biases[i]`` shape (layer_sizes[i+1],).
    """

    layer_sizes: list[int]
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def __post_init__(self) -> None:
        sizes = self.layer_sizes
        if len(sizes) < 2 or any(s < 1 for s in sizes):
            raise ValueError(f"layer sizes must be at least two positive widths: {sizes}")
        if sizes != sizes[::-1]:
            raise ValueError(f"layer sizes must be a palindrome: {sizes}")
        if len(self.weights) != len(sizes) - 1 or len(self.biases) != len(sizes) - 1:
            raise DimensionMismatch("one weight matrix and bias vector per layer transition")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape != (sizes[i], sizes[i + 1]) or b.shape != (sizes[i + 1],):
                raise DimensionMismatch(
                    f"layer {i}: weight shape {w.shape}, bias shape {b.shape} "
                    f"do not match sizes {sizes[i]}->{sizes[i + 1]}"
                )

    @property
    def n_inputs(self) -> int:
        return self.layer_sizes[0]


def bottleneck_layer_sizes(n: int) -> list[int]:
    """Layer widths for n input KPIs: [n, ceil(n/2), max(2, ceil(n/4)), ceil(n/2), n].

    The middle layer is the narrowest for n >= 3 (non-strictly up to n=8);
    for tiny inputs the floor of 2 units keeps the network trainable.
    """
    if n < 1:
        raise ValueError("need at least 1 input KPI")
    half = math.ceil(n / 2)
    quarter = max(2, math.ceil(n / 4))
    return [n, half, quarter, half, n]


def random_model(layer_sizes: list[int], seed: int) -> AutoencoderModel:
    """Glorot-uniform weights (limit sqrt(6/(fan_in+fan_out))), zero biases."""
    rng = np.random.default_rng(seed)
    weights: list[np.ndarray] = []
    biases: list[np.ndarray] = []
    for fan_in, fan_out in zip(layer_sizes, layer_sizes[1:]):
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return AutoencoderModel(layer_sizes=list(layer_sizes), weights=weights, biases=biases)


def init_autoencoder(n: int, seed: int) -> AutoencoderModel:
    """Build the standard symmetric network for ``n`` KPIs."""
    return random_model(bottleneck_layer_sizes(n), seed)


def _forward_cached(model: AutoencoderModel, batch: np.ndarray) -> list[np.ndarray]:
    """Activations per layer, input first.  tanh on hidden, identity on output."""
    last = len(model.weights) - 1
    activations = [batch]
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = activations[-1] @ w + b
        activations.append(z if i == last else np.tanh(z))
    return activations


def forward(model: AutoencoderModel, states: np.ndarray) -> np.ndarray:
    """Reconstruct one state (1-D) or a batch of states (2-D)."""
    states = np.asarray(states, dtype=np.float64)
    single = states.ndim == 1
    batch = states[None, :] if single else states
    if batch.shape[1] != model.n_inputs:
        raise DimensionMismatch(f"expected {model.n_inputs} inputs, got {batch.shape[1]}")
    out = _forward_cached(model, batch)[-1]
    return out[0] if single else out


def _views_of(model: AutoencoderModel, flat: np.ndarray) -> AutoencoderModel:
    """``model``'s shapes as views of consecutive slices of ``flat``: weights, then biases."""
    arrays = model.weights + model.biases
    parts = np.split(flat, np.cumsum([a.size for a in arrays])[:-1])
    views = [part.reshape(a.shape) for part, a in zip(parts, arrays)]
    n = len(model.weights)
    return AutoencoderModel(list(model.layer_sizes), views[:n], views[n:])


def _backprop(
    model: AutoencoderModel, batch: np.ndarray, grads_w: list[np.ndarray], grads_b: list[np.ndarray]
) -> np.ndarray:
    """Write the loss gradients of ``batch`` into ``grads_w``/``grads_b``; returns output - batch."""
    activations = _forward_cached(model, batch)
    diff = activations[-1] - batch
    delta = 2.0 * diff / diff.size  # output layer is linear
    for i in range(len(model.weights) - 1, -1, -1):
        np.matmul(activations[i].T, delta, out=grads_w[i])
        np.add.reduce(delta, 0, out=grads_b[i])
        if i > 0:
            delta = (delta @ model.weights[i].T) * (1.0 - activations[i] ** 2)
    return diff


def loss_and_gradients(
    model: AutoencoderModel, batch: np.ndarray
) -> tuple[float, list[np.ndarray], list[np.ndarray]]:
    """Mean squared error over the batch and its analytic weight/bias gradients.

    The loss averages over both rows and features, so gradients stay on a
    comparable scale regardless of batch size.
    """
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 2 or batch.shape[1] != model.n_inputs:
        raise DimensionMismatch(f"batch must be 2-D with {model.n_inputs} columns")
    grads_w = [np.empty_like(w) for w in model.weights]
    grads_b = [np.empty_like(b) for b in model.biases]
    diff = _backprop(model, batch, grads_w, grads_b)
    return float(np.mean(diff**2)), grads_w, grads_b


def train(
    model: AutoencoderModel, data: np.ndarray, config: TrainingConfig
) -> tuple[AutoencoderModel, list[float]]:
    """Train a copy of ``model`` on normalized rows; returns (model, loss curve).

    One curve entry per epoch, measured over the full dataset after the
    epoch's updates.  Raises :class:`NonFiniteLoss` if the loss diverges.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2 or data.shape[0] < 1:
        raise ValueError("training data must be a non-empty 2-D array")
    if data.shape[1] != model.n_inputs:
        raise DimensionMismatch(f"expected {model.n_inputs} columns, got {data.shape[1]}")

    params = np.concatenate([a.ravel() for a in model.weights + model.biases], dtype=np.float64)
    grads = np.empty_like(params)
    trained, gradient = _views_of(model, params), _views_of(model, grads)
    rng = np.random.default_rng(config.seed)
    n_rows = data.shape[0]
    batch_size = config.resolve_batch_size(n_rows)
    curve: list[float] = []
    for epoch in range(config.epochs):
        shuffled = data[rng.permutation(n_rows)]
        for start in range(0, n_rows, batch_size):
            _backprop(trained, shuffled[start : start + batch_size], gradient.weights, gradient.biases)
            params -= config.learning_rate * grads
        epoch_loss = float(np.mean((data - forward(trained, data)) ** 2))
        if not math.isfinite(epoch_loss):
            raise NonFiniteLoss(f"loss became non-finite at epoch {epoch + 1}")
        curve.append(epoch_loss)
    weights = [w.copy() for w in trained.weights]
    biases = [b.copy() for b in trained.biases]
    return AutoencoderModel(list(model.layer_sizes), weights, biases), curve
