"""Shared white-box builders used across the test modules."""

from __future__ import annotations

import contextlib
import errno
import math

import numpy as np

from faultcast import errors
from faultcast.autoencoder import AutoencoderModel, TrainingConfig, bottleneck_layer_sizes, forward
from faultcast.classifier import ErrorBaseline, TrainedClassifier
from faultcast.errors import DimensionMismatch, NonFiniteLoss
from faultcast.knowledge import _HEADING_RE
from faultcast.kpi import KpiId, NormalizationStats
from faultcast.simulate import SELF_COEFFICIENT, SimulationSpec


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


def reference_pagerank(
    nodes: list, edges: list, damping: float, reverse_edges: bool, tolerance: float = 1e-9, max_iters: int = 1000
) -> dict:
    """Power iteration with a settable stop: the sweep and stop test ``pagerank`` must keep.

    It stops when the L1 change between sweeps drops below ``tolerance`` or
    after ``max_iters`` sweeps, whichever comes first.
    """
    index = {node: i for i, node in enumerate(nodes)}
    n = len(nodes)

    unique_edges = set()
    for source, target in edges:
        if reverse_edges:
            source, target = target, source
        unique_edges.add((index[source], index[target]))

    out_degree = np.zeros(n)
    for source, _ in unique_edges:
        out_degree[source] += 1
    transition = np.zeros((n, n))
    for source, target in unique_edges:
        transition[target, source] = 1.0 / out_degree[source]
    dangling = out_degree == 0

    rank = np.full(n, 1.0 / n)
    for _ in range(max_iters):
        dangling_mass = rank[dangling].sum()
        updated = damping * (transition @ rank + dangling_mass / n) + (1.0 - damping) / n
        if np.abs(updated - rank).sum() < tolerance:
            rank = updated
            break
        rank = updated
    return {node: float(rank[i]) for node, i in index.items()}


def reference_propagate(
    spec: SimulationSpec, innovations: np.ndarray, start: int, pinned: tuple[int, np.ndarray] | None = None
) -> np.ndarray:
    """The generator recursion on numpy rows, one numpy call per term: the bits ``_propagate`` must keep."""
    index = {kpi: i for i, kpi in enumerate(spec.kpi_ids)}
    edges = [(index[e.source], index[e.target], e.coefficient, e.lag) for e in spec.causal_edges]
    values = np.zeros_like(innovations)
    for t in range(start, len(innovations)):
        row = innovations[t].copy()
        if t > 0:
            row += SELF_COEFFICIENT * values[t - 1]
        for src, tgt, coeff, lag in edges:
            if t - lag >= 0:
                row[tgt] += coeff * values[t - lag, src]
        if pinned is not None:
            row[pinned[0]] = pinned[1][t]
        values[t] = row
    return values


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


def reference_sections_for_chunks(text: str, chunks) -> None:
    """The linear heading scan ``knowledge.sections_for_chunks`` replaced, kept verbatim as its reference."""
    headings = [(m.start(), m.group(2)) for m in _HEADING_RE.finditer(text)]
    for chunk in chunks:
        section = None
        for offset, title in headings:
            if offset <= chunk.char_start:
                section = title
            else:
                break
        chunk.section = section


class _FillingDisk:
    """A binary file that takes ``room`` more bytes, then fails as a full disk does."""

    def __init__(self, handle, room: int):
        self.handle = handle
        self.room = room

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.handle.close()

    def write(self, block) -> None:
        block = memoryview(block).cast("B")
        taken = self.handle.write(block[: self.room])
        self.room -= taken
        if taken < len(block):
            raise OSError(errno.ENOSPC, "No space left on device")

    def writelines(self, blocks) -> None:
        for block in blocks:
            self.write(block)


@contextlib.contextmanager
def disk_fills_up(monkeypatch, room: int):
    """Every file ``errors.write_file`` opens meanwhile fails with ENOSPC once ``room`` bytes are in it."""

    def filling_open(file, mode="r", **kwargs):
        handle = open(file, mode, **kwargs)
        return _FillingDisk(handle, room) if "w" in mode else handle

    monkeypatch.setattr(errors, "open", filling_open, raising=False)
    try:
        yield
    finally:
        monkeypatch.delattr(errors, "open")
