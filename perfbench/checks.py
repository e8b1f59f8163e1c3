"""Output checks: independent reference computations and golden comparison.

The references read faultcast's artifact formats (model JSON, verdict CSV,
report JSON, store JSON), not its in-memory objects, so they keep working
when the package's internals are refactored.  They recompute the same
mathematics the package documents, in the plainest form: one MLP forward
pass over all rows, one least-squares fit per Granger model, one cosine
matrix-vector product per query.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np
from scipy import special

RTOL = 1e-6

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_TOKEN_RE = re.compile(r"[a-z0-9]+")


def close(a: float, b: float, rtol: float = RTOL) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b or math.isclose(a, b, rel_tol=rtol, abs_tol=0.0)


def compare(expected: object, actual: object, path: str = "$", rtol: float = RTOL) -> list[str]:
    """Structural differences; floats within ``rtol``, everything else exact."""
    if isinstance(expected, float) or isinstance(actual, float):
        if isinstance(expected, (int, float)) and isinstance(actual, (int, float)) \
                and not isinstance(expected, bool) and not isinstance(actual, bool) \
                and close(float(expected), float(actual), rtol):
            return []
        return [f"{path}: expected {expected!r}, got {actual!r}"]
    if isinstance(expected, dict) and isinstance(actual, dict):
        if expected.keys() != actual.keys():
            return [f"{path}: keys {sorted(expected)} != {sorted(actual)}"]
        return [d for k in expected for d in compare(expected[k], actual[k], f"{path}.{k}", rtol)]
    if isinstance(expected, (list, tuple)) and isinstance(actual, (list, tuple)):
        if len(expected) != len(actual):
            return [f"{path}: length {len(expected)} != {len(actual)}"]
        diffs: list[str] = []
        for i, (e, a) in enumerate(zip(expected, actual)):
            diffs.extend(compare(e, a, f"{path}[{i}]", rtol))
            if len(diffs) > 20:
                break
        return diffs
    return [] if expected == actual else [f"{path}: expected {expected!r}, got {actual!r}"]


# --- detection -------------------------------------------------------------

def read_verdicts(path: str) -> tuple[str, list[float], float]:
    """Verdict CSV written by ``faultcast detect``: flags as '0'/'1', errors, threshold."""
    flags, errors, limit = [], [], float("nan")
    with open(path, encoding="utf-8") as handle:
        header = handle.readline().strip().split(",")
        col = {name: i for i, name in enumerate(header)}
        for line in handle:
            cells = line.rstrip("\n").split(",")
            flags.append("1" if cells[col["anomalous"]] == "true" else "0")
            errors.append(float(cells[col["state_error"]]))
            limit = float(cells[col["threshold"]])
    return "".join(flags), errors, limit


def reference_errors(model_path: str, raw: np.ndarray) -> tuple[np.ndarray, dict]:
    """Per-row reconstruction error of raw states under a saved model."""
    with open(model_path, encoding="utf-8") as handle:
        model = json.load(handle)
    mean = np.asarray(model["normalization"]["mean"])
    std = np.asarray(model["normalization"]["std"])
    x = (raw - mean) / np.where(std == 0.0, 1.0, std)
    h = x
    layers = list(zip(model["weights"], model["biases"]))
    for i, (w, b) in enumerate(layers):
        z = h @ np.asarray(w) + np.asarray(b)
        h = z if i == len(layers) - 1 else np.tanh(z)
    return np.mean((x - h) ** 2, axis=1), model


def check_verdicts(model_path: str, raw: np.ndarray, csv_path: str, sigma: float) -> list[str]:
    """The detect CSV against a reference forward pass and threshold."""
    flags, errors, limit = read_verdicts(csv_path)
    expected, model = reference_errors(model_path, raw)
    baseline = model["baseline"]
    expected_limit = baseline["state_mu"] + sigma * baseline["state_std"]
    problems = []
    if len(flags) != len(expected):
        return [f"verdicts: {len(flags)} rows, expected {len(expected)}"]
    if not close(limit, expected_limit, 1e-9):
        problems.append(f"verdicts: threshold {limit!r}, expected {expected_limit!r}")
    for row, (flag, error, ref) in enumerate(zip(flags, errors, expected)):
        if not close(error, float(ref), 1e-9):
            problems.append(f"verdicts row {row}: error {error!r}, reference {ref!r}")
        elif abs(ref - expected_limit) > 1e-9 * expected_limit and flag != ("1" if ref > expected_limit else "0"):
            problems.append(f"verdicts row {row}: flag {flag}, reference error {ref!r} vs {expected_limit!r}")
        if len(problems) > 20:
            break
    return problems


# --- localization ----------------------------------------------------------

def _lags(series: np.ndarray, lag: int) -> np.ndarray:
    return np.column_stack([series[lag - k: len(series) - k] for k in range(1, lag + 1)])


def reference_granger(x: np.ndarray, y: np.ndarray, lag: int) -> tuple[float, float] | None:
    """(F, p) of "x Granger-causes y", or None when a fit is rank-deficient."""
    target = y[lag:]
    restricted = np.hstack([np.ones((len(target), 1)), _lags(y, lag)])
    unrestricted = np.hstack([restricted, _lags(x, lag)])
    rss = []
    for design in (restricted, unrestricted):
        beta, _, rank, _ = np.linalg.lstsq(design, target, rcond=None)
        if rank != design.shape[1]:
            return None
        residual = target - design @ beta
        rss.append(float(residual @ residual))
    df2 = len(x) - 3 * lag - 1
    if rss[1] <= 0.0:
        return None if rss[0] <= 0.0 else (math.inf, 0.0)
    f_stat = max(rss[0] - rss[1], 0.0) / lag / (rss[1] / df2)
    return f_stat, float(special.betainc(df2 / 2.0, lag / 2.0, df2 / (df2 + lag * f_stat)))


def check_report(report: dict, window: np.ndarray, kpis: list[str],
                 lag: int = 3, alpha: float = 0.05) -> list[str]:
    """A report's graph against reference Granger tests over its window.

    ``window`` is the normalized history the report was built from, last
    rows only, one column per KPI in ``kpis``.
    """
    problems = []
    nodes = report["kpis"]
    column = {k: i for i, k in enumerate(kpis)}
    got = {(c, e): (f, p) for c, e, f, p in report["edges"]}
    for cause in nodes:
        for effect in nodes:
            if cause == effect:
                continue
            result = reference_granger(window[:, column[cause]], window[:, column[effect]], lag)
            expected = result is not None and result[1] <= alpha
            borderline = result is not None and abs(result[1] - alpha) <= 1e-9
            if borderline:
                continue
            if expected != ((cause, effect) in got):
                problems.append(f"edge {cause}->{effect}: expected {expected}, reference {result}")
            elif expected and not (close(got[(cause, effect)][0], result[0])
                                   and close(got[(cause, effect)][1], result[1])):
                problems.append(f"edge {cause}->{effect}: (F, p) {got[(cause, effect)]} vs {result}")
    node_components = {k.split("@")[1] for k in nodes}
    if len(report["top3"]) > 3 or not set(report["top3"]) <= node_components:
        problems.append(f"top components {report['top3']} not among {sorted(node_components)}")
    return problems


# --- retrieval -------------------------------------------------------------

def _fnv1a(data: bytes) -> int:
    value = _FNV_OFFSET
    for byte in data:
        value = ((value ^ byte) * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return value


def load_store_matrix(path: str) -> tuple[list[str], np.ndarray, int]:
    """Chunk ids, embedding rows and dimension of a saved store."""
    with open(path, encoding="utf-8") as handle:
        store = json.load(handle)
    chunks = [c for c in store["chunks"] if c["embedding"] is not None]
    return [c["chunk_id"] for c in chunks], np.asarray([c["embedding"] for c in chunks]), int(store["dimension"])


def check_retrieval(ids: list[str], matrix: np.ndarray, dimension: int, prompt: str,
                    retrieved: list[list], top_k: int = 4) -> list[str]:
    """Retrieved (chunk id, similarity) pairs are a correct cosine top-k."""
    query = np.zeros(dimension)
    for token in _TOKEN_RE.findall(prompt.lower()):
        query[_fnv1a(token.encode("utf-8")) % dimension] += 1.0
    norms = np.linalg.norm(matrix, axis=1) * np.linalg.norm(query)
    sims = np.divide(matrix @ query, norms, out=np.zeros(len(ids)), where=norms > 0)
    by_id = dict(zip(ids, sims))
    best = sorted((s for s in sims if s >= 0.0), reverse=True)[:top_k]
    problems = []
    if len(retrieved) != len(best):
        problems.append(f"retrieval {prompt!r}: {len(retrieved)} chunks, expected {len(best)}")
    for (chunk_id, sim), expected in zip(retrieved, best):
        if chunk_id not in by_id or not close(sim, float(by_id[chunk_id]), 1e-9) \
                or not close(sim, float(expected), 1e-9):
            problems.append(f"retrieval {prompt!r}: {chunk_id} at {sim!r}, expected {expected!r}")
    return problems
