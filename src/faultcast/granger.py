"""Bivariate Granger causality via nested ordinary least squares.

Does the past of x help predict y beyond y's own past?  Fit y_t on an
intercept plus p lags of y (restricted), then add p lags of x (unrestricted),
and compare residual sums of squares with an F-test:

    F = ((RSS_r - RSS_u) / p) / (RSS_u / (W - 3p - 1))

where W is the series length; W - p usable rows minus 2p + 1 unrestricted
parameters leaves W - 3p - 1 denominator degrees of freedom.  The p-value is
the upper tail of the F distribution, evaluated through the regularized
incomplete beta function.

:func:`granger_tests` tests every ordered pair of columns at once: one
stacked SVD fits the restricted designs (one per effect), a second the
unrestricted ones (one per pair).  As in ``numpy.linalg.lstsq``, the
coefficients are V S^-1 U^T y, the residual is y minus the design times them,
and a design is full rank when ``s_min > s_max * eps * max(rows, cols)``.
Rank-deficient designs (constant series, collinear lags, a KPI against
itself) and exact fits of both models are flagged ``degenerate`` and
non-significant rather than raised.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import GrangerConfig as GrangerConfig


@dataclass(frozen=True)
class GrangerResult:
    f_stat: float
    p_value: float
    significant: bool
    degenerate: bool = False


def f_test_p_value(f_stat: float | np.ndarray, df1: int, df2: int) -> np.ndarray:
    """Upper-tail F probability via the regularized incomplete beta function."""
    # Imported here: scipy doubles every command's start-up, and only Granger tests need it.
    from scipy import special

    return special.betainc(df2 / 2.0, df1 / 2.0, df2 / (df2 + df1 * np.asarray(f_stat)))


def _stacked_rss(design: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Residual sums of squares and full-rank flags of a stack of designs."""
    u, s, vt = np.linalg.svd(design, full_matrices=False)
    full_rank = s[..., -1] > s[..., 0] * np.finfo(np.float64).eps * max(design.shape[-2:])
    column = target[..., None]
    beta = vt.swapaxes(-1, -2) @ (u.swapaxes(-1, -2) @ column / s[..., None])
    residual = column - design @ beta
    return (residual * residual).sum(axis=(-2, -1)), full_rank


def granger_tests(series: np.ndarray, lag: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """F statistics, p-values and degenerate flags of every ordered column pair.

    ``series`` holds one KPI per column, rows oldest to newest.  Each result
    is an m x m array whose entry ``[cause, effect]`` tests whether column
    ``cause`` Granger-causes column ``effect``; a degenerate entry has F = NaN
    and p = 1.
    """
    length, m = series.shape
    df2 = length - 3 * lag - 1
    if df2 <= 0:  # too few rows for positive denominator degrees of freedom
        return np.full((m, m), np.nan), np.ones((m, m)), np.ones((m, m), dtype=bool)

    rows = length - lag
    target = series[lag:].T
    lags = np.stack([series[lag - k : length - k].T for k in range(1, lag + 1)], axis=-1)
    restricted = np.concatenate([np.ones((m, rows, 1)), lags], axis=-1)
    unrestricted = np.concatenate(
        [np.broadcast_to(restricted, (m, m, rows, lag + 1)), np.broadcast_to(lags[:, None], (m, m, rows, lag))],
        axis=-1,
    )
    with np.errstate(all="ignore"):  # only rank-deficient or exact fits overflow or divide by zero
        rss_r, full_rank_r = _stacked_rss(restricted, target)
        rss_u, full_rank_u = _stacked_rss(unrestricted, target)
        f = np.maximum(rss_r - rss_u, 0.0) / lag / (rss_u / df2)
    degenerate = ~(full_rank_r & full_rank_u) | ((rss_u <= 0.0) & (rss_r <= 0.0))
    np.fill_diagonal(degenerate, True)
    f_stat = np.where(degenerate, np.nan, f)
    return f_stat, np.where(degenerate, 1.0, f_test_p_value(f_stat, lag, df2)), degenerate


def granger_test(x: np.ndarray, y: np.ndarray, lag: int = 3, alpha: float = 0.05) -> GrangerResult:
    """Test whether x Granger-causes y at the given lag order."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 1 or y.ndim != 1 or len(x) != len(y):
        raise ValueError("x and y must be 1-D series of equal length")
    length = len(x)
    if length < 2 * lag + 2:
        raise ValueError(f"series too short: need at least {2 * lag + 2} samples, got {length}")
    f, p, degenerate = (result[0, 1].item() for result in granger_tests(np.column_stack([x, y]), lag))
    return GrangerResult(f_stat=f, p_value=p, significant=not degenerate and p <= alpha, degenerate=degenerate)
