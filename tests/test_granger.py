from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from faultcast import granger
from faultcast.granger import GrangerConfig, f_test_p_value, granger_test, granger_tests


def _coupled_pair(length: int, seed: int = 3) -> tuple[np.ndarray, np.ndarray]:
    """y follows x with one step of delay plus a little noise."""
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, 1.0, length)
    noise = rng.normal(0.0, 1.0, length)
    y = np.zeros(length)
    for t in range(1, length):
        y[t] = 0.9 * x[t - 1] + 0.3 * noise[t]
    return x, y


def _oracle(x: np.ndarray, y: np.ndarray, lag: int) -> tuple[float, float]:
    """Reference F statistic and p-value via pseudo-inverse least squares."""
    length = len(x)
    df2 = length - 3 * lag - 1
    target = y[lag:]
    own_lags = np.column_stack([y[lag - k : length - k] for k in range(1, lag + 1)])
    cross_lags = np.column_stack([x[lag - k : length - k] for k in range(1, lag + 1)])
    restricted = np.column_stack([np.ones(length - lag), own_lags])
    unrestricted = np.column_stack([restricted, cross_lags])
    rss = []
    for design in (restricted, unrestricted):
        beta = np.linalg.pinv(design) @ target
        resid = target - design @ beta
        rss.append(float(resid @ resid))
    f_stat = max(rss[0] - rss[1], 0.0) / lag / (rss[1] / df2)
    p_value = float(
        mpmath.betainc(df2 / 2, lag / 2, 0, df2 / (df2 + lag * f_stat), regularized=True)
    )
    return f_stat, p_value


def test_config_defaults_and_validation():
    config = GrangerConfig()
    assert (config.lag, config.alpha, config.window) == (3, 0.05, 40)
    GrangerConfig(lag=3, window=8)
    with pytest.raises(ValueError):
        GrangerConfig(lag=0)
    with pytest.raises(ValueError):
        GrangerConfig(alpha=0.0)
    with pytest.raises(ValueError):
        GrangerConfig(alpha=1.0)
    with pytest.raises(ValueError):
        GrangerConfig(lag=3, window=7)


def test_input_validation():
    good = np.zeros(20)
    with pytest.raises(ValueError):
        granger_test(np.zeros((4, 5)), good, lag=3)
    with pytest.raises(ValueError):
        granger_test(good, np.zeros(19), lag=3)
    with pytest.raises(ValueError):
        granger_test(np.zeros(7), np.zeros(7), lag=3)


@pytest.mark.parametrize("length", [8, 9, 10])
def test_short_series_is_degenerate_not_an_error(length):
    """Enough rows to regress but df2 <= 0: flagged degenerate."""
    x, y = _coupled_pair(length)
    result = granger_test(x, y, lag=3)
    assert result.degenerate
    assert math.isnan(result.f_stat)
    assert result.p_value == 1.0
    assert not result.significant


def test_eleven_samples_is_the_first_computable_length():
    x, y = _coupled_pair(11)
    result = granger_test(x, y, lag=3)
    assert not result.degenerate
    assert math.isfinite(result.f_stat)


def test_constant_driver_series_is_degenerate():
    rng = np.random.default_rng(0)
    y = rng.normal(size=30)
    result = granger_test(np.zeros(30), y, lag=3)
    assert result.degenerate and not result.significant

    # constant target: its own lag columns collapse into the intercept
    result = granger_test(rng.normal(size=30), np.full(30, 2.5), lag=3)
    assert result.degenerate


@pytest.mark.parametrize(
    "make_pair, lag",
    [
        (lambda: _coupled_pair(40), 3),
        (lambda: (np.random.default_rng(5).normal(size=40), np.random.default_rng(6).normal(size=40)), 3),
        (lambda: _coupled_pair(23, seed=9), 2),
        (lambda: _coupled_pair(11, seed=4), 3),
    ],
)
def test_statistic_matches_reference_regression(make_pair, lag):
    x, y = make_pair()
    result = granger_test(x, y, lag=lag)
    f_ref, p_ref = _oracle(x, y, lag)
    assert result.f_stat == pytest.approx(f_ref, rel=1e-7, abs=1e-10)
    assert result.p_value == pytest.approx(p_ref, rel=1e-7, abs=1e-12)
    assert result.significant == (result.p_value <= 0.05)
    # cross-check the tail probability against scipy's F distribution
    df2 = len(x) - 3 * lag - 1
    assert result.p_value == pytest.approx(stats.f.sf(result.f_stat, lag, df2), rel=1e-9, abs=1e-15)


def test_detects_direction_of_strong_coupling():
    x, y = _coupled_pair(200)
    forward = granger_test(x, y, lag=3)
    reverse = granger_test(y, x, lag=3)
    assert forward.significant
    assert forward.p_value < 1e-6
    assert not reverse.significant
    assert reverse.p_value > forward.p_value


def test_p_value_closed_forms():
    # For df1 = 2 the survival function is (1 + 2 f / df2) ** (-df2 / 2)
    assert f_test_p_value(1.0, 2, 4) == pytest.approx(4.0 / 9.0, abs=1e-12)
    assert f_test_p_value(3.0, 2, 2) == pytest.approx(0.25, abs=1e-12)
    assert f_test_p_value(0.0, 3, 7) == pytest.approx(1.0, abs=1e-12)
    assert f_test_p_value(float("inf"), 3, 7) == 0.0


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    lag=st.integers(min_value=1, max_value=4),
    extra=st.integers(min_value=0, max_value=30),
)
def test_result_is_always_well_formed(seed, lag, extra):
    length = 2 * lag + 2 + extra
    rng = np.random.default_rng(seed)
    x = rng.normal(size=length)
    y = rng.normal(size=length)
    result = granger_test(x, y, lag=lag)
    if length - 3 * lag - 1 <= 0:
        assert result.degenerate
    if result.degenerate:
        assert math.isnan(result.f_stat)
        assert result.p_value == 1.0
        assert not result.significant
    else:
        assert result.f_stat >= 0.0
        assert 0.0 <= result.p_value <= 1.0
        assert result.significant == (result.p_value <= 0.05)


def _assert_same_bits(actual: float, expected: float) -> None:
    assert np.float64(actual).tobytes() == np.float64(expected).tobytes()


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    lag=st.integers(min_value=1, max_value=4),
    extra=st.integers(min_value=0, max_value=30),
    m=st.integers(min_value=2, max_value=7),
)
def test_every_entry_of_the_stacked_tests_is_the_pairwise_test_bit_for_bit(seed, lag, extra, m):
    rng = np.random.default_rng(seed)
    series = rng.normal(size=(2 * lag + 2 + extra, m))
    series[:, rng.integers(m)] = rng.normal()  # a constant column: degenerate as cause and as effect
    f_stat, p_value, degenerate = granger_tests(series, lag)
    assert f_stat.shape == p_value.shape == degenerate.shape == (m, m)
    assert degenerate.diagonal().all()
    for cause in range(m):
        for effect in range(m):
            if cause == effect:
                continue
            pair = granger_test(series[:, cause], series[:, effect], lag=lag)
            assert pair.degenerate == degenerate[cause, effect]
            _assert_same_bits(pair.f_stat, f_stat[cause, effect])
            _assert_same_bits(pair.p_value, p_value[cause, effect])
            assert pair.significant == (not pair.degenerate and pair.p_value <= 0.05)


@pytest.mark.parametrize(
    "rss_r, degenerate, f_stat, p_value", [(2.0, False, math.inf, 0.0), (0.0, True, math.nan, 1.0)]
)
def test_an_exact_unrestricted_fit(monkeypatch, rss_r, degenerate, f_stat, p_value):
    """RSS_u = 0 gives F = inf and p = 0, unless RSS_r = 0 too: then the pair is degenerate."""

    def exact_fit(design, target):
        stacked = design.shape[:-2]
        rss = np.zeros(stacked) if design.ndim == 4 else np.full(stacked, rss_r)
        return rss, np.ones(stacked, dtype=bool)

    monkeypatch.setattr(granger, "_stacked_rss", exact_fit)
    result = granger_test(*np.random.default_rng(0).normal(size=(2, 30)), lag=3)
    assert result.degenerate == degenerate and result.significant == (not degenerate)
    _assert_same_bits(result.f_stat, f_stat)
    assert result.p_value == p_value
