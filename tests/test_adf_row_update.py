"""Property test: the ADF statistic from the lag search's R against a second QR.

At the chosen lag, ``_adf_searched_stat`` stacks the rows the lag search's
common sample dropped under that search's R and factors the small result; the
reference is the route that refits every row,
``_adf_stat(y, _adf_search(y, max_lags)[0])``. Both must give the same lags,
nobs, decision, p-bracket and exception, and statistics equal to rounding.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from marketpanel.diagnostics import (_adf_search, _adf_searched_stat, _adf_stat,
                                     _pvalue_bracket, mackinnon_crit)
from marketpanel.errors import MarketPanelError


def series(seed, length, kind):
    rng = np.random.default_rng(seed)
    shocks = rng.normal(0, 1, length)
    if kind == "noise":
        return shocks
    if kind == "walk":
        return np.cumsum(shocks)
    if kind == "ar1":
        phi = rng.uniform(-0.9, 0.98)
        y = np.zeros(length)
        for t in range(1, length):
            y[t] = phi * y[t - 1] + shocks[t]
        return y
    if kind == "steps":   # constant integer differences: every value exact
        return float(rng.integers(-50, 50)) + float(rng.integers(1, 5)) * np.arange(length)
    return rng.uniform(-5, 5) + rng.uniform(0.1, 3) * np.arange(length)   # "trend"


def two_qr(y, max_lags):
    """(lags, statistic, nobs) from the lag search and a second QR over every row."""
    lags = _adf_search(y, max_lags)[0]
    stat, nobs = _adf_stat(y, lags)
    return lags, stat, nobs


def outcome(fn):
    try:
        return fn()
    except MarketPanelError as exc:
        return type(exc)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), length=st.integers(12, 3000),
       kind=st.sampled_from(["noise", "ar1", "walk", "steps", "trend"]),
       lag_share=st.floats(0.0, 1.0))
@example(seed=1, length=12, kind="noise", lag_share=0.0)    # max_lags 0
@example(seed=2, length=12, kind="walk", lag_share=1.0)     # more lags than the rows carry
@example(seed=3, length=40, kind="steps", lag_share=0.5)
@example(seed=4, length=300, kind="trend", lag_share=0.2)
def test_one_qr_statistic_equals_two(seed, length, kind, lag_share):
    y = series(seed, length, kind)
    max_lags = round(lag_share * min(length, 60))
    want = outcome(lambda: two_qr(y, max_lags))
    got = outcome(lambda: _adf_searched_stat(y, max_lags))
    if isinstance(want, type):
        assert got is want
        return
    lags, stat, nobs = want
    got_lags, got_stat, got_nobs = got
    assert (got_lags, got_nobs) == (lags, nobs)
    crit = mackinnon_crit(nobs)
    assert _pvalue_bracket(got_stat, crit) == _pvalue_bracket(stat, crit)
    assert (got_stat < crit["5%"]) == (stat < crit["5%"])
    # a statistic near zero is a difference of nearly equal terms: its rounding is absolute
    assert got_stat == pytest.approx(stat, rel=1e-12, abs=1e-12)
