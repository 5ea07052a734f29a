"""Property tests: the segment reductions against the per-group loops they replace.

Each reference below is the loop form the package computed before its group
index: one pass per firm or per period over explicit row lists. Where the
arithmetic is unchanged the results must be equal bit for bit; where only the
summation order changed, within a tolerance fixed beforehand from float64.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from marketpanel.diagnostics import (_adf_search, _lag0_adf_stats,
                                     lr_heteroskedasticity)
from marketpanel.errors import SingletonGroupWarning
from marketpanel.regress import (INTERCEPT_NAME, _pivoted_qr_solve, re_fit,
                                 robust_cov_white_cross_section, within_transform)

from conftest import firm_codes, panel_matrix
from test_adf_row_update import adf_stat

PROPERTY = settings(max_examples=60, deadline=None)


def _groups(labels):
    groups = {}
    for i, label in enumerate(labels):
        groups.setdefault(label, []).append(i)
    return {g: np.asarray(idx) for g, idx in groups.items()}


def _panel(seed, n_firms, max_size, k, singletons=True):
    """An unsorted, unbalanced panel: random firm sizes and years, shuffled rows.

    Returns the design, its response and the raw (firm, year) label of each
    row, which the loop references group by independently of ``X.codes``."""
    rng = np.random.default_rng(seed)
    low = 1 if singletons else 2
    index = []
    for i in range(n_firms):
        size = int(rng.integers(low, max_size + 1))
        years = rng.choice(np.arange(2000, 2000 + max_size + 3), size, replace=False)
        index += [(f"F{i:02d}", int(y)) for y in years]
    index = [index[i] for i in rng.permutation(len(index))]
    scale = 10.0 ** rng.uniform(-3, 3, k)
    values = rng.normal(0, 1, (len(index), k)) * scale + rng.normal(0, 5, k)
    y = values @ rng.normal(0, 1, k) + rng.normal(0, 1, len(index)) + 40.0
    return panel_matrix(values, tuple(f"x{j}" for j in range(k)), index), y, index


# --- loop references -------------------------------------------------------------------

def loop_within(X, y, index):
    values, y_out = X.values.copy(), np.asarray(y, dtype=float).copy()
    for idx in _groups([f for f, _ in index]).values():
        values[idx] -= values[idx].mean(axis=0)
        y_out[idx] -= y_out[idx].mean()
    return values, y_out


def loop_white_cross_section(X, residuals, index):
    n, k = X.values.shape
    bread = np.linalg.pinv(X.values.T @ X.values)
    meat = np.zeros((k, k))
    for idx in _groups([year for _, year in index]).values():
        score = X.values[idx].T @ residuals[idx]
        meat += np.outer(score, score)
    cov = bread @ meat @ bread * (n / (n - k))
    return (cov + cov.T) / 2.0


def loop_re_coefficients(X, y, index):
    """Swamy-Arora RE GLS as group loops: (coefficients, theta)."""
    n, k = X.values.shape
    groups = _groups([f for f, _ in index])
    g = len(groups)
    wv, wy = loop_within(X, y, index)
    beta_w, _ = _pivoted_qr_solve(wv, wy, X.column_names)
    resid_w = wy - wv @ beta_w
    sigma2_e = float(resid_w @ resid_w) / (n - k - g)
    ids = sorted(groups)
    xbar = np.vstack([X.values[groups[f]].mean(axis=0) for f in ids])
    ybar = np.array([y[groups[f]].mean() for f in ids])
    sizes = np.array([len(groups[f]) for f in ids], dtype=float)
    sigma2_u = 0.0
    if g - k - 1 > 0:
        xb = np.column_stack([np.ones(g), xbar])
        beta_b, _ = _pivoted_qr_solve(xb, ybar, (INTERCEPT_NAME,) + X.column_names)
        resid_b = ybar - xb @ beta_b
        sigma2_u = max(float(resid_b @ resid_b) / (g - k - 1) - sigma2_e / (n / g), 0.0)
    theta = 1.0 - np.sqrt(sigma2_e / (sigma2_e + sizes * sigma2_u))
    values = np.column_stack([np.ones(n), X.values])
    y_star, v_star = y.copy(), values.copy()
    for theta_i, f in zip(theta, ids):
        idx = groups[f]
        y_star[idx] -= theta_i * y[idx].mean()
        v_star[idx] -= theta_i * values[idx].mean(axis=0)
    beta, _ = _pivoted_qr_solve(v_star, y_star, (INTERCEPT_NAME,) + X.column_names)
    return beta, float(theta.mean())


def loop_lr_statistic(residuals, labels):
    n = len(residuals)
    statistic = n * math.log(float(residuals @ residuals) / n)
    for idx in _groups(labels).values():
        e = residuals[idx]
        statistic -= len(e) * math.log(float(e @ e) / len(e))
    return statistic


def loop_aic_lag(y, max_lags):
    dy = np.diff(y)
    rows = np.arange(max_lags + 1, len(y))
    nobs = len(rows)
    target = dy[rows - 1]
    best_lag, best_aic = 0, math.inf
    for p in range(max_lags + 1):
        cols = [y[rows - 1]] + [dy[rows - 1 - j] for j in range(1, p + 1)] + [np.ones(nobs)]
        X = np.column_stack(cols)
        beta = np.linalg.lstsq(X, target, rcond=None)[0]
        rss = float((target - X @ beta) @ (target - X @ beta))
        aic = nobs * math.log(rss / nobs) + 2 * (p + 2)
        if aic < best_aic - 1e-12:
            best_aic, best_lag = aic, p
    return best_lag


# --- properties --------------------------------------------------------------------------

@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), n_firms=st.integers(1, 12),
       max_size=st.integers(1, 20), k=st.integers(1, 5))
def test_within_transform_equals_group_loop(seed, n_firms, max_size, k):
    X, y, index = _panel(seed, n_firms, max_size, k)
    has_singleton = any(len(idx) == 1 for idx in _groups([f for f, _ in index]).values())
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        Xw, yw = within_transform(X, y)
    raised = any(issubclass(w.category, SingletonGroupWarning) for w in caught)
    assert raised == has_singleton
    values, y_out = loop_within(X, y, index)
    assert np.array_equal(Xw.values, values)
    assert np.array_equal(yw, y_out)
    assert Xw.codes is X.codes


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), n_firms=st.integers(2, 12),
       max_size=st.integers(2, 15), k=st.integers(1, 4))
def test_period_clustered_covariance_equals_period_loop(seed, n_firms, max_size, k):
    X, y, index = _panel(seed, n_firms, max_size, k)
    assume(len({year for _, year in index}) >= 2 and len(X.values) > k)
    residuals = np.random.default_rng(seed).normal(0, 1, len(X.values))
    bread = np.linalg.pinv(X.values.T @ X.values)
    np.testing.assert_allclose(robust_cov_white_cross_section(X, residuals, bread),
                               loop_white_cross_section(X, residuals, index),
                               rtol=1e-12, atol=1e-14)


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), n_firms=st.integers(5, 12),
       max_size=st.integers(3, 10), k=st.integers(1, 3))
def test_random_effects_equals_group_loop(seed, n_firms, max_size, k):
    X, y, index = _panel(seed, n_firms, max_size, k, singletons=False)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fit = re_fit(X, y)
        beta, theta = loop_re_coefficients(X, y, index)
    np.testing.assert_allclose(fit.coefficients, beta, rtol=1e-12, atol=1e-12)
    assert fit.theta == pytest.approx(theta, rel=1e-12, abs=1e-12)


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), n_groups=st.integers(2, 30))
def test_lr_heteroskedasticity_equals_group_loop(seed, n_groups):
    rng = np.random.default_rng(seed)
    labels = [f"G{g}" for g in range(n_groups) for _ in range(int(rng.integers(3, 12)))]
    labels = [labels[i] for i in rng.permutation(len(labels))]
    residuals = rng.normal(0, 1, len(labels)) * rng.uniform(0.5, 3.0, len(labels))
    statistic = lr_heteroskedasticity(residuals, firm_codes(labels)).statistic
    reference = loop_lr_statistic(residuals, labels)
    # the statistic is a difference of sums of about n terms of order one
    assert statistic == pytest.approx(reference, rel=1e-12, abs=1e-12 * len(labels))


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), length=st.integers(20, 150),
       kind=st.sampled_from(["noise", "walk", "ar"]))
def test_nested_qr_lag_choice_equals_per_lag_lstsq(seed, length, kind):
    rng = np.random.default_rng(seed)
    shocks = rng.normal(0, 1, length)
    if kind == "walk":
        y = np.cumsum(shocks)
    elif kind == "ar":
        y = np.zeros(length)
        for t in range(2, length):
            y[t] = 0.5 * y[t - 1] - 0.3 * y[t - 2] + shocks[t]
    else:
        y = shocks
    max_lags = min(int(rng.integers(0, 12)), (length - 1) // 2 - 2)
    assert _adf_search(y, max_lags)[0] == loop_aic_lag(y, max_lags)


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), n_series=st.integers(1, 40))
def test_batched_lag0_adf_equals_per_series_regressions(seed, n_series):
    rng = np.random.default_rng(seed)
    # the uncentred reference loses digits when a level dwarfs its steps, so
    # offsets stay within a few dozen steps
    series = [10.0 ** rng.uniform(-3, 3)
              * (np.cumsum(rng.normal(0, 1, int(rng.integers(8, 30)))) + rng.normal(0, 10))
              for _ in range(n_series)]
    stat, usable = _lag0_adf_stats(np.concatenate(series), np.array([len(s) for s in series]))
    assert usable.all()
    reference = np.array([adf_stat(s, 0)[0] for s in series])
    np.testing.assert_allclose(stat, reference, rtol=1e-9, atol=1e-9)
