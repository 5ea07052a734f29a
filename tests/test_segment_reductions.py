"""Property tests: the segment reductions against the per-group loops they replace.

Each reference below is a loop over explicit row lists, one pass per firm or
per period. Every per-firm, per-period and per-row sum of the package is one
``np.bincount`` over the codes (``panel_core._group_sums``), which adds each
group's rows in row order from 0.0: the within transform and the period
scores are checked bit for bit against loops that add in that order. Where a
reference sums in another order, the tolerance is fixed beforehand from float64.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from marketpanel.diagnostics import _lag0_adf_stats, lr_heteroskedasticity
from marketpanel.panel_core import _group_sums, row_sums
from marketpanel.regress import (INTERCEPT_NAME, _pivoted_qr_solve, re_fit,
                                 robust_cov_white_cross_section, within_transform)

from conftest import _adf_search, _adf_t, firm_codes, panel_matrix, row_order_sum

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
    """Each firm's values less its row-order sum divided by its size, for X and y."""
    values, y_out = X.values.copy(), np.asarray(y, dtype=float).copy()
    for idx in _groups([f for f, _ in index]).values():
        values[idx] -= row_order_sum(values[idx]) / len(idx)
        y_out[idx] -= row_order_sum(y_out[idx]) / len(idx)
    return values, y_out


def loop_white_cross_section(X, residuals, xtx_inv, index):
    """Each period's score X_t' e_t as a row-order loop in calendar order, then the
    package's own meat and sandwich."""
    n, k = X.values.shape
    periods = _groups([year for _, year in index])
    scores = np.array([row_order_sum(X.values[i] * residuals[i] for i in periods[year])
                       for year in sorted(periods)])
    meat = np.add.reduce(scores[:, :, None] * scores[:, None, :], axis=0)
    cov = xtx_inv @ meat @ xtx_inv * (n / (n - k))
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
    xbar = np.vstack([row_order_sum(X.values[groups[f]]) / len(groups[f]) for f in ids])
    ybar = np.array([row_order_sum(y[groups[f]]) / len(groups[f]) for f in ids])
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
    for theta_i, f, xbar_i, ybar_i in zip(theta, ids, xbar, ybar):
        idx = groups[f]
        y_star[idx] -= theta_i * ybar_i
        v_star[idx] -= theta_i * np.concatenate([[1.0], xbar_i])
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


def lag0_adf_stat(y):
    """t statistic on the lagged level in the lag-0 ADF regression with a
    constant, from one QR of [1, y_{t-1}, dy_t]."""
    dy = np.diff(y)
    r = np.linalg.qr(np.column_stack([np.ones(len(dy)), y[:-1], dy]), mode="r")
    return _adf_t(r, len(dy) - 2)


# --- properties --------------------------------------------------------------------------

# magnitudes far apart, so that another order of the additions would round differently
VALUES = st.floats(-1e300, 1e300) | st.sampled_from([1e16, -1e16, 1.0, 0.1, 0.2, 0.3])


@PROPERTY
@given(data=st.data(), n_groups=st.integers(1, 6), shape=st.sampled_from([(), (1,), (3,)]))
def test_group_sums_equal_a_row_loop(data, n_groups, shape):
    """Unsorted, unbalanced codes, groups without rows, vectors and matrices, and no
    rows at all; row_sums' ragged rows are groups of adjacent items."""
    codes = np.array(data.draw(st.lists(st.integers(0, n_groups - 1), max_size=30)),
                     dtype=np.int64)
    values = np.array(data.draw(st.lists(VALUES, min_size=len(codes) * math.prod(shape),
                                         max_size=len(codes) * math.prod(shape))),
                      dtype=float).reshape((len(codes),) + shape)
    sums = _group_sums(codes, n_groups, values)
    assert sums.dtype == float and sums.shape == (n_groups,) + shape
    assert np.array_equal(sums, [row_order_sum(values[codes == g]) + np.zeros(shape)
                                 for g in range(n_groups)])

    counts = data.draw(st.lists(st.integers(0, 4), max_size=8))
    items = np.array(data.draw(st.lists(VALUES, min_size=sum(counts), max_size=sum(counts))),
                     dtype=float)
    offsets = np.cumsum([0, *counts])
    totals = row_sums(items, offsets)
    assert totals.dtype == float
    assert np.array_equal(totals, [row_order_sum(items[a:b]) for a, b in
                                   zip(offsets[:-1].tolist(), offsets[1:].tolist())])


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), n_firms=st.integers(1, 12),
       max_size=st.integers(1, 20), k=st.integers(1, 5))
def test_within_transform_equals_group_loop(seed, n_firms, max_size, k):
    X, y, index = _panel(seed, n_firms, max_size, k)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        Xw, yw = within_transform(X, y)
    assert caught == []   # one-row firms are warned of once per estimate, in models
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
    assert np.array_equal(robust_cov_white_cross_section(X, residuals, bread),
                          loop_white_cross_section(X, residuals, bread, index))


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), n_firms=st.integers(5, 12),
       max_size=st.integers(3, 10), k=st.integers(1, 3))
# two draws that failed while the reference took np.mean's firm means
@example(seed=14470, n_firms=12, max_size=10, k=1)
@example(seed=8745, n_firms=9, max_size=10, k=1)
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
    assert _adf_search(y, max_lags) == loop_aic_lag(y, max_lags)


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), n_series=st.integers(1, 40))
def test_batched_lag0_adf_equals_per_series_regressions(seed, n_series):
    rng = np.random.default_rng(seed)
    # the uncentred reference loses digits when a level dwarfs its steps, so
    # offsets stay within a few dozen steps
    series = [10.0 ** rng.uniform(-3, 3)
              * (np.cumsum(rng.normal(0, 1, int(rng.integers(8, 30)))) + rng.normal(0, 10))
              for _ in range(n_series)]
    # one block per series length, as the Fisher combination reads a panel
    lengths = np.array([len(s) for s in series])
    stat, usable = np.empty(n_series), np.empty(n_series, dtype=bool)
    for m in set(lengths.tolist()):
        which = np.flatnonzero(lengths == m)
        stat[which], usable[which] = _lag0_adf_stats(np.array([series[i] for i in which]))
    assert usable.all()
    reference = np.array([lag0_adf_stat(s) for s in series])
    np.testing.assert_allclose(stat, reference, rtol=1e-9, atol=1e-9)
