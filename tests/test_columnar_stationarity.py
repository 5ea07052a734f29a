"""Property test: the unit-root battery on panel columns against per-firm lists.

``reference_panel_stationarity`` reads each variable as a list of per-firm
arrays, in year order with NaNs left out and firms without values left out,
and builds the Harris-Tzavalis sums firm by firm in a loop, and the Fisher
segment sums by concatenating those arrays. ``panel_stationarity(columns,
firm)`` must give the same rows: the Harris-Tzavalis statistics to a relative
1e-12, every other field bit for bit, and the Fisher p-value to 1e-13 of the
50-digit value.
"""

import dataclasses
import math
from collections import Counter

import numpy as np
import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from marketpanel import _kernels, diagnostics
from marketpanel.diagnostics import StationarityRow, _mackinnon_pvalues, panel_stationarity
from marketpanel.errors import ConstantSeries, TooShort

PROPERTY = settings(max_examples=80, deadline=None)


# --- per-firm list reference ------------------------------------------------------------

def reference_panel_stationarity(variable_panels):
    out = []
    for name, series_list in variable_panels.items():
        series_list = [np.asarray(s, dtype=float) for s in series_list]
        level = difference = None
        try:
            level = reference_harris_tzavalis(series_list)
            order = "I(0)"
        except ConstantSeries:
            order = "degenerate"
        except TooShort:
            order = "unavailable"
        if level is not None and level.decision != "reject":
            diffs = [np.diff(s) for s in series_list if len(s) >= 2]
            try:
                difference = reference_harris_tzavalis(diffs)
                order = "I(1)" if difference.decision == "reject" else "I(2+)"
            except (TooShort, ConstantSeries):
                order = "I(1?)"

        fisher = reference_fisher_combination(name, series_list)
        out.append(StationarityRow(variable=name, level=level, difference=difference,
                                   order=order, fisher=fisher))
    return out


def reference_harris_tzavalis(series_list):
    """Harris-Tzavalis from the firms of the modal length, one firm at a time."""
    counts = Counter(len(s) for s in series_list)
    top = max(counts.values(), default=0)
    length = max((size for size, count in counts.items() if count == top), default=0)
    chosen = [s for s in series_list if len(s) == length]
    n, t = len(chosen), length - 1
    if n < 2 or t < 2:
        raise TooShort("too few firms or periods")
    sxx = sxy = syy = xx = 0.0
    for s in chosen:
        x, y = s[:-1], s[1:]
        xc, yc = x - x.mean(), y - y.mean()
        sxx += xc @ xc
        sxy += xc @ yc
        syy += yc @ yc
        xx += x @ x
    if not sxx > 1e-24 * xx:
        raise ConstantSeries("constant lagged level")
    rho = sxy / sxx
    rss = 0.0
    for s in chosen:
        x, y = s[:-1], s[1:]
        resid = (y - y.mean()) - rho * (x - x.mean())
        rss += resid @ resid
    if not rss > 1e-24 * syy:
        raise ConstantSeries("exact fit")
    variance = 3.0 * (17 * t * t - 20 * t + 17) / (5.0 * (t - 1) * (t + 1) ** 3)
    z = math.sqrt(n) * (rho - 1.0 + 3.0 / (t + 1)) / math.sqrt(variance)
    return diagnostics.TestResult(
        name="harris_tzavalis", statistic=z, p_value=None,
        critical_values={level: _kernels._ndtri(q)
                         for level, q in (("1%", 0.01), ("5%", 0.05), ("10%", 0.10))},
        decision="reject" if z < _kernels._ndtri(0.05) else "fail_to_reject",
        detail=(f"lag 0, i.i.d. errors, N → ∞ with T fixed; N={n}, T={t}, "
                f"rho={rho:.6g}; firms left out: {len(series_list) - n}"))


def reference_lag0_adf_stats(series):
    n_obs = np.array([len(s) - 1 for s in series])
    codes = np.repeat(np.arange(len(series)), n_obs)
    x = np.concatenate([s[:-1] for s in series])
    d = np.concatenate([np.diff(s) for s in series])

    def sums(v):
        return np.bincount(codes, weights=v, minlength=len(series))

    xc = x - (sums(x) / n_obs)[codes]
    dc = d - (sums(d) / n_obs)[codes]
    sxx = sums(xc * xc)
    with np.errstate(divide="ignore", invalid="ignore"):
        beta = sums(xc * dc) / sxx
        resid = dc - beta[codes] * xc
        rss = sums(resid * resid)
        stat = beta / np.sqrt(rss / (n_obs - 2) / sxx)
    usable = (sxx > 1e-24 * sums(x * x)) & (rss > 1e-24 * sums(d * d))
    return stat, usable


def reference_fisher_combination(name, series_list):
    series = [np.asarray(s, dtype=float) for s in series_list]
    long_enough = [s for s in series if len(s) >= 8]
    skipped = len(series) - len(long_enough)
    if not long_enough:
        return None
    stat, usable = reference_lag0_adf_stats(long_enough)
    skipped += int(np.count_nonzero(~usable))
    pvalues = np.clip(_mackinnon_pvalues(stat[usable]), 1e-6, 1 - 1e-6)
    if len(pvalues) == 0:
        return None
    statistic = -2.0 * float(np.sum(np.log(pvalues)))
    df = 2 * len(pvalues)
    with mpmath.workdps(50):
        p = float(mpmath.gammainc(df / 2, statistic / 2, mpmath.inf, regularized=True))
    decision = "reject" if p < 0.05 else "fail_to_reject"
    detail = (f"{name}: Fisher chi2({df}) over {len(pvalues)} firms "
              f"({skipped} skipped), approximate small-sample p-values")
    return diagnostics.TestResult(name="adf_fisher", statistic=statistic, p_value=p,
                                  critical_values=None, decision=decision, detail=detail)


def firm_lists(column, firm):
    """The per-firm arrays the reference read: firms in row order, NaNs and empty firms out."""
    lists = {}
    for code, value in zip(firm.tolist(), column.tolist()):
        if not math.isnan(value):
            lists.setdefault(code, []).append(value)
    return [np.array(values) for values in lists.values()]


# --- panels -----------------------------------------------------------------------------

@st.composite
def unbalanced_panels(draw):
    """Columns of adjacent firm runs: NaN holes, one-row firms, firms under 8 values."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_firms = draw(st.integers(1, 60))
    sizes = rng.integers(1, draw(st.integers(2, 24)), n_firms)
    # firm codes need not ascend: only adjacency of a firm's rows is assumed
    firm = np.repeat(rng.permutation(n_firms), sizes)
    columns = {}
    for name in ("V", "W"):
        pieces = []
        for size in sizes:
            kind = rng.choice(("noise", "walk", "trend", "constant"), p=(0.4, 0.4, 0.1, 0.1))
            level = rng.normal(0, 10)
            if kind == "noise":
                pieces.append(level + rng.normal(0, 1, size))
            elif kind == "walk":
                pieces.append(level + np.cumsum(rng.normal(0, 1, size)))
            elif kind == "trend":
                pieces.append(level + np.arange(size, dtype=float))
            else:
                pieces.append(np.full(size, level))
        column = np.concatenate(pieces)
        column[rng.random(len(column)) < draw(st.sampled_from((0.0, 0.05, 0.3)))] = np.nan
        columns[name] = column
    return columns, firm


def same_test(got, want):
    """A Harris-Tzavalis result against the reference's: z to rounding, p as
    the normal cdf of z, and every other field bit for bit."""
    if got is None or want is None:
        assert got is want
        return
    # z is a difference of terms near one: its rounding is absolute near zero
    assert got.statistic == pytest.approx(want.statistic, rel=1e-12, abs=1e-12)
    assert got.p_value == float(_kernels._cephes_ndtr(got.statistic))
    assert dataclasses.replace(got, statistic=None, p_value=None) == dataclasses.replace(
        want, statistic=None, p_value=None)


def same_row(got, want):
    assert (got.variable, got.order) == (want.variable, want.order)
    same_test(got.level, want.level)
    same_test(got.difference, want.difference)
    if want.fisher is None:
        assert got.fisher is None
        return
    # the reference takes the Fisher p-value from mpmath
    assert dataclasses.replace(got.fisher, p_value=None) == dataclasses.replace(
        want.fisher, p_value=None)
    assert abs(got.fisher.p_value - want.fisher.p_value) <= 1e-13 * want.fisher.p_value, (
        got.fisher.p_value, want.fisher.p_value)


@PROPERTY
@given(unbalanced_panels())
def test_columns_equal_the_per_firm_lists(panel):
    columns, firm = panel
    rows = panel_stationarity(columns, firm)
    assert [r.variable for r in rows] == list(columns)
    for row, (name, column) in zip(rows, columns.items()):
        (want,) = reference_panel_stationarity({name: firm_lists(column, firm)})
        same_row(row, want)
