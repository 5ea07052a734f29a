"""Property test: the unit-root battery on panel columns against the per-firm
list code it replaces.

``reference_panel_stationarity`` is the list-based battery the package ran
before it read columns: each variable came as a list of per-firm arrays, in
year order with NaNs left out and firms without values left out, and the
pooled series, first differences and Fisher segment sums were built by
concatenating those arrays. ``panel_stationarity(columns, firm)`` must give
the same rows, field by field and bit for bit.
"""

import dataclasses
import math

import numpy as np
import mpmath
from hypothesis import given, settings, strategies as st

from marketpanel import diagnostics
from marketpanel.diagnostics import (StationarityRow, _mackinnon_pvalues, adf_test,
                                     panel_stationarity)
from marketpanel.errors import ConstantSeries, MarketPanelError, TooShort

PROPERTY = settings(max_examples=80, deadline=None)


# --- per-firm list reference ------------------------------------------------------------

def reference_panel_stationarity(variable_panels):
    out = []
    for name, series_list in variable_panels.items():
        pooled = np.concatenate([np.asarray(s, dtype=float) for s in series_list])
        level = adf_test(pooled)

        difference = None
        order = "I(0)"
        if level.decision != "reject":
            diffs = [np.diff(np.asarray(s, dtype=float)) for s in series_list
                     if len(s) >= 2]
            pooled_diff = np.concatenate(diffs)
            try:
                difference = adf_test(pooled_diff)
                order = "I(1)" if difference.decision == "reject" else "I(2+)"
            except (TooShort, ConstantSeries):
                order = "I(1?)"

        fisher = reference_fisher_combination(name, series_list)
        out.append(StationarityRow(variable=name, level=level, difference=difference,
                                   order=order, fisher=fisher))
    return out


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


def bits(row):
    """A row's every field, floats by their exact repr, except the Fisher
    p-value, which the reference takes from mpmath: ``fisher_p`` holds it."""
    if row.fisher is not None:
        row = dataclasses.replace(row, fisher=dataclasses.replace(row.fisher, p_value=None))
    return repr(dataclasses.astuple(row))


def fisher_p(battery, *args):
    (row,) = battery(*args)
    return row.fisher.p_value if row.fisher is not None else None


def outcome(battery, *args):
    try:
        (row,) = battery(*args)
        return bits(row)
    except (MarketPanelError, ValueError) as exc:
        return type(exc)


@PROPERTY
@given(unbalanced_panels())
def test_columns_equal_the_per_firm_lists(panel):
    columns, firm = panel
    for name, column in columns.items():
        want = outcome(reference_panel_stationarity, {name: firm_lists(column, firm)})
        got = outcome(panel_stationarity, {name: column}, firm)
        if want is ValueError:
            # the reference concatenated nothing: a column without values is
            # too short, and one-value firms leave no first difference
            if np.isnan(column).all():
                assert got is TooShort
            else:
                (row,) = panel_stationarity({name: column}, firm)
                assert (row.order, row.difference) == ("I(1?)", None)
            continue
        assert got == want, name
        if isinstance(got, str):
            want_p = fisher_p(reference_panel_stationarity, {name: firm_lists(column, firm)})
            got_p = fisher_p(panel_stationarity, {name: column}, firm)
            assert (got_p is None and want_p is None) or abs(got_p - want_p) <= 1e-13 * want_p, (
                got_p, want_p)
    if all(isinstance(outcome(panel_stationarity, {n: c}, firm), str)
           for n, c in columns.items()):
        rows = panel_stationarity(columns, firm)
        assert [bits(r) for r in rows] == [
            outcome(panel_stationarity, {n: c}, firm) for n, c in columns.items()]
