"""Tests for derived-variable construction."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marketpanel import variables
from marketpanel.errors import (NegativeNumerator, NonPositiveExpense, ZeroSales)
from marketpanel.panel_core import RiskFreeSeries, build_dataset
from marketpanel.variables import (abnormal_earnings, derive_all, marin, marin_alt_assets,
                                   marin_alt_log, ownership_concentration)

from conftest import make_panel, make_row, make_table, table_rows

finite = st.floats(allow_nan=False, allow_infinity=False)


class TestAbnormalEarnings:
    def test_normal_earnings_cancel(self):
        assert abnormal_earnings(0.10, 0.05, 2.0) == 0.0

    def test_direct_arithmetic(self):
        assert abnormal_earnings(0.20, 0.05, 2.0) == pytest.approx(0.10)

    @given(eps=st.floats(-1, 1), delta=st.floats(-0.5, 0.5))
    @settings(max_examples=50, deadline=None)
    def test_linear_in_eps(self, eps, delta):
        """X(eps + d) - X(eps) = d exactly."""
        base = abnormal_earnings(eps, 0.04, 1.7)
        shifted = abnormal_earnings(eps + delta, 0.04, 1.7)
        assert shifted - base == pytest.approx(delta, abs=1e-12)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            abnormal_earnings(0.1, -0.01, 1.0)
        with pytest.raises(ValueError):
            abnormal_earnings(0.1, 0.03, 0.0)


class TestMarin:
    def test_direct_ratio(self):
        assert marin(10.0, 2.0, 32.0) == pytest.approx(0.25)

    def test_zero_marketing_expense(self):
        assert marin(7.0, 7.0, 30.0) == 0.0

    def test_table_scale_value(self):
        # hand division: 5 / 11.563 = 0.43241...
        assert marin(5.0, 0.0, 11.563) == pytest.approx(5.0 / 11.563, rel=1e-15)
        assert round(marin(5.0, 0.0, 11.563), 4) == 0.4324

    def test_errors(self):
        with pytest.raises(ZeroSales):
            marin(10.0, 2.0, 0.0)
        with pytest.raises(NegativeNumerator):
            marin(2.0, 3.0, 10.0)

    @given(sga=st.floats(1, 100), rd_frac=st.floats(0, 1), sales=st.floats(0.1, 1000),
           k=st.floats(1e-6, 1e6))
    @settings(max_examples=80, deadline=None)
    def test_scale_invariance(self, sga, rd_frac, sales, k):
        """Rescaling all currency inputs leaves the ratio unchanged."""
        rd = sga * rd_frac
        base = marin(sga, rd, sales)
        scaled = marin(sga * k, rd * k, sales * k)
        assert scaled == pytest.approx(base, abs=1e-12, rel=1e-9)


class TestMarinAlternates:
    def test_assets_ratio(self):
        assert marin_alt_assets(10.0, 2.0, 80.0) == pytest.approx(0.10)
        assert marin_alt_assets(5.0, 5.0, 80.0) == 0.0

    def test_equals_marin_when_assets_equal_sales(self):
        assert marin_alt_assets(9.0, 1.5, 42.0) == marin(9.0, 1.5, 42.0)

    def test_log_level(self):
        assert marin_alt_log(3.0, 2.0) == 0.0
        assert marin_alt_log(math.e + 1.0, 1.0) == pytest.approx(1.0)
        with pytest.raises(NonPositiveExpense):
            marin_alt_log(2.0, 2.0)


class TestControlVariables:
    @staticmethod
    def _derived(**fields):
        rf = [RiskFreeSeries("M1", {2019: 0.03})]
        ds = build_dataset(make_table([make_row(year=2019, book_value_prev=1.0, **fields)]), rf)
        return derive_all(ds, {("F1", 2019): 1.0}).columns

    def test_age_minimum_scale(self):
        assert self._derived(establishment_year=2016)["Age"].tolist() == [3.0]

    def test_unit_assets_size(self):
        assert self._derived(total_assets=1.0, total_equity=0.5)["Size"].tolist() == [0.0]

    def test_all_equity_firm(self):
        assert self._derived(total_assets=70.0, total_equity=70.0)["Lev"].tolist() == [1.0]

    def test_logs_are_the_math_log(self):
        # numpy's vectorised log can miss the C library's by one ulp: put the
        # values where it does on this machine through, and a spread of others
        sample = np.random.default_rng(0).uniform(1.0, 1e6, 1_000_000)
        differ = sample[np.log(sample) != [math.log(v) for v in sample.tolist()]]
        assets = [1.5 * 10.0 ** k for k in range(-3, 12)] + differ[:40].tolist()
        rows = [make_row(year=2000 + i, total_assets=a, total_equity=0.1, sga=a,
                         rd=0.0, book_value_prev=1.0) for i, a in enumerate(assets)]
        rf = [RiskFreeSeries("M1", {2000 + i: 0.03 for i in range(len(assets))})]
        panel = derive_all(build_dataset(make_table(rows), rf),
                           {("F1", 2000 + i): 1.0 for i in range(len(assets))})
        logs = [math.log(a) for a in assets]
        assert panel.columns["Size"].tolist() == logs
        assert panel.columns["MarinLog"].tolist() == logs


def _concentration(stakes, threshold=variables.OWNERSHIP_THRESHOLD):
    """One row's ownership concentration."""
    (value,) = ownership_concentration(stakes, [0, len(stakes)], threshold)
    return value


class TestOwnershipConcentration:
    def test_threshold_rule(self):
        assert _concentration([0.30, 0.10, 0.04]) == pytest.approx(0.40)

    def test_empty(self):
        assert _concentration([]) == 0.0

    def test_single_dominant(self):
        assert _concentration([0.90]) == pytest.approx(0.90)

    @given(stakes=st.lists(st.floats(0.001, 0.3), max_size=6),
           extra=st.floats(0.05, 0.3))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_qualifying_stakes(self, stakes, extra):
        base = _concentration(stakes)
        assert _concentration(stakes + [extra]) > base

    @given(stakes=st.lists(st.floats(0.001, 0.3), max_size=6),
           extra=st.floats(0.001, 0.0499))
    @settings(max_examples=60, deadline=None)
    def test_sub_threshold_stake_ignored(self, stakes, extra):
        base = _concentration(stakes)
        assert _concentration(stakes + [extra]) == base

    @given(rows=st.lists(st.lists(st.floats(0.0, 1.0), max_size=7), max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_rows_equal_a_loop_over_each_row(self, rows):
        offsets = np.cumsum([0] + [len(r) for r in rows])
        got = ownership_concentration([s for r in rows for s in r], offsets)
        assert got.tolist() == [float(sum(s for s in r if s >= 0.05)) for r in rows]


class TestDeriveAll:
    def test_full_history_yields_all_rows(self):
        ds = make_panel(n_firms=4, n_years=5)
        panel = derive_all(ds, _betas(ds, 1.0))
        assert len(panel) == 20
        assert panel.exclusions == []

    def test_missing_lag_excluded(self):
        ds = make_panel(n_firms=2, n_years=3)
        rows = [{**r, "book_value_prev": None} for r in table_rows(ds.table)]
        ds2 = build_dataset(make_table(rows), list(ds.risk_free))
        panel = derive_all(ds2, _betas(ds2, 1.0))
        assert len(panel) == 4
        reasons = {(f, y): r for f, y, r in panel.exclusions}
        assert reasons[("F1", 2011)] == "missing lagged book value"

    def test_gap_year_has_no_lag(self):
        ds = make_panel(n_firms=1, n_years=4)
        rows = [r for r in table_rows(ds.table) if r["year"] != 2012]
        ds2 = build_dataset(make_table(rows), list(ds.risk_free))
        panel = derive_all(ds2, _betas(ds2, 1.0))
        assert panel.exclusions == [("F1", 2013, "missing lagged book value")]
        assert _keys(panel) == [("F1", 2011), ("F1", 2014)]

    def test_missing_beta_excluded(self):
        ds = make_panel(n_firms=2, n_years=3)
        betas = {k: 0.9 for k in _betas(ds, 0.9) if k[0] != "F2"}
        panel = derive_all(ds, betas)
        assert all(f == "F2" for f, _, _ in panel.exclusions)
        assert all(r == "insufficient return history" for _, _, r in panel.exclusions)
        assert panel.codes.firm_ids == ("F1",)

    def test_deterministic_under_permutation(self):
        ds = make_panel(n_firms=3, n_years=4, seed=5)
        betas = _betas(ds, 0.8)
        a = derive_all(ds, betas)
        import random
        rows = table_rows(ds.table)
        random.Random(9).shuffle(rows)
        b = derive_all(build_dataset(make_table(rows), list(ds.risk_free)), betas)
        assert _keys(a) == _keys(b)
        for name in variables.COLUMNS:
            assert np.array_equal(a.columns[name], b.columns[name], equal_nan=True), name

    def test_pb_ratio_identity(self):
        """pb_ratio * book_value reproduces price."""
        ds = make_panel(n_firms=5, n_years=4, seed=2)
        cols = derive_all(ds, _betas(ds, 1.1)).columns
        np.testing.assert_allclose(cols["P/B"] * cols["B"], cols["P"], atol=1e-10)

    def test_abnormal_earnings_use_market_rate(self):
        ds = make_panel(n_firms=1, n_years=2)
        panel = derive_all(ds, _betas(ds, 1.0))
        first, second = table_rows(ds.table)
        expected = second["eps"] - 0.03 * first["book_value"]
        assert panel.columns["X"][1] == pytest.approx(expected)

    def test_zero_marketing_flagged(self):
        rows = [make_row(year=2011, sga=5.0, rd=5.0, book_value_prev=1.0),
                make_row(year=2012)]
        ds = build_dataset(make_table(rows), [RiskFreeSeries("M1", {2011: 0.03, 2012: 0.03})])
        panel = derive_all(ds, _betas(ds, 1.0))
        assert panel.columns["Marin"][0] == 0.0
        assert np.isnan(panel.columns["MarinLog"][0])
        assert panel.notes == ["firm F1, year 2011: zero marketing expense"]


def _betas(ds, value):
    return {(r["firm_id"], r["year"]): value for r in table_rows(ds.table)}


def _keys(panel):
    codes = panel.codes
    return [(codes.firm_ids[f], int(codes.years[p]))
            for f, p in zip(codes.firm.tolist(), codes.period.tolist())]


class TestPanelColumns:
    def test_log_column_nan_for_zero_expense(self):
        rows = [make_row(year=2011, sga=5.0, rd=5.0, book_value_prev=1.0)]
        ds = build_dataset(make_table(rows), [RiskFreeSeries("M1", {2011: 0.03})])
        panel = derive_all(ds, {("F1", 2011): 1.0})
        cols = variables.panel_columns(panel, ["MarinLog", "Marin"])
        assert np.isnan(cols["MarinLog"][0])
        assert cols["Marin"][0] == 0.0

    def test_unknown_column(self):
        ds = make_panel(n_firms=2, n_years=2)
        with pytest.raises(KeyError, match="Halo"):
            variables.panel_columns(derive_all(ds, _betas(ds, 0.5)), ["P", "Halo"])

    def test_callers_cannot_change_the_panel(self):
        ds = make_panel(n_firms=2, n_years=3)
        panel = derive_all(ds, _betas(ds, 0.5))
        cols = variables.panel_columns(panel, ["P", "Age"])
        with pytest.raises(ValueError):
            cols["P"][0] = 99.0
        price = cols["P"][0]
        cols.clear()
        assert variables.panel_columns(panel, ["P"])["P"][0] == price
