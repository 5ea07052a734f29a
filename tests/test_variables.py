"""Tests for derived-variable construction."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marketpanel import variables
from marketpanel.errors import (NegativeNumerator, NonPositiveExpense, ZeroSales)
from marketpanel.variables import (abnormal_earnings, control_variables, derive_all,
                                   marin, marin_alt_assets, marin_alt_log,
                                   ownership_concentration)

from conftest import make_observation, make_panel

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
    def test_age_minimum_scale(self):
        obs = make_observation(year=2019, establishment_year=2016)
        age, _, _ = control_variables(obs)
        assert age == 3.0

    def test_unit_assets_size(self):
        obs = make_observation(total_assets=1.0, total_equity=0.5)
        _, size, _ = control_variables(obs)
        assert size == 0.0

    def test_all_equity_firm(self):
        obs = make_observation(total_assets=70.0, total_equity=70.0)
        _, _, lev = control_variables(obs)
        assert lev == 1.0


class TestOwnershipConcentration:
    def test_threshold_rule(self):
        assert ownership_concentration([0.30, 0.10, 0.04]) == pytest.approx(0.40)

    def test_empty(self):
        assert ownership_concentration([]) == 0.0

    def test_single_dominant(self):
        assert ownership_concentration([0.90]) == pytest.approx(0.90)

    @given(stakes=st.lists(st.floats(0.001, 0.3), max_size=6),
           extra=st.floats(0.05, 0.3))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_qualifying_stakes(self, stakes, extra):
        base = ownership_concentration(stakes)
        assert ownership_concentration(stakes + [extra]) > base

    @given(stakes=st.lists(st.floats(0.001, 0.3), max_size=6),
           extra=st.floats(0.001, 0.0499))
    @settings(max_examples=60, deadline=None)
    def test_sub_threshold_stake_ignored(self, stakes, extra):
        base = ownership_concentration(stakes)
        assert ownership_concentration(stakes + [extra]) == base


class TestDeriveAll:
    def test_full_history_yields_all_rows(self):
        ds = make_panel(n_firms=4, n_years=5)
        betas = {k: 1.0 for k in ds.observations}
        panel = derive_all(ds, betas)
        assert len(panel) == 20
        assert panel.exclusions == []

    def test_missing_lag_excluded(self):
        ds = make_panel(n_firms=2, n_years=3)
        rows = [o.__class__(**{**o.__dict__, "book_value_prev": None})
                for o in ds.observations.values()]
        from marketpanel.panel_core import build_dataset
        ds2 = build_dataset(rows, list(ds.risk_free))
        betas = {k: 1.0 for k in ds2.observations}
        panel = derive_all(ds2, betas)
        assert len(panel) == 4
        reasons = {(f, y): r for f, y, r in panel.exclusions}
        assert reasons[("F1", 2011)] == "missing lagged book value"

    def test_missing_beta_excluded(self):
        ds = make_panel(n_firms=2, n_years=3)
        betas = {k: 0.9 for k in ds.observations if k[0] != "F2"}
        panel = derive_all(ds, betas)
        assert all(f == "F2" for f, _, _ in panel.exclusions)
        assert all(r == "insufficient return history" for _, _, r in panel.exclusions)

    def test_deterministic_under_permutation(self):
        ds = make_panel(n_firms=3, n_years=4, seed=5)
        betas = {k: 0.8 for k in ds.observations}
        a = derive_all(ds, betas)
        import random
        rows = list(ds.observations.values())
        random.Random(9).shuffle(rows)
        from marketpanel.panel_core import build_dataset
        b = derive_all(build_dataset(rows, list(ds.risk_free)), betas)
        assert a.rows == b.rows

    def test_pb_ratio_identity(self):
        """pb_ratio * book_value reproduces price."""
        ds = make_panel(n_firms=5, n_years=4, seed=2)
        panel = derive_all(ds, {k: 1.1 for k in ds.observations})
        for key, row in panel.rows.items():
            assert row.pb_ratio * row.book_value == pytest.approx(row.price, abs=1e-10)

    def test_abnormal_earnings_use_market_rate(self):
        ds = make_panel(n_firms=1, n_years=2)
        panel = derive_all(ds, {k: 1.0 for k in ds.observations})
        obs = ds.observations[("F1", 2012)]
        prev = ds.observations[("F1", 2011)]
        expected = obs.eps - 0.03 * prev.book_value
        assert panel.rows[("F1", 2012)].x_abnormal == pytest.approx(expected)

    def test_zero_marketing_flagged(self):
        obs1 = make_observation(year=2011, sga=5.0, rd=5.0, book_value_prev=1.0)
        obs2 = make_observation(year=2012)
        from marketpanel.panel_core import RiskFreeSeries, build_dataset
        ds = build_dataset([obs1, obs2],
                           [RiskFreeSeries("M1", {2011: 0.03, 2012: 0.03})])
        panel = derive_all(ds, {k: 1.0 for k in ds.observations})
        assert panel.rows[("F1", 2011)].marin == 0.0
        assert panel.rows[("F1", 2011)].marin_alt_log is None
        assert any("zero marketing expense" in n for n in panel.notes)


class TestPanelColumns:
    def test_log_column_nan_for_zero_expense(self):
        obs1 = make_observation(year=2011, sga=5.0, rd=5.0, book_value_prev=1.0)
        from marketpanel.panel_core import RiskFreeSeries, build_dataset
        ds = build_dataset([obs1], [RiskFreeSeries("M1", {2011: 0.03})])
        panel = derive_all(ds, {("F1", 2011): 1.0})
        _, cols = variables.panel_columns(panel, ["MarinLog", "Marin"])
        assert np.isnan(cols["MarinLog"][0])
        assert cols["Marin"][0] == 0.0

    def test_firm_series_year_order(self):
        ds = make_panel(n_firms=2, n_years=4)
        panel = derive_all(ds, {k: 0.5 for k in ds.observations})
        series = variables.firm_series(panel, "Age")
        assert set(series) == {"F1", "F2"}
        assert np.all(np.diff(series["F1"]) == 1.0)

    def test_columns_equal_a_per_row_read(self):
        obs = [make_observation(firm_id="Z9", year=2011, sga=5.0, rd=5.0,
                                book_value_prev=1.0),
               make_observation(firm_id="Z9", year=2012)]
        from marketpanel.panel_core import RiskFreeSeries, build_dataset
        ds = build_dataset(obs + list(make_panel(n_firms=3, n_years=4).observations.values()),
                           [RiskFreeSeries("M1", {y: 0.03 for y in range(2011, 2015)})])
        panel = derive_all(ds, {k: 0.7 + 0.01 * k[1] for k in ds.observations})
        keys, cols = variables.panel_columns(panel, list(variables.COLUMN_ATTRS))
        assert keys == sorted(panel.rows)
        for name, attr in variables.COLUMN_ATTRS.items():
            values = [getattr(panel.rows[k], attr) for k in keys]
            want = np.array([math.nan if v is None else float(v) for v in values])
            assert np.array_equal(cols[name], want, equal_nan=True), name
        for name in variables.COLUMN_ATTRS:
            series = variables.firm_series(panel, name)
            by_firm = {}
            for (firm, year), row in sorted(panel.rows.items()):
                value = getattr(row, variables.COLUMN_ATTRS[name])
                if value is not None:
                    by_firm.setdefault(firm, []).append(float(value))
            assert list(series) == sorted(by_firm)
            for firm, values in by_firm.items():
                assert np.array_equal(series[firm], np.array(values)), (name, firm)

    def test_callers_cannot_change_the_panel(self):
        ds = make_panel(n_firms=2, n_years=3)
        panel = derive_all(ds, {k: 0.5 for k in ds.observations})
        keys, cols = variables.panel_columns(panel, ["P", "Age"])
        with pytest.raises(ValueError):
            cols["P"][0] = 99.0
        keys.clear()
        cols.clear()
        again_keys, again = variables.panel_columns(panel, ["P"])
        assert again_keys == sorted(panel.rows)
        assert again["P"][0] == panel.rows[again_keys[0]].price
