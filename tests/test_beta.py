"""Tests for monthly returns and rolling-window beta estimation."""

from itertools import product

import numpy as np
import pytest

from marketpanel.beta import all_betas, monthly_returns
from marketpanel.errors import SchemaMismatch, UnknownMarket

from conftest import (InsufficientWindow, ZeroMarketVariance, beta_for_year, monthly_points,
                      panel_codes, price_table, return_panel)


def returned_months(returns, series_id):
    """(year, month) of each return the series has, in order."""
    row = returns.values[returns.series_index[series_id]]
    return [(int(m) // 12, int(m) % 12 + 1) for m in returns.months[~np.isnan(row)]]


def beta_of(firm_points, market_points, year=2014, **kwargs):
    panel = return_panel({"F": firm_points, "M": market_points})
    return beta_for_year(panel, "F", "M", year, **kwargs)


class TestMonthlyReturns:
    def test_single_return(self):
        rs = monthly_returns(price_table({"F1": [(2015, 1, 100.0), (2015, 2, 110.0)]}))
        assert returned_months(rs, "F1") == [(2015, 2)]
        assert rs.values.tolist() == [[pytest.approx(0.10)]]

    def test_constant_prices_zero_returns(self):
        rs = monthly_returns(price_table({"F1": [(2015, m, 50.0) for m in range(1, 13)]}))
        assert np.all(rs.values == 0.0)
        assert len(returned_months(rs, "F1")) == 11

    def test_gap_breaks_chain(self):
        pts = [(2015, 1, 100.0), (2015, 2, 110.0), (2015, 4, 121.0), (2015, 5, 133.1)]
        rs = monthly_returns(price_table({"F1": pts}))
        assert returned_months(rs, "F1") == [(2015, 2), (2015, 5)]

    def test_year_boundary_is_consecutive(self):
        rs = monthly_returns(price_table({"F1": [(2015, 12, 100.0), (2016, 1, 105.0)]}))
        assert returned_months(rs, "F1") == [(2016, 1)]

    def test_series_boundary_breaks_chain(self):
        rs = monthly_returns(price_table({"A": [(2015, 1, 100.0), (2015, 2, 110.0)],
                                          "B": [(2015, 3, 50.0), (2015, 4, 55.0)]}))
        assert returned_months(rs, "A") == [(2015, 2)]
        assert returned_months(rs, "B") == [(2015, 4)]

    def test_overflowing_close_ratio_is_a_data_error(self):
        """1 -> 1e-300 is a -100% return; 1e-300 -> 1e300 overflows and names its month."""
        prices = price_table({"F1": [(2015, 1, 100.0), (2015, 2, 110.0)],
                              "M1": [(2015, 1, 1.0), (2015, 2, 1e-300), (2015, 3, 1e300)]})
        with pytest.raises(SchemaMismatch, match=r"M1 in 2015-03 is not finite"):
            monthly_returns(prices)

    def test_too_short(self):
        """A single close has no return series: the firm has no window, so it gets
        neither a beta nor an exclusion."""
        rs = monthly_returns(price_table({"F1": [(2015, 1, 100.0)],
                                          "M1": [(2015, 1, 50.0), (2015, 2, 51.0)]}))
        assert rs.series_ids == ("M1",)
        assert all_betas(rs, panel_codes([("F1", 2015)]), {"F1": "M1"}) == ({}, [])


class TestBetaForYear:
    def test_market_on_itself_is_one(self):
        rng = np.random.default_rng(0)
        market = return_panel({"M": monthly_points(2010, 1, rng.normal(0.01, 0.05, 60))})
        est = beta_for_year(market, "M", "M", 2014)
        assert est.beta == pytest.approx(1.0, abs=1e-12)
        assert est.n_months == 60
        assert est.window_start == (2010, 1)

    def test_constant_firm_returns_zero_beta(self):
        rng = np.random.default_rng(1)
        market = monthly_points(2010, 1, rng.normal(0.01, 0.05, 60))
        firm = monthly_points(2010, 1, np.full(60, 0.02))
        assert beta_of(firm, market).beta == pytest.approx(0.0, abs=1e-12)

    def test_exact_linear_relation(self):
        """Firm = 2 * market + constant gives slope 2, intercept absorbing the shift."""
        rng = np.random.default_rng(2)
        m = rng.normal(0.008, 0.05, 60)
        market = monthly_points(2010, 1, m)
        firm = monthly_points(2010, 1, 2.0 * m + 0.001)
        assert beta_of(firm, market).beta == pytest.approx(2.0, abs=1e-10)

    def test_intercept_shift_invariance(self):
        rng = np.random.default_rng(3)
        m = rng.normal(0.01, 0.04, 60)
        f = 0.7 * m + rng.normal(0, 0.02, 60)
        market = monthly_points(2010, 1, m)
        base = beta_of(monthly_points(2010, 1, f), market).beta
        shifted = beta_of(monthly_points(2010, 1, f + 0.005), market).beta
        assert shifted == pytest.approx(base, abs=1e-12)

    def test_scaling_linearity(self):
        rng = np.random.default_rng(4)
        m = rng.normal(0.01, 0.04, 60)
        f = 0.9 * m + rng.normal(0, 0.02, 60)
        market = monthly_points(2010, 1, m)
        base = beta_of(monthly_points(2010, 1, f), market).beta
        scaled = beta_of(monthly_points(2010, 1, 3.5 * f), market).beta
        assert scaled == pytest.approx(3.5 * base, rel=1e-10)

    def test_minimum_window_enforced(self):
        """47 paired months raise InsufficientWindow; 48 pass."""
        rng = np.random.default_rng(5)
        m47 = rng.normal(0.01, 0.05, 47)
        market = monthly_points(2011, 2, m47)
        firm = monthly_points(2011, 2, m47 * 1.2)
        with pytest.raises(InsufficientWindow):
            beta_of(firm, market)
        m48 = rng.normal(0.01, 0.05, 48)
        market = monthly_points(2011, 1, m48)
        firm = monthly_points(2011, 1, m48 * 1.2)
        est = beta_of(firm, market)
        assert est.n_months == 48

    def test_pairing_drops_one_sided_months(self):
        rng = np.random.default_rng(6)
        m = rng.normal(0.01, 0.05, 60)
        market = monthly_points(2010, 1, m)
        firm = [p for p in monthly_points(2010, 1, 1.1 * m) if p[:2] != (2012, 6)]
        est = beta_of(firm, market)
        assert est.n_months == 59

    def test_zero_market_variance(self):
        market = monthly_points(2010, 1, np.full(60, 0.01))
        firm = monthly_points(2010, 1, np.full(60, 0.02))
        with pytest.raises(ZeroMarketVariance):
            beta_of(firm, market)

    def test_market_variance_of_rounding_residue_only(self):
        """Returns of 150 and the next double above it: the market's variance, about
        1e-26, is rounding residue. The cut is relative, 1e-24 of the sum of squares
        (about 1e6), so the market counts as constant."""
        market = monthly_points(2010, 1, np.tile([150.0, np.nextafter(150.0, 200.0)], 30))
        firm = monthly_points(2010, 1, np.random.default_rng(1).normal(0, 0.05, 60))
        with pytest.raises(ZeroMarketVariance):
            beta_of(firm, market)
        returns = return_panel({"F": firm, "M": market})
        assert all_betas(returns, panel_codes([("F", 2014)]), {"F": "M"}) == (
            {}, [("F", 2014, "insufficient return history")])


def grid(firms, years):
    """The codes of every (firm, year) of ``firms`` x ``years``."""
    return panel_codes(list(product(firms, years)))


class TestAllBetas:
    def _fixture(self, n_months=120, n_firms=3, seed=0):
        rng = np.random.default_rng(seed)
        m = rng.normal(0.008, 0.05, n_months)
        points = {"M1": monthly_points(2010, 1, m)}
        for i in range(n_firms):
            points[f"F{i+1}"] = monthly_points(
                2010, 1, (0.5 + 0.5 * i) * m + rng.normal(0, 0.02, n_months))
        return return_panel(points), [f"F{i+1}" for i in range(n_firms)]

    def test_years_with_enough_history(self):
        returns, firms = self._fixture()
        firm_market = {f: "M1" for f in firms}
        betas, exclusions = all_betas(returns, grid(firms, range(2010, 2020)), firm_market)
        years_with = {y for _, y in betas}
        # 48 paired months first available in the window ending Dec 2013
        assert min(years_with) == 2013
        assert max(years_with) == 2019
        excluded_years = {y for _, y, _ in exclusions}
        assert excluded_years == {2010, 2011, 2012}

    def test_recent_listing_has_no_beta(self):
        rng = np.random.default_rng(1)
        m = rng.normal(0.008, 0.05, 36)
        returns = return_panel({"M1": monthly_points(2017, 1, m),
                                "F1": monthly_points(2017, 1, m)})
        betas, exclusions = all_betas(returns, grid(["F1"], range(2017, 2020)), {"F1": "M1"})
        assert betas == {}
        assert all(r == "insufficient return history" for _, _, r in exclusions)

    def test_deterministic_under_permutation(self):
        returns, firms = self._fixture(seed=7)
        firm_market = {f: "M1" for f in firms}
        index = list(product(firms, range(2013, 2020)))
        a, _ = all_betas(returns, panel_codes(index), firm_market)
        b, _ = all_betas(returns, panel_codes(index[::-1]), firm_market)
        assert a == b

    def test_unknown_market(self):
        returns, firms = self._fixture()
        with pytest.raises(UnknownMarket):
            all_betas(returns, grid(firms, [2014]), {f: "M9" for f in firms})
        with pytest.raises(UnknownMarket):
            all_betas(returns, grid(firms, [2014]), {})

    def test_only_the_panels_firm_years(self):
        """A late listing is estimated and excluded in its own years only, and a
        firm without a return series needs no market."""
        returns, _ = self._fixture()
        index = [("F1", year) for year in range(2012, 2020)] + [("F2", 2019), ("F9", 2015)]
        betas, exclusions = all_betas(returns, panel_codes(index), {"F1": "M1", "F2": "M1"})
        assert list(betas) == [("F1", year) for year in range(2013, 2020)] + [("F2", 2019)]
        assert exclusions == [("F1", 2012, "insufficient return history")]
