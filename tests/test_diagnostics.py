"""Tests for the diagnostic battery."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from marketpanel.diagnostics import (_harris_tzavalis, _lag0_adf_stats, _mackinnon_pvalues,
                                     correlation_matrix, descriptives, hausman_test,
                                     lr_heteroskedasticity, panel_stationarity)
from marketpanel.errors import ConstantSeries, TooFewGroups, TooShort
from marketpanel.regress import fe_fit, re_fit

from conftest import (adf_test, firm_codes, mackinnon_crit, mackinnon_pvalue, panel_design,
                      panel_matrix, stacked)


class TestAdf:
    def test_constant_series(self):
        with pytest.raises(ConstantSeries):
            adf_test(np.full(60, 1.0))

    def test_too_short(self):
        with pytest.raises(TooShort):
            adf_test(np.arange(10.0))

    def test_integer_trend_fits_exactly(self):
        """An exact trend fits its ADF regression exactly: its statistic would
        be rounding residue."""
        with pytest.raises(ConstantSeries):
            adf_test(3 + 2 * np.arange(100.0))

    @pytest.mark.parametrize("length", [28, 40, 100, 300, 3000])
    @pytest.mark.parametrize("kind", ["steps", "trend"])
    def test_exact_trends_fit_exactly(self, kind, length):
        """Integer steps, where every value is exact, and float trends, whose
        differences carry rounding, at lengths whose lag searches reach 8 to 28 lags."""
        for seed in range(4):
            rng = np.random.default_rng(seed)
            if kind == "steps":
                y = float(rng.integers(-50, 50)) + float(rng.integers(1, 5)) * np.arange(length)
            else:
                y = rng.uniform(-5, 5) + rng.uniform(0.1, 3) * np.arange(length)
            with pytest.raises(ConstantSeries):
                adf_test(y)

    def test_scale_invariance(self):
        """The t-ratio does not depend on the series scale."""
        rng = np.random.default_rng(0)
        y = np.cumsum(rng.normal(0, 1, 120))
        a = adf_test(y).statistic
        b = adf_test(1e6 * y).statistic
        assert b == pytest.approx(a, abs=1e-8)

    def test_white_noise_rejects(self):
        rng = np.random.default_rng(1)
        result = adf_test(rng.normal(0, 1, 200))
        assert result.decision == "reject"
        assert result.statistic < result.critical_values["1%"]

    def test_random_walk_fails_to_reject(self):
        rng = np.random.default_rng(7)
        result = adf_test(np.cumsum(rng.normal(0, 1, 200)))
        assert result.decision == "fail_to_reject"

    def test_critical_values_and_brackets(self):
        rng = np.random.default_rng(2)
        result = adf_test(rng.normal(0, 1, 150))
        cv = result.critical_values
        assert cv["1%"] < cv["5%"] < cv["10%"] < 0
        assert result.p_value is None
        assert "p-bracket=" in result.detail

    def test_mackinnon_surfaces_consistent(self):
        """p-value surface and critical-value surface agree at the quantiles."""
        big = 10_000
        crit = mackinnon_crit(big)
        assert mackinnon_pvalue(crit["1%"]) == pytest.approx(0.01, abs=0.002)
        assert mackinnon_pvalue(crit["5%"]) == pytest.approx(0.05, abs=0.003)
        assert mackinnon_pvalue(crit["10%"]) == pytest.approx(0.10, abs=0.004)

    def test_mackinnon_extremes(self):
        assert mackinnon_pvalue(-30.0) == 0.0
        assert mackinnon_pvalue(5.0) == 1.0

    def test_finite_sample_adjustment_direction(self):
        # finite-sample critical values are more negative than asymptotic
        assert mackinnon_crit(50)["5%"] < mackinnon_crit(100_000)["5%"]


class TestPanelStationarity:
    def test_stationary_variable_classified_i0(self):
        rng = np.random.default_rng(3)
        column, firm = stacked([rng.normal(0, 1, 10) for _ in range(20)])
        rows = panel_stationarity({"V": column}, firm_codes(firm))
        assert rows[0].variable == "V"
        assert rows[0].order == "I(0)"
        assert rows[0].difference is None
        assert rows[0].fisher is not None

    def test_random_walk_classified_i1(self):
        rng = np.random.default_rng(4)
        column, firm = stacked([np.cumsum(rng.normal(0, 1, 10)) + 100.0 * i
                                for i in range(20)])
        rows = panel_stationarity({"V": column}, firm_codes(firm))
        assert rows[0].order in ("I(1)", "I(2+)")
        assert rows[0].difference is not None

    def test_exact_per_firm_trends_are_skipped(self):
        """An exact trend (firm age) fits its lag-0 ADF regression exactly: no p-value."""
        trends = [np.arange(10.0) + 3.0 * i + 0.1 for i in range(20)]
        column, firm = stacked(trends)
        rows = panel_stationarity({"Age": column}, firm_codes(firm))
        assert rows[0].fisher is None

        rng = np.random.default_rng(6)
        noise = [rng.normal(0, 1, 10) for _ in range(12)]
        column, firm = stacked(noise + trends[:5])
        rows = panel_stationarity({"V": column}, firm_codes(firm))
        assert rows[0].fisher.detail.startswith("V: Fisher chi2(24) over 12 firms (5 skipped)")

    def test_fisher_skips_a_constant_lagged_level_and_an_exact_fit(self):
        """A firm whose lagged level is constant, and one on an exact trend, are
        skipped and counted. Both sit near 1e6, so their Sxx or RSS is a rounding
        residue far above 1e-24, but below the relative cut 1e-24 sum x^2."""
        rng = np.random.default_rng(6)
        noise = [rng.normal(0, 1, 10) for _ in range(12)]
        flat = np.array([1e6 + 0.1] * 9 + [5.0])
        trend = 1e6 * np.arange(10.0) + 0.1
        column, firm = stacked(noise)
        (alone,) = panel_stationarity({"V": column}, firm_codes(firm))
        column, firm = stacked(noise + [flat, trend])
        (row,) = panel_stationarity({"V": column}, firm_codes(firm))
        assert row.fisher.detail.startswith("V: Fisher chi2(24) over 12 firms (2 skipped)")
        assert row.fisher.statistic == alone.fisher.statistic

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        column, firm = stacked([rng.normal(0, 1, 10) for _ in range(10)])
        a = panel_stationarity({"V": column}, firm_codes(firm))
        b = panel_stationarity({"V": column}, firm_codes(firm))
        assert a[0].level.statistic == b[0].level.statistic
        assert a[0].fisher.statistic == b[0].fisher.statistic

    def test_fisher_statistic_takes_the_math_log(self):
        """numpy's vectorised log can miss the C library's by one ulp: put firms
        whose p-value is where it does on this machine through, one at a time,
        so that the statistic is -2 ln p of that firm's p."""
        rng = np.random.default_rng(7)
        column, firm = stacked([np.cumsum(rng.normal(0, 1, 10)) for _ in range(3000)])
        stat, usable = _lag0_adf_stats(column.reshape(3000, 10))
        p = np.clip(_mackinnon_pvalues(stat), 1e-6, 1 - 1e-6)
        differ = np.flatnonzero(usable & (np.log(p) != [math.log(v) for v in p.tolist()]))
        for g in [0, *differ[:10].tolist()]:
            (row,) = panel_stationarity({"V": column[10 * g:10 * g + 10]},
                                        firm_codes(firm[:10]))
            assert row.fisher.statistic == -2.0 * math.log(p[g])


def ar1_panels(rng, reps, n_firms, n_values, rho, mean_sd):
    """reps panels of AR(1) firm series around firm means drawn with sd mean_sd,
    started in their stationary law (a random walk from 0 at rho = 1):
    an array (reps, n_firms, n_values)."""
    shocks = rng.standard_normal((reps, n_firms, n_values))
    y = np.empty_like(shocks)
    y[..., 0] = shocks[..., 0] / math.sqrt(1.0 - rho * rho) if rho < 1.0 else 0.0
    for t in range(1, n_values):
        y[..., t] = rho * y[..., t - 1] + shocks[..., t]
    return y + rng.normal(0.0, mean_sd, (reps, n_firms, 1))


def ht_rejections(panels):
    return sum(_harris_tzavalis(p, len(p)).decision == "reject" for p in panels)


class TestHarrisTzavalis:
    def test_size_on_random_walks(self):
        """N = 500, T = 9: the 5% test rejects inside the binomial 99% band."""
        reps = 1000
        low, high = stats.binom.ppf([0.005, 0.995], reps, 0.05)
        rejections = ht_rejections(ar1_panels(np.random.default_rng(11), reps, 500, 10,
                                              1.0, 5.0))
        assert low <= rejections <= high, (rejections, low, high)

    def test_power_at_rho_one_half(self):
        """rho = 0.5 around spread-out firm means, N = 50, T = 9: it rejects
        in at least 198 of 200 panels."""
        panels = ar1_panels(np.random.default_rng(12), 200, 50, 10, 0.5, 5.0)
        assert ht_rejections(panels) >= 198

    def test_firm_means_do_not_hide_stationarity(self):
        """200 stationary 20 x 10 panels (rho = 0.5) with firm means of sd 5:
        Harris-Tzavalis rejects at least 190 times, and at least 40 times
        more often than the ADF of the pooled column, whose lags read
        across firms."""
        panels = ar1_panels(np.random.default_rng(13), 200, 20, 10, 0.5, 5.0)
        ht = ht_rejections(panels)
        pooled = sum(adf_test(p.ravel()).decision == "reject" for p in panels)
        assert ht >= 190 and ht - pooled >= 40, (ht, pooled)

    def test_exact_trend_is_degenerate(self):
        ages = [np.arange(10.0) + 2010 - start for start in range(1950, 2000, 2)]
        column, firm = stacked(ages)
        (row,) = panel_stationarity({"Age": column}, firm_codes(firm))
        assert (row.order, row.level, row.difference, row.fisher) == (
            "degenerate", None, None, None)
        with pytest.raises(ConstantSeries):
            _harris_tzavalis(np.array(ages), len(ages))

    @pytest.mark.parametrize("factor", [1.01, 0.99])
    def test_constant_lagged_level_cut_from_both_sides(self, factor):
        """Two firms at 1, one lagged value 1 + d: Sxx = 0.8 d^2 against the cut
        1e-24 sum x^2, sum x^2 about 10. At ``factor`` times the cut the test
        runs just above it and raises ConstantSeries just below."""
        d = math.sqrt(factor * 1e-23 / 0.8)
        block = np.array([[1.0, 1.0, 1.0, 1.0, 1.0 + d, 0.3],
                          [1.0, 1.0, 1.0, 1.0, 1.0, 2.7]])
        if factor > 1:
            assert math.isfinite(_harris_tzavalis(block, 2).statistic)
        else:
            with pytest.raises(ConstantSeries, match="lagged level"):
                _harris_tzavalis(block, 2)

    def test_balanced_subset_of_the_modal_length(self):
        rng = np.random.default_rng(14)
        series = [rng.normal(0, 1, 10) for _ in range(20)]
        series[7] = series[7][:6]
        column, firm = stacked(series)
        (row,) = panel_stationarity({"V": column}, firm_codes(firm))
        assert "N=19, T=9," in row.level.detail
        assert row.level.detail.endswith("; firms left out: 1")
        assert row.level.detail.startswith("lag 0, i.i.d. errors, N → ∞ with T fixed;")
        assert row.level.name == "harris_tzavalis"
        assert row.level.critical_values == pytest.approx(
            {"1%": stats.norm.ppf(0.01), "5%": stats.norm.ppf(0.05),
             "10%": stats.norm.ppf(0.10)}, rel=1e-15)
        assert row.level.p_value == pytest.approx(stats.norm.cdf(row.level.statistic),
                                                  rel=1e-13)
        # a tie between lengths takes the longer one
        column, firm = stacked([rng.normal(0, 1, n) for n in (5, 8, 5, 8, 5, 8, 3)])
        (row,) = panel_stationarity({"V": column}, firm_codes(firm))
        assert "N=3, T=7," in row.level.detail
        assert row.level.detail.endswith("; firms left out: 4")
        # one firm, or one regression period per firm, is too little
        for series in ([rng.normal(0, 1, 10)], [rng.normal(0, 1, 2) for _ in range(30)]):
            with pytest.raises(TooShort):
                _harris_tzavalis(np.array(series), len(series))
            column, firm = stacked(series)
            (row,) = panel_stationarity({"V": column}, firm_codes(firm))
            assert (row.order, row.level) == ("unavailable", None)

    @pytest.mark.parametrize("column", [np.full(20, np.nan), np.empty(0)])
    def test_no_values_is_unavailable(self, column):
        """An all-NaN column and an empty one leave no firm to test."""
        (row,) = panel_stationarity({"V": column}, firm_codes(np.arange(len(column)) // 10))
        assert (row.order, row.level, row.difference, row.fisher) == (
            "unavailable", None, None, None)


class TestHausman:
    def test_near_identical_fits_small_statistic(self):
        """When theta is close to 1 the RE and FE slopes coincide and H is tiny."""
        X, y, _ = panel_design(n_firms=25, n_years=6, k=2, seed=1,
                               effect_sd=40.0, noise_sd=1.0)
        fe, re = fe_fit(X, y), re_fit(X, y)
        result = hausman_test(fe, re)
        assert result.decision == "fail_to_reject"

    def test_size_calibration(self):
        """RE-consistent DGP rejects around the nominal 5% rate."""
        rejections = 0
        n_seeds = 200
        for seed in range(n_seeds):
            X, y, _ = panel_design(n_firms=30, n_years=6, k=2, seed=seed,
                                   effect_sd=1.0, noise_sd=1.0)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                result = hausman_test(fe_fit(X, y), re_fit(X, y))
            rejections += result.p_value < 0.05
        assert 0.01 <= rejections / n_seeds <= 0.12

    def test_power_against_correlated_effects(self):
        """Effects tied to firm-level regressor means are detected.

        The effect variance stays small so theta does not push RE into FE."""
        rejections = 0
        n_seeds = 100
        for seed in range(n_seeds):
            X, y, _ = panel_design(n_firms=50, n_years=4, k=2, seed=seed,
                                   effect_sd=0.1, noise_sd=1.0, effect_x_corr=0.8)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                result = hausman_test(fe_fit(X, y), re_fit(X, y))
            rejections += result.p_value < 0.05
        assert rejections / n_seeds >= 0.8

    def test_statistic_nonnegative_on_k_degrees_of_freedom(self):
        for seed in range(20):
            X, y, _ = panel_design(n_firms=12, n_years=5, k=3, seed=seed)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                result = hausman_test(fe_fit(X, y), re_fit(X, y))
            assert result.statistic >= 0
            assert result.detail.startswith("df=3, ")

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_extra=st.integers(3, 15), k=st.integers(1, 4),
           tilt=st.floats(0.0, 2.0))
    def test_statistic_is_the_mundlak_wald_on_unbalanced_panels(self, seed, n_extra, k, tilt):
        """On a random unbalanced panel, the covariance difference V is positive
        definite and H = d' V^-1 d equals Mundlak's augmented-regression Wald
        statistic W built with the same theta_g and sigma2_e.

        Both routes round. To first order, rounding in V moves H by its relative
        size times cond(V), taken as 1e-12 cond(V) W (4500 ulps of cond(V)); and
        rounding in d = b_FE - b_RE, up to 1e-13 of the slopes' size s, moves it
        by at most 2 sqrt(W h) + h, with h = 1e-26 |s|^2 / min eig(V)."""
        rng = np.random.default_rng(seed)
        g = k + n_extra
        sizes = rng.integers(2, 9, g)
        firm = np.repeat(np.arange(g), sizes)
        index = [(f"F{f:02d}", 2000 + t) for f, size in enumerate(sizes) for t in range(size)]
        x = (rng.normal(0, 1, (len(firm), k)) + rng.normal(0, 1, (g, k))[firm]) \
            * 10.0 ** rng.uniform(-1, 1, k)
        effects = rng.normal(0, 1, g) + tilt * np.bincount(firm, x[:, 0]) / sizes
        y = x @ rng.normal(0, 1, k) + effects[firm] + rng.normal(0, 1, len(firm))
        X = panel_matrix(x, tuple(f"x{j}" for j in range(k)), index)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fe, re = fe_fit(X, y), re_fit(X, y)
        v = fe.covariance[1:, 1:] - re.covariance[1:, 1:]
        smallest = np.linalg.eigvalsh(v).min()
        assert smallest > 0
        statistic = hausman_test(fe, re).statistic

        # Swamy-Arora components, the weights theta_g and the quasi-demeaned rows
        n = len(firm)
        xbar = np.column_stack([np.bincount(firm, c) for c in x.T]) / sizes[:, None]
        ybar = np.bincount(firm, y) / sizes
        xw, yw = x - xbar[firm], y - ybar[firm]
        resid_w = yw - xw @ np.linalg.lstsq(xw, yw, rcond=None)[0]
        sigma2_e = resid_w @ resid_w / (n - k - g)
        between = np.column_stack([np.ones(g), xbar])
        resid_b = ybar - between @ np.linalg.lstsq(between, ybar, rcond=None)[0]
        sigma2_u = max(resid_b @ resid_b / (g - k - 1) - sigma2_e * g / n, 0.0)
        theta = 1.0 - np.sqrt(sigma2_e / (sigma2_e + sizes * sigma2_u))
        assert theta.mean() == pytest.approx(re.theta, rel=1e-9, abs=1e-12)
        # y* = (1 - theta_g) c + x* b + (1 - theta_g) xbar_g gamma; Wald of gamma = 0
        z = np.column_stack([1.0 - theta, xbar * (1.0 - theta)[:, None]])[firm]
        z = np.column_stack([z[:, 0], x - (theta[:, None] * xbar)[firm], z[:, 1:]])
        q, r = np.linalg.qr(z)
        gamma = np.linalg.solve(r, q.T @ (y - (theta * ybar)[firm]))[k + 1:]
        r_inv = np.linalg.inv(r)
        v_gamma = sigma2_e * (r_inv @ r_inv.T)[k + 1:, k + 1:]
        wald = float(gamma @ np.linalg.solve(v_gamma, gamma))
        size = np.abs(fe.coefficients[1:]) + np.abs(re.coefficients[1:])
        h = 1e-26 * float(size @ size) / smallest
        assert abs(statistic - wald) <= 1e-12 * np.linalg.cond(v) * wald \
            + 2 * math.sqrt(wald * h) + h


class TestLrHeteroskedasticity:
    def test_identical_residuals_zero(self):
        residuals = np.tile([0.5, -0.5, 0.1, -0.1], 4)
        groups = np.repeat([f"F{i}" for i in range(4)], 4)
        result = lr_heteroskedasticity(residuals, firm_codes(groups))
        assert result.statistic == pytest.approx(0.0, abs=1e-12)
        assert result.decision == "fail_to_reject"

    def test_zero_residuals_give_zero(self):
        result = lr_heteroskedasticity(np.zeros(8), firm_codes(["A"] * 4 + ["B"] * 4))
        assert (result.statistic, result.p_value) == (0.0, 1.0)

    def test_a_firm_with_zero_residuals_gives_infinity(self):
        residuals = np.array([1.0, -0.5, 0.25, 2.0, 0.0, 0.0, 0.0, 0.0])
        result = lr_heteroskedasticity(residuals, firm_codes(["A"] * 4 + ["B"] * 4))
        assert (result.statistic, result.p_value) == (math.inf, 0.0)
        assert result.decision == "reject"

    def test_equal_group_variances_give_p_one(self):
        # each firm holds the same residuals in the same order, so the group
        # variances equal the pooled one and the statistic rounds below 0
        residuals = np.tile([0.3, -0.1, 0.7, 0.2], 5)
        groups = list(np.repeat([f"F{i}" for i in range(5)], 4))
        result = lr_heteroskedasticity(residuals, firm_codes(groups))
        assert -1e-12 < result.statistic < 0.0
        assert result.p_value == 1.0
        assert result.decision == "fail_to_reject"

    def test_variance_outlier_group(self):
        rng = np.random.default_rng(0)
        residuals = np.concatenate([rng.normal(0, 1, 30),
                                    rng.normal(0, 10, 30)])
        groups = ["A"] * 30 + ["B"] * 30
        result = lr_heteroskedasticity(residuals, firm_codes(groups))
        assert result.decision == "reject"
        assert result.p_value < 0.001

    def test_size_calibration(self):
        rejections = 0
        n_seeds = 300
        rng = np.random.default_rng(1)
        for _ in range(n_seeds):
            residuals = rng.normal(0, 1, 100)
            groups = firm_codes(np.repeat([f"F{i}" for i in range(10)], 10))
            rejections += lr_heteroskedasticity(residuals, groups).p_value < 0.05
        assert 0.01 <= rejections / n_seeds <= 0.10

    def test_statistic_takes_the_math_log(self):
        """numpy's vectorised log can miss the C library's by one ulp: put group
        variances where it does on this machine through, so the statistic
        equals n ln(pooled) less each firm's math.log term bit for bit."""
        x = np.random.default_rng(2).uniform(0.5, 3.0, 100_000)
        s2 = x * x / 4.0   # the variance of residuals [x, 0, 0, 0]
        differ = x[np.log(s2) != [math.log(v) for v in s2.tolist()]]
        codes = firm_codes(["A"] * 4 + ["B"] * 4)
        for v in [1.5, *differ[:10].tolist()]:
            residuals = np.array([v, 0.0, 0.0, 0.0, 2.0, 0.0, 0.0, 0.0])
            terms = [8 * math.log(float(residuals @ residuals) / 8),
                     4 * math.log(v * v / 4.0), 4 * math.log(1.0)]
            assert lr_heteroskedasticity(residuals, codes).statistic == \
                float(np.subtract.reduce(terms))

    def test_too_few_groups(self):
        with pytest.raises(TooFewGroups):
            lr_heteroskedasticity(np.ones(5), firm_codes(["A"] * 5))
        with pytest.raises(TooFewGroups):
            lr_heteroskedasticity(np.arange(5.0), firm_codes(["A", "A", "A", "B", "B"]))

    def test_groups_in_firm_code_order(self):
        residuals = np.array([1.0, -1.0, 2.0, 3.0, -3.0, 1.0, 0.5, -2.0, 1.5])
        labels = ["B", "A", "B", "A", "B", "A", "C", "C", "C"]
        result = lr_heteroskedasticity(residuals, firm_codes(labels))
        assert result.detail == "groups=3, df=2"
        # n ln(pooled) less each firm's term, firms A, B, C in code order
        terms = [9 * math.log(float(residuals @ residuals) / 9)]
        terms += [3 * math.log(float(e @ e) / 3)
                  for e in (residuals[[1, 3, 5]], residuals[[0, 2, 4]], residuals[6:])]
        assert result.statistic == pytest.approx(float(np.subtract.reduce(terms)),
                                                 rel=1e-12)
        with pytest.raises(TooFewGroups, match=r"\['B', 'C'\]"):
            lr_heteroskedasticity(residuals[:7], firm_codes(["C", "B", "A", "A", "A", "B", "C"]))


class TestDescriptives:
    def test_basic_moments(self):
        columns = {"v": np.array([1.0, 2.0, 3.0, 4.0])}
        row = descriptives(columns)[0]
        assert (row.n, row.minimum, row.maximum) == (4, 1.0, 4.0)
        assert row.mean == pytest.approx(2.5)
        assert row.std == pytest.approx(np.std([1, 2, 3, 4], ddof=1))

    def test_single_row_flagged(self):
        row = descriptives({"v": np.array([2.0])})[0]
        assert row.std is None
        assert row.flag == "single observation"

    def test_constant_column(self):
        row = descriptives({"v": np.full(6, 3.0)})[0]
        assert row.std == 0.0
        assert row.minimum == row.maximum == row.mean == 3.0

    def test_min_mean_max_ordering(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            row = descriptives({"v": rng.normal(0, 2, 50)})[0]
            assert row.minimum <= row.mean <= row.maximum

    def test_nan_dropped(self):
        row = descriptives({"v": np.array([1.0, np.nan, 3.0])})[0]
        assert row.n == 2
        # two observations have a sample standard deviation
        assert (row.std, row.flag) == (pytest.approx(math.sqrt(2.0)), "")


class TestCorrelationMatrix:
    def test_diagonal(self):
        rng = np.random.default_rng(0)
        c = correlation_matrix({"x": rng.normal(0, 1, 30)})
        assert c.r[0, 0] == 1.0
        assert c.p[0, 0] == 0.0

    def test_perfect_negative(self):
        x = np.arange(20.0)
        c = correlation_matrix({"x": x, "y": -x})
        assert c.r[0, 1] == pytest.approx(-1.0)
        assert c.p[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_brute_force_oracle(self):
        """Pearson r matches the direct covariance/stdev computation."""
        rng = np.random.default_rng(1)
        x, y = rng.normal(0, 1, 50), rng.normal(0, 1, 50)
        c = correlation_matrix({"x": x, "y": y})
        xc, yc = x - x.mean(), y - y.mean()
        oracle = float((xc @ yc) / math.sqrt((xc @ xc) * (yc @ yc)))
        assert c.r[0, 1] == pytest.approx(oracle, abs=1e-12)

    def test_p_value_from_t(self):
        from scipy import stats
        rng = np.random.default_rng(2)
        x = rng.normal(0, 1, 40)
        y = 0.4 * x + rng.normal(0, 1, 40)
        c = correlation_matrix({"x": x, "y": y})
        r = c.r[0, 1]
        t = r * math.sqrt(38 / (1 - r * r))
        assert c.p[0, 1] == pytest.approx(2 * stats.t.sf(abs(t), 38), rel=1e-10)

    def test_symmetry_and_bounds(self):
        rng = np.random.default_rng(3)
        columns = {f"v{i}": rng.normal(0, 1, 25) for i in range(4)}
        c = correlation_matrix(columns)
        np.testing.assert_allclose(c.r, c.r.T, atol=1e-14)
        finite = np.isfinite(c.r)
        assert np.all(np.abs(c.r[finite]) <= 1.0)

    def test_constant_variable_reported_absent(self):
        rng = np.random.default_rng(4)
        c = correlation_matrix({"x": rng.normal(0, 1, 20), "k": np.full(20, 2.0)})
        assert math.isnan(c.r[0, 1])
        assert math.isnan(c.p[0, 1])

    def test_pairwise_deletion_counts(self):
        x = np.array([1.0, 2.0, np.nan, 4.0, 5.0])
        y = np.array([2.0, np.nan, 3.0, 5.0, 6.0])
        c = correlation_matrix({"x": x, "y": y})
        assert c.n[0, 1] == 3
        assert math.isfinite(c.r[0, 1])
