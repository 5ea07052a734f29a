"""Tests for the estimation core: OLS, within estimator, RE GLS, robust covariance."""

import warnings

import numpy as np
import pytest

from marketpanel.errors import (NegativeVarianceComponentWarning, RankDeficient,
                                SingletonGroupWarning, TooFewClusters,
                                TooFewObservations)
from marketpanel.regress import (DesignMatrix, fe_fit, re_fit, robust_cov_white_cross_section,
                                 within_transform)

from conftest import (coefficient, normal_equations_oracle, ols_fit, panel_design, panel_matrix,
                      row_labels, std_error)


def random_system(n, k, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(0, 1, (n, k))
    beta = rng.normal(0, 2, k)
    y = 1.5 + x @ beta + rng.normal(0, 0.7, n)
    names = tuple(f"x{j+1}" for j in range(k))
    return DesignMatrix(x, names), y


def bread(X):
    """(X'X)^-1 of the design, the sandwich's outer factor."""
    return np.linalg.pinv(X.values.T @ X.values)


class TestOlsFit:
    def test_exact_fit(self):
        x = np.arange(1.0, 11.0).reshape(-1, 1)
        fit = ols_fit(DesignMatrix(x, ("x",)), 2.0 * x[:, 0])
        assert coefficient(fit, "x") == pytest.approx(2.0, abs=1e-12)
        assert coefficient(fit, "C") == pytest.approx(0.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0)
        assert np.max(np.abs(fit.residuals)) < 1e-10

    def test_constant_dependent(self):
        rng = np.random.default_rng(0)
        x = rng.normal(0, 1, (20, 1))
        fit = ols_fit(DesignMatrix(x, ("x",)), np.full(20, 3.25))
        assert coefficient(fit, "x") == pytest.approx(0.0, abs=1e-12)
        assert coefficient(fit, "C") == pytest.approx(3.25)

    def test_matches_normal_equations_oracle(self):
        """QR path agrees with the explicit normal-equations oracle."""
        for seed in range(20):
            rng = np.random.default_rng(seed)
            n, k = int(rng.integers(20, 120)), int(rng.integers(1, 6))
            X, y = random_system(n, k, seed + 1000)
            fit = ols_fit(X, y)
            oracle = normal_equations_oracle(X, y)
            np.testing.assert_allclose(fit.coefficients, oracle, rtol=1e-10,
                                       atol=1e-12)

    def test_residual_orthogonality(self):
        X, y = random_system(80, 4, 3)
        fit = ols_fit(X, y)
        values = np.column_stack([np.ones(80), X.values])
        assert np.max(np.abs(values.T @ fit.residuals)) <= 1e-8 * np.linalg.norm(y)

    def test_rescaling_invariance(self):
        """Coefficients transform exactly under column rescaling."""
        X, y = random_system(60, 3, 4)
        fit = ols_fit(X, y)
        scale = np.array([100.0, 0.01, 7.0])
        X2 = DesignMatrix(X.values * scale, X.column_names)
        fit2 = ols_fit(X2, y)
        np.testing.assert_allclose(fit2.coefficients[1:] * scale,
                                   fit.coefficients[1:], rtol=1e-10)

    def test_r_squared_monotone_in_regressors(self):
        rng = np.random.default_rng(5)
        x = rng.normal(0, 1, (50, 3))
        y = x[:, 0] + rng.normal(0, 1, 50)
        r2 = []
        for k in range(1, 4):
            fit = ols_fit(DesignMatrix(x[:, :k], tuple(f"x{j}" for j in range(k))), y)
            r2.append(fit.r_squared)
        assert r2[0] <= r2[1] + 1e-12 <= r2[2] + 2e-12

    def test_rank_deficient_names_columns(self):
        rng = np.random.default_rng(6)
        a = rng.normal(0, 1, 30)
        x = np.column_stack([a, 2.0 * a, rng.normal(0, 1, 30)])
        with pytest.raises(RankDeficient) as err:
            ols_fit(DesignMatrix(x, ("a", "a2", "b")), rng.normal(0, 1, 30))
        assert set(err.value.columns) & {"a", "a2"}

    def test_too_few_observations(self):
        X, y = random_system(4, 4, 7)
        with pytest.raises(TooFewObservations):
            ols_fit(X, y)

    def test_inference_consistency(self):
        X, y = random_system(90, 3, 8)
        fit = ols_fit(X, y)
        np.testing.assert_allclose(fit.std_errors,
                                   np.sqrt(np.diag(fit.covariance)), rtol=1e-12)
        mask = fit.std_errors > 0
        np.testing.assert_allclose(fit.t_stats[mask],
                                   fit.coefficients[mask] / fit.std_errors[mask],
                                   rtol=1e-12)
        assert np.all((fit.p_values >= 0) & (fit.p_values <= 1))
        eigvals = np.linalg.eigvalsh(fit.covariance)
        assert eigvals.min() >= -1e-10 * np.trace(fit.covariance)

    def test_no_intercept(self):
        x = np.arange(1.0, 9.0).reshape(-1, 1)
        fit = ols_fit(DesignMatrix(x, ("x",)), 3.0 * x[:, 0], intercept=False)
        assert fit.column_names == ("x",)
        assert coefficient(fit, "x") == pytest.approx(3.0)


class TestWithinTransform:
    def test_group_means_zero(self):
        X, y, _ = panel_design(n_firms=5, n_years=4, k=3, seed=1)
        Xw, yw = within_transform(X, y)
        labels = row_labels(Xw)
        for firm in {f for f, _ in labels}:
            idx = [i for i, (f, _) in enumerate(labels) if f == firm]
            assert np.max(np.abs(Xw.values[idx].mean(axis=0))) < 1e-12
            assert abs(yw[idx].mean()) < 1e-12

    def test_firm_constant_column_becomes_zero(self):
        X, y, _ = panel_design(n_firms=4, n_years=3, k=2, seed=2)
        const = np.repeat(np.arange(4.0), 3)
        X2 = DesignMatrix(np.column_stack([X.values, const]),
                          X.column_names + ("establishment",), X.codes)
        Xw, _ = within_transform(X2, y)
        establishment = Xw.values[:, Xw.column_names.index("establishment")]
        assert np.max(np.abs(establishment)) < 1e-12

    def test_identical_within_patterns(self):
        pattern = np.array([1.0, 2.0, 4.0])
        values = np.concatenate([pattern + 10.0, pattern - 3.0]).reshape(-1, 1)
        index = tuple(("A", 2000 + t) for t in range(3)) + tuple(
            ("B", 2000 + t) for t in range(3))
        X = panel_matrix(values, ("x",), index)
        Xw, _ = within_transform(X, np.zeros(6))
        np.testing.assert_allclose(Xw.values[:3], Xw.values[3:], atol=1e-12)

    def test_singleton_group_warning(self):
        values = np.arange(5.0).reshape(-1, 1)
        index = (("A", 2000), ("A", 2001), ("A", 2002), ("B", 2000), ("C", 2000))
        X = panel_matrix(values, ("x",), index)
        with pytest.warns(SingletonGroupWarning):
            within_transform(X, np.zeros(5))

    def test_codes_follow_the_row_labels(self):
        index = (("B", 2001), ("A", 2001), ("B", 2000), ("A", 2003))
        X = panel_matrix(np.arange(4.0).reshape(-1, 1), ("x",), index)
        assert X.codes.firm_ids == ("A", "B")
        assert X.codes.firm.tolist() == [1, 0, 1, 0]
        assert X.codes.years.tolist() == [2001, 2000, 2003]
        assert X.codes.period.tolist() == [0, 0, 1, 2]
        Xw, _ = within_transform(X, np.zeros(4))
        assert Xw.codes is X.codes
        with pytest.raises(ValueError):
            DesignMatrix(np.zeros((3, 1)), ("x",), X.codes)
        with pytest.raises(ValueError, match="requires panel codes"):
            within_transform(DesignMatrix(np.zeros((4, 1)), ("x",)), np.zeros(4))


class TestFeFit:
    def test_recovers_slope_within_three_se(self):
        """Known DGP slope lands within 3 classical SEs on a 20x10 panel."""
        hits = 0
        for seed in range(20):
            X, y, beta = panel_design(n_firms=20, n_years=10, k=1, seed=seed,
                                      beta=[0.5], effect_sd=2.0, noise_sd=1.0)
            fit = fe_fit(X, y)
            if abs(coefficient(fit, "x1") - 0.5) <= 3 * std_error(fit, "x1"):
                hits += 1
        assert hits >= 18

    def test_matches_lsdv_oracle(self):
        """Within slopes equal OLS with explicit firm dummies, coefficient by coefficient."""
        for seed in range(10):
            X, y, _ = panel_design(n_firms=6, n_years=5, k=3, seed=seed)
            fit = fe_fit(X, y)
            lsdv = _lsdv_fit(X, y)
            for name in X.column_names:
                assert coefficient(fit, name) == pytest.approx(lsdv[name], abs=1e-8)

    def test_per_firm_shift_invariance(self):
        X, y, _ = panel_design(n_firms=5, n_years=6, k=2, seed=3)
        fit = fe_fit(X, y)
        labels = row_labels(X)
        shifts = {f: 10.0 * (i + 1) for i, f in enumerate(sorted({f for f, _ in labels}))}
        y2 = y + np.array([shifts[f] for f, _ in labels])
        fit2 = fe_fit(X, y2)
        for name in X.column_names:
            assert coefficient(fit2, name) == pytest.approx(coefficient(fit, name),
                                                           abs=1e-10)

    def test_average_effect_intercept(self):
        X, y, _ = panel_design(n_firms=5, n_years=6, k=2, seed=4)
        fit = fe_fit(X, y)
        slopes = np.array([coefficient(fit, n) for n in X.column_names])
        expected = y.mean() - X.values.mean(axis=0) @ slopes
        assert coefficient(fit, "C") == pytest.approx(expected, abs=1e-12)

    def test_df_matches_lsdv(self):
        X, y, _ = panel_design(n_firms=7, n_years=4, k=2, seed=5)
        fit = fe_fit(X, y)
        n, k = X.values.shape
        assert fit.df_resid == n - k - 7

    def test_entity_effects_recoverable(self):
        X, y, _ = panel_design(n_firms=4, n_years=8, k=1, seed=6)
        fit = fe_fit(X, y)
        labels = row_labels(X)
        slopes = np.array([coefficient(fit, n) for n in X.column_names])
        # each firm's effect from the coefficients: its mean y less its mean x'b
        rows = {f: [i for i, (g, _) in enumerate(labels) if g == f] for f, _ in labels}
        effects = {f: y[i].mean() - X.values[i].mean(axis=0) @ slopes for f, i in rows.items()}
        assert set(effects) == {f for f, _ in labels}
        # reconstructed fitted values reproduce y up to the within residuals
        fitted = (X.values @ slopes
                  + np.array([effects[f] for f, _ in labels]))
        np.testing.assert_allclose(y - fitted, fit.residuals, atol=1e-10)

    def test_rank_deficient_after_within(self):
        X, y, _ = panel_design(n_firms=4, n_years=3, k=1, seed=7)
        const = np.repeat([1.0, 2.0, 3.0, 4.0], 3).reshape(-1, 1)
        X2 = DesignMatrix(np.column_stack([X.values, const]),
                          ("x1", "firm_level"), X.codes)
        with pytest.raises(RankDeficient) as err:
            fe_fit(X2, y)
        assert "firm_level" in err.value.columns


def _lsdv_fit(X, y):
    """Oracle: OLS with an intercept and G-1 firm dummies."""
    labels = row_labels(X)
    firms = sorted({f for f, _ in labels})
    dummies = np.column_stack([
        np.array([1.0 if f == firm else 0.0 for f, _ in labels])
        for firm in firms[1:]])
    values = np.column_stack([X.values, dummies])
    names = X.column_names + tuple(f"d_{f}" for f in firms[1:])
    fit = ols_fit(DesignMatrix(values, names), y)
    return {name: coefficient(fit, name) for name in X.column_names}


def re_slope(re, X, name):
    """(coefficient, standard error) of the design column ``name`` in a random-effects fit,
    whose coefficients are ``C`` then the design's columns."""
    j = 1 + X.column_names.index(name)
    return re.coefficients[j], float(np.sqrt(re.covariance[j, j]))


class TestReFit:
    def test_zero_effect_variance_reduces_to_pooled(self):
        X, y, _ = panel_design(n_firms=30, n_years=6, k=2, seed=0,
                               effect_sd=1e-8, noise_sd=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            re = re_fit(X, y)
        pooled = ols_fit(X, y)
        assert re.theta == pytest.approx(0.0, abs=0.25)
        for name in X.column_names:
            assert re_slope(re, X, name)[0] == pytest.approx(coefficient(pooled, name),
                                                             abs=0.05)

    def test_large_effect_variance_approaches_fe(self):
        X, y, _ = panel_design(n_firms=25, n_years=6, k=2, seed=1,
                               effect_sd=40.0, noise_sd=1.0)
        re = re_fit(X, y)
        fe = fe_fit(X, y)
        assert re.theta > 0.9
        for name in X.column_names:
            assert re_slope(re, X, name)[0] == pytest.approx(coefficient(fe, name),
                                                             abs=0.02)

    def test_monte_carlo_recovery(self):
        hits = 0
        for seed in range(20):
            X, y, beta = panel_design(n_firms=20, n_years=8, k=2, seed=seed,
                                      beta=[1.0, -0.5], effect_sd=1.0, noise_sd=1.0)
            re = re_fit(X, y)
            slopes = [re_slope(re, X, f"x{j+1}") for j in range(2)]
            ok = all(abs(coef - b) <= 3 * se for (coef, se), b in zip(slopes, beta))
            hits += ok
        assert hits >= 18

    def test_negative_component_clamped(self):
        # within noise dominates: between variance estimate goes negative
        X, y, _ = panel_design(n_firms=4, n_years=40, k=1, seed=2,
                               effect_sd=1e-10, noise_sd=5.0)
        with pytest.warns(NegativeVarianceComponentWarning):
            re = re_fit(X, y)
        assert re.theta == pytest.approx(0.0, abs=1e-9)


class TestWhiteCrossSection:
    def test_zero_residuals_zero_matrix(self):
        X, y, _ = panel_design(n_firms=4, n_years=5, k=2, seed=0)
        cov = robust_cov_white_cross_section(X, np.zeros(len(X.values)), bread(X))
        assert np.max(np.abs(cov)) == 0.0

    def test_symmetric_psd(self):
        X, y, _ = panel_design(n_firms=6, n_years=5, k=3, seed=1)
        rng = np.random.default_rng(2)
        cov = robust_cov_white_cross_section(X, rng.normal(0, 1, len(X.values)), bread(X))
        np.testing.assert_allclose(cov, cov.T, atol=1e-14)
        assert np.linalg.eigvalsh(cov).min() >= -1e-12 * np.trace(cov)

    def test_close_to_classical_under_homoskedasticity(self):
        """Robust and classical SEs agree on average for an iid DGP."""
        ratios = []
        for seed in range(100):
            X, y, _ = panel_design(n_firms=10, n_years=10, k=2, seed=seed,
                                   effect_sd=0.0, noise_sd=1.0)
            fit = ols_fit(X, y, intercept=False)
            robust = robust_cov_white_cross_section(X, fit.residuals, bread(X))
            ratios.append(np.sqrt(np.diag(robust))
                          / np.sqrt(np.diag(fit.covariance)))
        mean_ratio = np.mean(ratios)
        assert abs(mean_ratio - 1.0) < 0.25

    def test_too_few_periods(self):
        values = np.arange(6.0).reshape(-1, 1)
        index = tuple((f"F{i}", 2000) for i in range(6))
        X = panel_matrix(values, ("x",), index)
        with pytest.raises(TooFewClusters):
            robust_cov_white_cross_section(X, np.ones(6), bread(X))

    def test_fe_white_covariance_changes_inference(self):
        X, y, _ = panel_design(n_firms=8, n_years=6, k=2, seed=9)
        classical = fe_fit(X, y, cov_kind="classical")
        robust = fe_fit(X, y, cov_kind="white_cross_section")
        np.testing.assert_allclose(robust.coefficients, classical.coefficients,
                                   rtol=1e-12)
        assert robust.cov_kind == "white_cross_section"
        assert not np.allclose(robust.std_errors, classical.std_errors)
