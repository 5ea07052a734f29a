"""Tests for the synthetic generator and truth checking."""

import json
import warnings

import numpy as np
import pytest

from marketpanel import beta, ingest, models, synth, variables
from marketpanel.errors import InfeasibleTargets
from marketpanel.synth import DGPConfig, TruthRecord, generate_panel, truth_check

from conftest import beta_column, table_rows


@pytest.fixture(autouse=True)
def _quiet_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        yield


@pytest.fixture(scope="module")
def default_result():
    return generate_panel(DGPConfig(seed=0))


class TestGeneratePanel:
    def test_default_shape(self, default_result):
        ds = default_result.dataset
        assert len(ds.table.year) == 200
        assert len(ds.codes.firm_ids) == 20
        assert ds.codes.years.tolist() == list(range(2010, 2020))

    def test_marin_mean_near_target_across_seeds(self):
        for seed in range(5):
            result = generate_panel(DGPConfig(seed=seed))
            panel = variables.derive_all(result.dataset,
                                         beta_column(result.dataset, result.truth.betas_true))
            cols = variables.panel_columns(panel, ["Marin"])
            assert cols["Marin"].mean() == pytest.approx(0.2491, abs=0.03)

    def test_single_firm_infeasible(self):
        with pytest.raises(InfeasibleTargets, match="at least the 4 markets"):
            generate_panel(DGPConfig(seed=0, n_firms=1))

    def test_fewer_firms_than_markets_infeasible(self):
        # three firms of ten years each: enough firm-years, too few firms
        with pytest.raises(InfeasibleTargets, match="at least the 4 markets"):
            generate_panel(DGPConfig(seed=0, n_firms=3, n_years=10))

    def test_tiny_panel_infeasible(self):
        with pytest.raises(InfeasibleTargets):
            generate_panel(DGPConfig(seed=0, n_firms=4, n_years=5))

    @pytest.mark.parametrize("field, value, message", [
        ("risk_effect_scale", 0.0, "risk_effect_scale must be positive"),
        ("risk_effect_scale", -0.28, "risk_effect_scale must be positive"),
        ("risk_noise_scale", 0.0, "risk_noise_scale must be positive"),
        ("idio_vol", -1e-9, "idio_vol must be non-negative"),
    ])
    def test_out_of_range_scales_are_infeasible(self, field, value, message):
        with pytest.raises(InfeasibleTargets, match=message):
            DGPConfig(seed=0, **{field: value}).validate()

    def test_a_zero_idiosyncratic_volatility_is_feasible(self):
        DGPConfig(seed=0, idio_vol=0.0).validate()

    def test_lev_std_target_bounds_the_years(self):
        """From 161 years the walk alone exceeds the Lev std target; 160 generate."""
        with pytest.raises(InfeasibleTargets, match="Lev std target below"):
            generate_panel(DGPConfig(seed=0, n_firms=4, n_years=161))
        long = generate_panel(DGPConfig(seed=0, n_firms=4, n_years=160)).dataset
        assert len(long.table.year) == 640

    def test_lev_grid_stays_inside_its_bounds(self):
        """Every feasible length keeps Lev's firm grid inside the leverage bounds."""
        mean = synth.DEFAULT_MOMENT_TARGETS["Lev"][0]
        low, high = synth._LEV_BOUNDS
        halves = [synth._lev_half_width(n_years) for n_years in range(1, 161)]
        assert all(a > b for a, b in zip(halves, halves[1:]))
        for n_years, half in enumerate(halves, start=1):
            walk_sd = synth._LEV_WALK_SD * np.sqrt((n_years + 1) / 2.0)
            center = mean - synth._fold_mean_lift(mean, half, low, high, sd=walk_sd)
            assert low < center - half and center + half < high

    def test_dispersion_constants_carry_the_std_targets(self):
        """Marin's, X's and B's design scales reproduce their std targets exactly."""
        targets = synth.DEFAULT_MOMENT_TARGETS
        ar_var = synth._MARIN_AR_SD**2 / (1.0 - synth._MARIN_AR_RHO**2)
        assert np.sqrt(synth._MARIN_HALF_WIDTH**2 / 3.0 + ar_var) == pytest.approx(
            targets["Marin"][1], rel=1e-12)
        assert np.hypot(synth._X_BETWEEN_SD, synth._X_WITHIN_SD) == pytest.approx(
            targets["X"][1], rel=1e-12)
        # a mean-one lognormal with sigma s has coefficient of variation sqrt(e^(s^2) - 1)
        assert np.sqrt(np.expm1(synth._BOOK_SIGMA**2)) == pytest.approx(
            targets["B"][1] / targets["B"][0], rel=1e-12)

    def test_std_targets_honored(self):
        """The default panel's Marin, X, Lev and B stds sit near their targets."""
        result = generate_panel(DGPConfig(seed=4))
        panel = variables.derive_all(result.dataset,
                                     beta_column(result.dataset, result.truth.betas_true))
        cols = variables.panel_columns(panel, ["Marin", "X", "Lev", "B"])
        for name, target in (("Marin", 0.1565), ("X", 0.10), ("Lev", 0.18), ("B", 0.35)):
            assert float(np.std(cols[name], ddof=1)) == pytest.approx(target, rel=0.25)

    def test_same_seed_byte_identical(self):
        a = generate_panel(DGPConfig(seed=11))
        b = generate_panel(DGPConfig(seed=11))
        assert a.fundamentals_csv == b.fundamentals_csv
        assert a.prices_csv == b.prices_csv
        assert a.riskfree_csv == b.riskfree_csv
        assert a.truth.to_json() == b.truth.to_json()

    def test_different_seeds_differ(self):
        a = generate_panel(DGPConfig(seed=1))
        b = generate_panel(DGPConfig(seed=2))
        assert a.fundamentals_csv != b.fundamentals_csv

    def test_validated_through_build_dataset(self, default_result):
        """The returned dataset equals a fresh parse of the emitted CSVs."""
        table, rejections = ingest.parse_fundamentals(default_result.fundamentals_csv)
        assert rejections == ()
        rf = ingest.parse_riskfree(default_result.riskfree_csv)
        from marketpanel.panel_core import build_dataset
        rebuilt = build_dataset(table, rf)
        assert table_rows(rebuilt.table) == table_rows(default_result.dataset.table)
        assert ingest.fundamentals_to_csv(table) == default_result.fundamentals_csv

    def test_truth_record_round_trip(self, default_result):
        text = default_result.truth.to_json()
        loaded = TruthRecord.from_json(text)
        assert loaded.to_json() == text
        assert loaded.betas_true == default_result.truth.betas_true
        # a record without price_redraws, or with a key that is not a field, still loads
        data = json.loads(text)
        del data["price_redraws"]
        assert TruthRecord.from_json(json.dumps({**data, "extra": 1})).price_redraws == 0

    def test_abnormal_earnings_match_generator_target(self, default_result):
        """Derived X^a averages to the planted firm-level targets."""
        ds = default_result.dataset
        panel = variables.derive_all(ds, beta_column(ds, default_result.truth.betas_true))
        cols = variables.panel_columns(panel, ["X"])
        assert cols["X"].mean() == pytest.approx(0.1094, abs=0.03)


class TestBetaRecovery:
    def test_noiseless_recovery_matches_window_truth(self):
        result = generate_panel(DGPConfig(seed=5, idio_vol=1e-14))
        estimates = self._estimate(result)
        window = beta_column(result.dataset, result.truth.betas_window)
        assert estimates.tolist() == pytest.approx(window.tolist(), abs=1e-9)
        assert np.all(np.abs(estimates - beta_column(result.dataset, result.truth.betas_true))
                      <= 0.35)

    def test_noiseless_recovery_constant_betas(self):
        """With firm-constant planted betas the per-year recovery is exact."""
        risk = {"Marin": 0.0, "Age": 0.0, "Size": 0.0, "Lev": 0.0,
                "OW": 0.0, "OW*Marin": 0.0}
        result = generate_panel(DGPConfig(seed=6, idio_vol=1e-14,
                                          risk_coefficients=risk,
                                          risk_noise_scale=1e-12,
                                          risk_effect_scale=0.3373))
        estimates = self._estimate(result)
        assert np.all(np.abs(estimates - beta_column(result.dataset, result.truth.betas_true))
                      <= 0.15)

    def test_realistic_noise_within_band(self):
        result = generate_panel(DGPConfig(seed=5))
        estimates = self._estimate(result)
        errors = np.abs(estimates - beta_column(result.dataset, result.truth.betas_true))
        assert errors.max() <= 0.35

    def test_cross_firm_dispersion_near_target(self):
        result = generate_panel(DGPConfig(seed=5))
        values = self._estimate(result)
        assert values.std(ddof=1) == pytest.approx(0.3373, abs=0.08)

    def test_estimates_in_plausible_band(self):
        """Estimated betas stay inside the published sample's plausible band."""
        for seed in range(3):
            result = generate_panel(DGPConfig(seed=seed))
            values = self._estimate(result)
            assert 0.7 <= values.mean() <= 1.1
            assert values.min() >= -1.0
            assert values.max() <= 2.8

    @staticmethod
    def _estimate(result):
        """The betas of ``result``'s dataset, one per row; the synthetic firms reject none."""
        returns = beta.monthly_returns(ingest.parse_prices(result.prices_csv))
        ds = result.dataset
        estimates, exclusions = beta.all_betas(returns, ds.codes, ds.firm_markets())
        assert not exclusions
        return estimates


class TestTruthCheck:
    def test_well_specified_passes_most_seeds(self):
        passes = 0
        n_seeds = 15
        for seed in range(n_seeds):
            result = generate_panel(DGPConfig(seed=seed))
            panel = variables.derive_all(result.dataset,
                                         beta_column(result.dataset, result.truth.betas_true))
            report = models.estimate(panel, models.spec_for("value_moderated"))
            passes += all(c["passed"] for c in truth_check(result.truth.value_coefficients,
                                                            report.rows))
        assert passes >= int(0.8 * n_seeds)

    def test_planted_zero_effect_interval_covers_zero(self):
        coeffs = dict(synth.DEFAULT_VALUE_COEFFICIENTS)
        coeffs["Marin"] = 0.0
        covered = 0
        for seed in range(10):
            result = generate_panel(DGPConfig(seed=seed, value_coefficients=coeffs))
            panel = variables.derive_all(result.dataset,
                                         beta_column(result.dataset, result.truth.betas_true))
            report = models.estimate(panel, models.spec_for("value_moderated"))
            outcome = truth_check(result.truth.value_coefficients, report.rows)
            marin = next(c for c in outcome if c["variable"] == "Marin")
            covered += abs(marin["estimate"]) <= 3 * marin["std_error"]
        assert covered >= 8

    def test_omitted_moderator_biases_marin(self):
        """Dropping a strong OW interaction pushes the direct Marin slope
        outside the 3-SE band in most seeds."""
        coeffs = dict(synth.DEFAULT_VALUE_COEFFICIENTS)
        coeffs["OW*Marin"] = 4.0
        failures = 0
        n_seeds = 12
        for seed in range(n_seeds):
            result = generate_panel(DGPConfig(seed=seed, value_coefficients=coeffs))
            panel = variables.derive_all(result.dataset,
                                         beta_column(result.dataset, result.truth.betas_true))
            report = models.estimate(panel, models.spec_for("value_direct"))
            outcome = truth_check(result.truth.value_coefficients, report.rows)
            marin = next(c for c in outcome if c["variable"] == "Marin")
            failures += not marin["passed"]
        assert failures > n_seeds / 2

    def test_average_effect_fields(self, default_result):
        truth = default_result.truth
        e_ow = truth.expected_moments["OW"]
        assert truth.risk_average_marin_effect == pytest.approx(
            truth.risk_coefficients["Marin"]
            + truth.risk_coefficients["OW*Marin"] * e_ow)
