"""Tests for the synthetic generator and truth checking."""

import dataclasses
import warnings

import numpy as np
import pytest

from marketpanel import beta, ingest, models, synth, variables
from marketpanel.errors import InfeasibleTargets, ModelMismatch
from marketpanel.synth import DGPConfig, TruthRecord, generate_panel, truth_check

from conftest import table_rows


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
        assert len(ds) == 200
        assert len(ds.firms) == 20
        assert ds.years == tuple(range(2010, 2020))

    def test_marin_mean_near_target_across_seeds(self):
        for seed in range(5):
            result = generate_panel(DGPConfig(seed=seed))
            panel = variables.derive_all(result.dataset, result.truth.betas_true)
            cols = variables.panel_columns(panel, ["Marin"])
            assert cols["Marin"].mean() == pytest.approx(0.2491, abs=0.03)

    def test_single_firm_infeasible(self):
        with pytest.raises(InfeasibleTargets):
            generate_panel(DGPConfig(seed=0, n_firms=1))

    def test_tiny_panel_infeasible(self):
        with pytest.raises(InfeasibleTargets):
            generate_panel(DGPConfig(seed=0, n_firms=4, n_years=5))

    def test_infeasible_ownership_target(self):
        with pytest.raises(InfeasibleTargets):
            generate_panel(DGPConfig(seed=0, moment_targets={"OW": 0.95}))

    def test_std_targets_honored(self):
        """(mean, std) targets steer the sample dispersion of Marin and X."""
        wide = DGPConfig(seed=4, moment_targets={"Marin": (0.2491, 0.155),
                                                 "X": (0.1094, 0.18)})
        narrow = DGPConfig(seed=4, moment_targets={"Marin": (0.2491, 0.09),
                                                   "X": (0.1094, 0.08)})
        stds = {}
        for name, cfg in (("wide", wide), ("narrow", narrow)):
            result = generate_panel(cfg)
            panel = variables.derive_all(result.dataset, result.truth.betas_true)
            cols = variables.panel_columns(panel, ["Marin", "X"])
            stds[name] = (float(np.std(cols["Marin"], ddof=1)),
                          float(np.std(cols["X"], ddof=1)))
        assert stds["wide"][0] > stds["narrow"][0] * 1.4
        assert stds["wide"][1] > stds["narrow"][1] * 1.5
        assert stds["wide"][0] == pytest.approx(0.155, rel=0.25)
        assert stds["narrow"][1] == pytest.approx(0.08, rel=0.25)

    def test_infeasible_std_targets(self):
        # dispersion below the within-firm variation cannot be produced
        with pytest.raises(InfeasibleTargets):
            generate_panel(DGPConfig(seed=0, moment_targets={"Marin": (0.2491, 0.05)}))
        # spread wide enough to cross zero marketing expense
        with pytest.raises(InfeasibleTargets):
            generate_panel(DGPConfig(seed=0, moment_targets={"Marin": (0.10, 0.25)}))
        # book-value spread implying broken positive-price support
        with pytest.raises(InfeasibleTargets):
            generate_panel(DGPConfig(seed=0, moment_targets={"B": (1.2874, 1.6355)}))

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
        table, report = ingest.parse_fundamentals(default_result.fundamentals_csv)
        assert report.rows_rejected == 0
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

    def test_abnormal_earnings_match_generator_target(self, default_result):
        """Derived X^a averages to the planted firm-level targets."""
        panel = variables.derive_all(default_result.dataset,
                                     default_result.truth.betas_true)
        cols = variables.panel_columns(panel, ["X"])
        assert cols["X"].mean() == pytest.approx(0.1094, abs=0.03)


class TestBetaRecovery:
    def test_noiseless_recovery_matches_window_truth(self):
        result = generate_panel(DGPConfig(seed=5, idio_vol=1e-14))
        estimates = self._estimate(result)
        for key, est in estimates.items():
            assert est == pytest.approx(result.truth.betas_window[key], abs=1e-9)
            assert abs(est - result.truth.betas_true[key]) <= 0.35

    def test_noiseless_recovery_constant_betas(self):
        """With firm-constant planted betas the per-year recovery is exact."""
        risk = {"Marin": 0.0, "Age": 0.0, "Size": 0.0, "Lev": 0.0,
                "OW": 0.0, "OW*Marin": 0.0}
        result = generate_panel(DGPConfig(seed=6, idio_vol=1e-14,
                                          risk_coefficients=risk,
                                          risk_noise_scale=1e-12,
                                          risk_effect_scale=0.3373))
        estimates = self._estimate(result)
        for key, est in estimates.items():
            assert abs(est - result.truth.betas_true[key]) <= 0.15

    def test_realistic_noise_within_band(self):
        result = generate_panel(DGPConfig(seed=5))
        estimates = self._estimate(result)
        errors = [abs(est - result.truth.betas_true[key])
                  for key, est in estimates.items()]
        assert max(errors) <= 0.35

    def test_cross_firm_dispersion_near_target(self):
        result = generate_panel(DGPConfig(seed=5))
        estimates = self._estimate(result)
        values = np.array(list(estimates.values()))
        assert values.std(ddof=1) == pytest.approx(0.3373, abs=0.08)

    def test_estimates_in_plausible_band(self):
        """Estimated betas stay inside the published sample's plausible band."""
        for seed in range(3):
            result = generate_panel(DGPConfig(seed=seed))
            estimates = self._estimate(result)
            values = np.array(list(estimates.values()))
            assert 0.7 <= values.mean() <= 1.1
            assert values.min() >= -1.0
            assert values.max() <= 2.8

    @staticmethod
    def _estimate(result):
        returns = beta.monthly_returns(ingest.parse_prices(result.prices_csv))
        ds = result.dataset
        firm_market = ds.firm_markets()
        estimates, exclusions = beta.all_betas(returns, ds.firms, ds.years, firm_market)
        assert not exclusions
        return estimates


class TestTruthCheck:
    def test_well_specified_passes_most_seeds(self):
        passes = 0
        n_seeds = 15
        for seed in range(n_seeds):
            result = generate_panel(DGPConfig(seed=seed))
            panel = variables.derive_all(result.dataset, result.truth.betas_true)
            report = models.estimate(panel, models.spec_for("value_moderated"))
            passes += truth_check(report, result.truth).passed
        assert passes >= int(0.8 * n_seeds)

    def test_planted_zero_effect_interval_covers_zero(self):
        coeffs = dict(synth.DEFAULT_VALUE_COEFFICIENTS)
        coeffs["Marin"] = 0.0
        covered = 0
        for seed in range(10):
            result = generate_panel(DGPConfig(seed=seed, value_coefficients=coeffs))
            panel = variables.derive_all(result.dataset, result.truth.betas_true)
            report = models.estimate(panel, models.spec_for("value_moderated"))
            outcome = truth_check(report, result.truth)
            marin = next(c for c in outcome.checks if c.variable == "Marin")
            covered += abs(marin.estimate) <= 3 * marin.std_error
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
            panel = variables.derive_all(result.dataset, result.truth.betas_true)
            report = models.estimate(panel, models.spec_for("value_direct"))
            outcome = truth_check(report, result.truth)
            marin = next(c for c in outcome.checks if c.variable == "Marin")
            failures += not marin.passed
        assert failures > n_seeds / 2

    def test_model_mismatch_cases(self, default_result):
        panel = variables.derive_all(default_result.dataset,
                                     default_result.truth.betas_true)
        report = models.estimate(panel, models.spec_for("value_moderated",
                                                        marin_variant="log_level"))
        with pytest.raises(ModelMismatch):
            truth_check(report, default_result.truth)
        with pytest.raises(ModelMismatch):
            truth_check(dataclasses.replace(report, model_id="hedonic",
                                            marin_variant="sales_ratio"),
                        default_result.truth)

    def test_average_effect_fields(self, default_result):
        truth = default_result.truth
        e_ow = truth.expected_moments["OW"]
        assert truth.risk_average_marin_effect == pytest.approx(
            truth.risk_coefficients["Marin"]
            + truth.risk_coefficients["OW*Marin"] * e_ow)
