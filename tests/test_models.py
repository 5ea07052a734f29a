"""Tests for the declarative model layer and estimation driver."""

import dataclasses
import warnings

import numpy as np
import pytest

from marketpanel import _kernels, synth, variables
from marketpanel.errors import TooFewObservations
from marketpanel.models import build_interaction, estimate, robustness_suite, spec_for

from conftest import coefficient


def derived_panel(seed=0, **cfg_kwargs):
    result = synth.generate_panel(synth.DGPConfig(seed=seed, **cfg_kwargs))
    return variables.derive_all(result.dataset, result.truth.betas_true)


@pytest.fixture(scope="module")
def panel():
    return derived_panel(seed=42)


@pytest.fixture(autouse=True)
def _quiet_collinearity_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        yield


class TestSpecFor:
    def test_value_moderated_shape(self):
        spec = spec_for("value_moderated")
        assert spec.dependent == "P"
        assert len(spec.regressors) == 8
        assert spec.regressors[-1] == "OW*Marin"
        assert spec.interaction == ("OW", "Marin")

    def test_risk_direct_shape(self):
        spec = spec_for("risk_direct")
        assert spec.dependent == "Bet"
        assert spec.regressors == ("Marin", "Age", "Size", "Lev")
        assert spec.interaction is None

    def test_log_variant_same_shape(self):
        base = spec_for("value_direct")
        logv = spec_for("value_direct", marin_variant="log_level")
        assert logv.regressors == base.regressors
        assert logv.marin_variant == "log_level"

    def test_constrain_book_unit_drops_b(self):
        spec = spec_for("value_direct", constrain_book_unit=True)
        assert "B" not in spec.regressors

    def test_invalid_ids(self):
        with pytest.raises(ValueError):
            spec_for("value_quadratic")


class TestBuildInteraction:
    def test_raw_product(self):
        out = build_interaction([0.2], [0.5])
        np.testing.assert_allclose(out, [0.10])

    def test_centered_constant_moderator_is_zero(self):
        out = build_interaction([0.1, 0.2, 0.3], [0.4, 0.4, 0.4], centering=True)
        np.testing.assert_allclose(out, 0.0, atol=1e-15)


class TestEstimate:
    def test_report_structure(self, panel):
        report = estimate(panel, spec_for("value_moderated"))
        assert report.model_id == "value_moderated"
        assert [row[0] for row in report.fit.rows()] == [
            "C", "B", "X", "Marin", "Age", "Size", "Lev", "OW", "OW*Marin"]
        assert report.fit.cov_kind == "white_cross_section"
        assert report.fit.r_squared_kind == "within"
        assert {t.name for t in report.diagnostics} == {"hausman",
                                                        "lr_heteroskedasticity"}
        assert report.hausman_decision in ("reject", "fail_to_reject")
        assert all(0 <= row[3] <= 1 for row in report.fit.rows())

    def test_deterministic(self, panel):
        a = estimate(panel, spec_for("risk_moderated"))
        b = estimate(panel, spec_for("risk_moderated"))
        assert a.fit.rows() == b.fit.rows()
        np.testing.assert_array_equal(a.fit.covariance, b.fit.covariance)

    def test_design_without_rows_is_a_typed_error(self, panel):
        """Every row missing the variant's marketing measure leaves no design."""
        blank = np.full(len(panel), np.nan)
        thinned = dataclasses.replace(panel, columns={**panel.columns, "MarinLog": blank})
        with pytest.raises(TooFewObservations,
                           match=rf"^value_moderated: .*\({len(panel)} of {len(panel)} "):
            estimate(thinned, spec_for("value_moderated", marin_variant="log_level"))

    def test_reparameterization_identity(self, panel):
        """Interaction t-statistic and fitted values are centering-invariant."""
        raw = estimate(panel, spec_for("value_moderated"), center=False)
        centered = estimate(panel, spec_for("value_moderated"), center=True)
        t_raw = raw.fit.t_stats[raw.fit.column_names.index("OW*Marin")]
        t_cen = centered.fit.t_stats[centered.fit.column_names.index("OW*Marin")]
        assert t_cen == pytest.approx(t_raw, abs=1e-8)
        np.testing.assert_allclose(raw.fit.residuals, centered.fit.residuals,
                                   atol=1e-10)

    def test_lr_note_names_firms_with_too_few_rows(self, panel):
        """A firm left with two rows in the design is named in the LR note."""
        codes = panel.codes
        first = np.flatnonzero(codes.firm == 0)
        x = panel.columns["X"].copy()
        x[first[2:]] = np.nan
        thinned = dataclasses.replace(panel, columns={**panel.columns, "X": x})
        report = estimate(thinned, spec_for("value_direct"))
        assert report.n_excluded == len(first) - 2
        assert (f"lr check unavailable: groups with fewer than 3 residuals: "
                f"['{codes.firm_ids[0]}']") in report.notes

    def test_only_the_fixed_effects_fits_compute_tails(self, panel, monkeypatch):
        """t and F tails are computed for the two FE fits only, nine coefficients
        each; the random-effects step computes none."""
        calls = {"_stdtr": 0, "_fdtrc": 0}
        for name, kernel in [(name, getattr(_kernels, name)) for name in calls]:
            def counted(*args, name=name, kernel=kernel):
                calls[name] += 1
                return kernel(*args)
            monkeypatch.setattr(_kernels, name, counted)
        estimate(panel, spec_for("value_moderated"))
        assert calls == {"_stdtr": 18, "_fdtrc": 2}

    def test_zero_moderator_reproduces_direct_slopes(self, panel):
        """OW identically zero degrades the moderated model to the direct one."""
        zeroed = dataclasses.replace(
            panel, columns={**panel.columns, "OW": np.zeros(len(panel))})
        direct = estimate(zeroed, spec_for("value_direct"))
        moderated = estimate(zeroed, spec_for("value_moderated"))
        assert set(moderated.dropped_columns) == {"OW", "OW*Marin"}
        for name in ("B", "X", "Marin", "Age", "Size", "Lev"):
            assert coefficient(moderated.fit, name) == pytest.approx(
                coefficient(direct.fit, name), abs=1e-8)

    def test_constrain_book_unit_changes_dependent(self, panel):
        free = estimate(panel, spec_for("value_direct"))
        constrained = estimate(panel, spec_for("value_direct",
                                               constrain_book_unit=True))
        assert "B" not in [row[0] for row in constrained.fit.rows()]
        assert constrained.fit.nobs == free.fit.nobs

    def test_marin_variant_selects_column(self, panel):
        sales = estimate(panel, spec_for("risk_direct"))
        assets = estimate(panel, spec_for("risk_direct", marin_variant="assets_ratio"))
        assert coefficient(sales.fit, "Marin") != coefficient(assets.fit, "Marin")


class TestRobustnessSuite:
    def test_four_labeled_reports(self, panel):
        reports = robustness_suite(panel)
        labels = [(r.model_id, r.marin_variant) for r in reports]
        assert labels == [("value_moderated", "assets_ratio"),
                          ("value_moderated", "log_level"),
                          ("risk_moderated", "assets_ratio"),
                          ("risk_moderated", "log_level")]

    def test_log_variant_nobs_not_larger(self, panel):
        baseline = estimate(panel, spec_for("value_moderated"))
        reports = robustness_suite(panel)
        for r in reports:
            assert r.fit.nobs <= baseline.fit.nobs

    def test_sign_consistency_across_variants(self):
        """A genuine positive marketing effect keeps its sign under both alternates."""
        agree = 0
        n_seeds = 12
        coeffs = dict(synth.DEFAULT_VALUE_COEFFICIENTS)
        coeffs["Marin"] = 2.5  # strong planted sales-ratio effect
        for seed in range(n_seeds):
            panel = derived_panel(seed=seed, value_coefficients=coeffs)
            baseline = estimate(panel, spec_for("value_moderated"))
            reports = robustness_suite(panel)
            signs = [np.sign(coefficient(r.fit, "Marin")) for r in reports
                     if r.model_id == "value_moderated"]
            agree += all(s == np.sign(coefficient(baseline.fit, "Marin"))
                         for s in signs)
        assert agree >= n_seeds - 2
