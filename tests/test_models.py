"""Tests for the declarative model layer and estimation driver."""

import inspect
import warnings

import numpy as np
import pytest

from marketpanel import _kernels, models, regress, synth, variables
from marketpanel.errors import (CollinearityProximityWarning, SingletonGroupWarning,
                                TooFewObservations)
from marketpanel.models import (MODEL_IDS, _check_design, build_interaction, estimate,
                                robustness_suite, spec_for)
from marketpanel.variables import panel_columns

from conftest import coefficient, panel_design, t_stat, with_exact_age


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

    def test_risk_direct_shape(self):
        spec = spec_for("risk_direct")
        assert spec.dependent == "Bet"
        assert spec.regressors == ("Marin", "Age", "Size", "Lev")

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
        assert report.rows == report.fit.rows()
        assert report.f_test == report.fit.f_test()
        assert all(0 <= row[3] <= 1 for row in report.rows)

    def test_deterministic(self, panel):
        a = estimate(panel, spec_for("risk_moderated"))
        b = estimate(panel, spec_for("risk_moderated"))
        assert a.fit.rows() == b.fit.rows()
        np.testing.assert_array_equal(a.fit.covariance, b.fit.covariance)

    def test_design_without_rows_is_a_typed_error(self, panel):
        """Every row missing the variant's marketing measure leaves no design."""
        n_rows = len(panel.codes.firm)
        blank = np.full(n_rows, np.nan)
        thinned = panel._replace(columns={**panel.columns, "MarinLog": blank})
        with pytest.raises(TooFewObservations,
                           match=rf"^value_moderated: .*\({n_rows} of {n_rows} "):
            estimate(thinned, spec_for("value_moderated", marin_variant="log_level"))

    def test_reparameterization_identity(self, panel):
        """Interaction t-statistic and fitted values are centering-invariant."""
        raw = estimate(panel, spec_for("value_moderated"), center=False)
        centered = estimate(panel, spec_for("value_moderated"), center=True)
        t_raw = t_stat(raw.fit, "OW*Marin")
        t_cen = t_stat(centered.fit, "OW*Marin")
        assert t_cen == pytest.approx(t_raw, abs=1e-8)
        np.testing.assert_allclose(raw.fit.residuals, centered.fit.residuals,
                                   atol=1e-10)

    def test_centering_moves_the_main_effects_by_the_reparameterization_law(self, panel):
        """(Marin - m)(OW - o) = Marin*OW - o*Marin - m*OW + m*o, with m and o the
        means over the estimate's rows: centering adds b(OW*Marin)*o to the Marin
        coefficient and b(OW*Marin)*m to the OW coefficient, and moves no other slope."""
        spec = spec_for("value_moderated")
        raw = estimate(panel, spec, center=False)
        centered = estimate(panel, spec, center=True)
        names = (spec.dependent, *spec.regressors[:-1])
        columns = panel_columns(panel, names)
        rows = np.logical_and.reduce([np.isfinite(columns[name]) for name in names])
        mean_marin, mean_ow = columns["Marin"][rows].mean(), columns["OW"][rows].mean()
        b_interaction = coefficient(raw.fit, "OW*Marin")
        shifted = {"Marin": b_interaction * mean_ow, "OW": b_interaction * mean_marin}
        for name in spec.regressors:
            expected = coefficient(raw.fit, name) + shifted.get(name, 0.0)
            assert coefficient(centered.fit, name) == pytest.approx(expected, rel=1e-9, abs=1e-9)
        assert shifted["Marin"] != pytest.approx(0.0, abs=1e-6)
        assert shifted["OW"] != pytest.approx(0.0, abs=1e-6)

    def test_lr_note_names_firms_with_too_few_rows(self, panel):
        """A firm left with two rows in the design is named in the LR note."""
        codes = panel.codes
        first = np.flatnonzero(codes.firm == 0)
        x = panel.columns["X"].copy()
        x[first[2:]] = np.nan
        thinned = panel._replace(columns={**panel.columns, "X": x})
        report = estimate(thinned, spec_for("value_direct"))
        assert report.n_excluded == len(first) - 2
        assert (f"lr check unavailable: groups with fewer than 3 residuals: "
                f"['{codes.firm_ids[0]}']") in report.notes

    def test_hausman_without_a_positive_definite_difference_is_unavailable(self, panel,
                                                                          monkeypatch):
        """A random-effects covariance ten times its size leaves V_FE - V_RE
        without a Cholesky factor: the estimate records no Hausman statistic,
        only a note."""
        re_fit = regress.re_fit

        def inflated(X, y):
            re = re_fit(X, y)
            return re._replace(covariance=10.0 * re.covariance)
        monkeypatch.setattr(regress, "re_fit", inflated)
        report = estimate(panel, spec_for("risk_direct"))
        assert report.hausman_decision == "unavailable"
        assert [t.name for t in report.diagnostics] == ["lr_heteroskedasticity"]
        assert "hausman unavailable: V_FE - V_RE is not positive definite" in report.notes

    def test_only_the_reported_fit_computes_tails(self, panel, monkeypatch):
        """t and F tails are computed for the reported white-cross-section fit
        only, once for each of its nine coefficients; the classical fit that the
        Hausman and LR checks read and the random-effects step compute none."""
        calls = {"_stdtr": 0, "_fdtrc": 0}
        for name, kernel in [(name, getattr(_kernels, name)) for name in calls]:
            def counted(*args, name=name, kernel=kernel):
                calls[name] += 1
                return kernel(*args)
            monkeypatch.setattr(_kernels, name, counted)
        estimate(panel, spec_for("value_moderated"))
        assert calls == {"_stdtr": 9, "_fdtrc": 1}

    def test_zero_moderator_reproduces_direct_slopes(self, panel):
        """OW identically zero degrades the moderated model to the direct one."""
        zeroed = panel._replace(columns={**panel.columns, "OW": np.zeros(len(panel.codes.firm))})
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

    def test_constrain_book_unit_regresses_price_less_book(self, panel):
        """The constrained estimate is the free fit of P - B on the other regressors."""
        spec = spec_for("value_direct", constrain_book_unit=True)
        constrained = estimate(panel, spec)
        price_less_book = panel._replace(
            columns={**panel.columns, "P": panel.columns["P"] - panel.columns["B"]})
        free = estimate(price_less_book, spec._replace(constrain_book_unit=False))
        assert constrained.fit.column_names == free.fit.column_names
        np.testing.assert_array_equal(constrained.fit.coefficients, free.fit.coefficients)
        np.testing.assert_array_equal(constrained.fit.covariance, free.fit.covariance)

    def test_marin_variant_selects_column(self, panel):
        sales = estimate(panel, spec_for("risk_direct"))
        assets = estimate(panel, spec_for("risk_direct", marin_variant="assets_ratio"))
        assert coefficient(sales.fit, "Marin") != coefficient(assets.fit, "Marin")


class TestDesignCheck:
    """Each estimate checks its design once, before the fits: one warning per
    fact and call, raised in models, and none from the fit functions."""

    @staticmethod
    def _caught(panel, model_id):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            estimate(panel, spec_for(model_id))
        design = (SingletonGroupWarning, CollinearityProximityWarning)
        found = [w for w in caught if issubclass(w.category, design)]
        # each points at estimate's _check_design call
        lines, first = inspect.getsourcelines(models.estimate)
        call = first + next(i for i, line in enumerate(lines) if "_check_design(" in line)
        assert all((w.filename, w.lineno) == (models.__file__, call) for w in found), found
        return ([str(w.message) for w in found if w.category is SingletonGroupWarning],
                [str(w.message) for w in found if w.category is CollinearityProximityWarning])

    @pytest.mark.parametrize("model_id", MODEL_IDS)
    def test_one_trend_warning_per_estimate(self, model_id):
        singletons, trends = self._caught(derived_panel(seed=9), model_id)
        assert singletons == []
        assert len(trends) == 1 and trends[0].startswith("column 'Age' is within-collinear"), \
            trends

    @pytest.mark.parametrize("model_id", MODEL_IDS)
    def test_one_singleton_warning_per_estimate(self, model_id):
        """F001 keeps a beta in 2015 only, so the panel holds one row of it."""
        result = synth.generate_panel(synth.DGPConfig(seed=9))
        betas = {(firm, year): b for (firm, year), b in result.truth.betas_true.items()
                 if firm != "F001" or year == 2015}
        singletons, trends = self._caught(variables.derive_all(result.dataset, betas), model_id)
        assert singletons == ["groups with one row contribute no within variation: ['F001']"]
        assert len(trends) == 1

    def test_warns_on_a_column_collinear_with_the_common_trend(self):
        """An exact firm age is the common trend once demeaned: the check warns,
        naming it, and keeps it; without it, no warning."""
        X, y, _ = panel_design(n_firms=6, n_years=5, k=2, seed=8)
        with_age = with_exact_age(X)
        with pytest.warns(CollinearityProximityWarning) as record:
            checked, dropped = _check_design(with_age, y)
        messages = [str(w.message) for w in record
                    if issubclass(w.category, CollinearityProximityWarning)]
        assert len(messages) == 1
        assert messages[0].startswith("column 'Age' is within-collinear with a common linear "
                                      "trend (|corr|=1.000000)"), messages
        assert checked is with_age and dropped == ()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _check_design(X, y) == (X, ())

    @pytest.mark.parametrize("level, factor", [(1024.0, 1.01), (1024.0, 0.99), (0.5, 1.01),
                                               (0.5, 0.99), (0.0, 1.0)])
    def test_drop_threshold_from_both_sides(self, level, factor):
        """A column at ``level`` wiggles by +-a within each firm, a = factor * 1e-12
        * max(1, level): kept just above the threshold 1e-12 max(1, max|x|), dropped
        just below. At level 0.5 every |x| < 1, so the floor 1 sets the threshold;
        at level 0 the wiggle demeans to itself, exactly the threshold, and is dropped."""
        X, y, _ = panel_design(n_firms=6, n_years=4, k=2, seed=3)
        a = factor * 1e-12 * max(1.0, level)
        wiggle = level + a * np.tile([1.0, -1.0, 1.0, -1.0], 6)
        with_w = regress.design_matrix(np.column_stack([X.values, wiggle]),
                                       X.column_names + ("W",), X.codes)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            checked, dropped = _check_design(with_w, y)
        if factor > 1:
            assert checked is with_w and dropped == ()
        else:
            assert dropped == ("W",)
            assert checked.column_names == X.column_names
            np.testing.assert_array_equal(checked.values, X.values)

    def test_no_trend_warning_at_exactly_0999(self):
        """Eight firms of three years have the trend (-1, 0, 1) each, norm 4. The
        column 1498.5 (-1, 0, 1) + m (1, -2, 1), with m = 109, 8, 7 and then 0,
        has firm means 0, norm 6000 and t'x = 23976, all exact, so |corr| is the
        double 0.999: the warning needs more."""
        X, y, _ = panel_design(n_firms=8, n_years=3, k=2, seed=5)
        m = np.repeat([109.0, 8.0, 7.0, 0.0, 0.0, 0.0, 0.0, 0.0], 3)
        column = 1498.5 * np.tile([-1.0, 0.0, 1.0], 8) + m * np.tile([1.0, -2.0, 1.0], 8)
        with_c = regress.design_matrix(np.column_stack([X.values, column]),
                                       X.column_names + ("C",), X.codes)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _check_design(with_c, y) == (with_c, ())


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
