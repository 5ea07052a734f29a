"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Monte Carlo criteria use fixed seed ranges so every run is
reproducible.
"""

import json
import os
import time
import warnings

import numpy as np
import pytest

from marketpanel import beta, models, synth, variables
from marketpanel.beta import beta_for_year
from marketpanel.cli import main
from marketpanel.diagnostics import adf_test, hausman_test
from marketpanel.errors import InsufficientWindow
from marketpanel.regress import DesignMatrix, fe_fit, ols_fit, re_fit

from conftest import (monthly_points, normal_equations_oracle, panel_design, return_panel,
                      row_labels)

warnings.filterwarnings("ignore")


def report_line(number, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:>2} {name}: {status} ({detail})")
    assert passed, f"criterion {number} {name}: {detail}"


def window_beta(firm_start_year, firm_values, market_start_year, market_values):
    """beta_for_year of the window ending Dec 2014, on monthly returns from January."""
    returns = return_panel({"F": monthly_points(firm_start_year, 1, firm_values),
                            "M": monthly_points(market_start_year, 1, market_values)})
    return beta_for_year(returns, "F", "M", 2014)


def test_criterion_1_fe_equals_lsdv_oracle():
    """Within estimator equals firm-dummy OLS on 50 random small panels."""
    t0 = time.monotonic()
    worst = 0.0
    rng = np.random.default_rng(101)
    for trial in range(50):
        n_firms = int(rng.integers(3, 11))
        n_years = int(rng.integers(3, 6))
        k = int(rng.integers(1, 5))
        X, y, _ = panel_design(n_firms=n_firms, n_years=n_years, k=k,
                               seed=int(rng.integers(0, 2**31)))
        fe = fe_fit(X, y)
        labels = row_labels(X)
        firms = sorted({f for f, _ in labels})
        dummies = np.column_stack([
            np.array([1.0 if f == firm else 0.0 for f, _ in labels])
            for firm in firms[1:]])
        lsdv = ols_fit(DesignMatrix(np.column_stack([X.values, dummies]),
                                    X.column_names + tuple(f"d{j}" for j in
                                                           range(len(firms) - 1))), y)
        for name in X.column_names:
            worst = max(worst, abs(fe.coefficient(name) - lsdv.coefficient(name)))
    elapsed = time.monotonic() - t0
    report_line(1, "fe-equals-lsdv", worst <= 1e-8 and elapsed < 10.0,
                f"max |delta| = {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_ols_normal_equations_oracle():
    """QR OLS matches explicit normal equations on 100 random systems."""
    worst_rel = 0.0
    worst_orth = 0.0
    rng = np.random.default_rng(202)
    for trial in range(100):
        n = int(rng.integers(20, 201))
        k = int(rng.integers(1, 9))
        x = rng.normal(0, 1, (n, k)) * rng.uniform(0.1, 10, k)
        beta_true = rng.normal(0, 2, k)
        y = x @ beta_true + rng.normal(0, 1, n)
        X = DesignMatrix(x, tuple(f"x{j}" for j in range(k)))
        fit = ols_fit(X, y)
        oracle = normal_equations_oracle(X, y)
        scale = np.maximum(np.abs(oracle), 1e-12)
        worst_rel = max(worst_rel,
                        float(np.max(np.abs(fit.coefficients - oracle) / scale)))
        values = np.column_stack([np.ones(n), x])
        worst_orth = max(worst_orth,
                         float(np.max(np.abs(values.T @ fit.residuals))
                               / np.linalg.norm(y)))
    report_line(2, "ols-normal-equations", worst_rel <= 1e-10 and worst_orth <= 1e-8,
                f"max rel delta = {worst_rel:.2e}, max orth = {worst_orth:.2e}")


def test_criterion_3_beta_identities():
    """Self-beta, affine response, and the 48-month minimum."""
    rng = np.random.default_rng(303)
    m = rng.normal(0.008, 0.05, 60)
    self_err = abs(window_beta(2010, m, 2010, m).beta - 1.0)

    affine_err = 0.0
    for _ in range(20):
        a = float(rng.uniform(-3, 3))
        c = float(rng.uniform(-0.05, 0.05))
        affine_err = max(affine_err, abs(window_beta(2010, a * m + c, 2010, m).beta - a))

    m47 = rng.normal(0.008, 0.05, 47)
    try:
        window_beta(2011, 1.1 * m47, 2011, m47)
        window_enforced = False
    except InsufficientWindow:
        window_enforced = True

    report_line(3, "beta-identities",
                self_err <= 1e-12 and affine_err <= 1e-10 and window_enforced,
                f"self = {self_err:.1e}, affine = {affine_err:.1e}, "
                f"47-month guard = {window_enforced}")


def test_criterion_4_value_model_recovery():
    """Planted Marin effect 0.18 inside 3 robust SEs in at least 90/100 seeds."""
    t0 = time.monotonic()
    hits = 0
    for seed in range(100):
        result = synth.generate_panel(synth.DGPConfig(seed=seed))
        panel = variables.derive_all(result.dataset, result.truth.betas_true)
        report = models.estimate(panel, models.spec_for("value_moderated"))
        est = report.fit.coefficient("Marin")
        se = report.fit.std_error("Marin")
        hits += abs(est - 0.18) <= 3 * se
    elapsed = time.monotonic() - t0
    report_line(4, "value-model-recovery", hits >= 90 and elapsed < 60.0,
                f"{hits}/100 covered, {elapsed:.1f}s")


def test_criterion_5_risk_model_sign_recovery():
    """Planted average Marin effect -0.20 on beta: negative and significant
    at 5% in at least 80/100 seeds (centered interaction keeps the main
    effect interpretable as the average marginal effect)."""
    risk = dict(synth.DEFAULT_RISK_COEFFICIENTS)
    risk["OW*Marin"] = -0.45
    risk["Marin"] = -0.20 - risk["OW*Marin"] * 0.44
    hits = 0
    for seed in range(100):
        result = synth.generate_panel(synth.DGPConfig(seed=seed,
                                                      risk_coefficients=risk))
        assert result.truth.risk_average_marin_effect == pytest.approx(-0.20)
        panel = variables.derive_all(result.dataset, result.truth.betas_true)
        report = models.estimate(panel, models.spec_for("risk_moderated"),
                                 center=True)
        est = report.fit.coefficient("Marin")
        p = report.fit.p_value("Marin")
        hits += (est < 0) and (p < 0.05)
    report_line(5, "risk-model-sign-recovery", hits >= 80, f"{hits}/100 significant")


def test_criterion_6_adf_calibration():
    """Size on random walks (<= 8%) and power on white noise (>= 92%), T=200."""
    t0 = time.monotonic()
    rng = np.random.default_rng(606)
    rw_rejections = 0
    wn_rejections = 0
    for _ in range(500):
        walk = np.cumsum(rng.normal(0, 1, 200))
        rw_rejections += adf_test(walk).decision == "reject"
    for _ in range(500):
        noise = rng.normal(0, 1, 200)
        wn_rejections += adf_test(noise).decision == "reject"
    elapsed = time.monotonic() - t0
    size = rw_rejections / 500
    power = wn_rejections / 500
    report_line(6, "adf-calibration",
                size <= 0.08 and power >= 0.92 and elapsed < 30.0,
                f"size = {size:.3f}, power = {power:.3f}, {elapsed:.1f}s")


def test_criterion_7_hausman_calibration():
    """Nominal size under an RE-consistent DGP, power under correlated effects."""
    size_rejections = 0
    for seed in range(500):
        X, y, _ = panel_design(n_firms=30, n_years=6, k=2, seed=seed,
                               effect_sd=1.0, noise_sd=1.0)
        result = hausman_test(fe_fit(X, y), re_fit(X, y))
        size_rejections += result.p_value < 0.05
    size = size_rejections / 500

    power_rejections = 0
    for seed in range(500):
        X, y, _ = panel_design(n_firms=50, n_years=4, k=2, seed=10_000 + seed,
                               effect_sd=0.1, noise_sd=1.0, effect_x_corr=0.8)
        result = hausman_test(fe_fit(X, y), re_fit(X, y))
        power_rejections += result.p_value < 0.05
    power = power_rejections / 500
    report_line(7, "hausman-calibration",
                0.01 <= size <= 0.12 and power >= 0.80,
                f"size = {size:.3f}, power = {power:.3f}")


def test_criterion_8_moderation_reparameterization():
    """Interaction t-statistics and fitted values invariant to centering."""
    worst_t = 0.0
    worst_fit = 0.0
    for seed in range(20):
        result = synth.generate_panel(synth.DGPConfig(seed=700 + seed))
        panel = variables.derive_all(result.dataset, result.truth.betas_true)
        raw = models.estimate(panel, models.spec_for("value_moderated"),
                              center=False)
        cen = models.estimate(panel, models.spec_for("value_moderated"),
                              center=True)
        idx_r = raw.fit.column_names.index("OW*Marin")
        idx_c = cen.fit.column_names.index("OW*Marin")
        worst_t = max(worst_t, abs(raw.fit.t_stats[idx_r] - cen.fit.t_stats[idx_c]))
        worst_fit = max(worst_fit,
                        float(np.max(np.abs(raw.fit.residuals - cen.fit.residuals))))
    report_line(8, "moderation-reparameterization",
                worst_t <= 1e-8 and worst_fit <= 1e-10,
                f"max t delta = {worst_t:.2e}, max fitted delta = {worst_fit:.2e}")


def test_criterion_9_table_schema_goldens(tmp_path):
    """Emitted tables carry exactly the published row sets; four robustness
    reports are labeled by (model, variant)."""
    data = tmp_path / "data"
    out = tmp_path / "out"
    assert main(["synth", "--seed", "9", "--out", str(data)]) == 0
    assert main(["run", "--data", str(data), "--out", str(out)]) == 0
    (run_id,) = os.listdir(out)
    run_dir = out / run_id

    def md_rows(name):
        rows = []
        for line in (run_dir / name).read_text().splitlines():
            if line.startswith("|") and not set(line) <= {"|", "-", " "}:
                rows.append(line.strip("|").split("|")[0].strip())
        return rows[1:]

    value_rows = md_rows("value_moderated.md")
    risk_rows = md_rows("risk_moderated.md")
    value_ok = value_rows == ["C", "X", "Marin", "AGE", "Size", "Lev", "OW",
                              "OW*Marin", "R-squared"]
    risk_ok = risk_rows == ["C", "Marin", "AGE", "SIZ", "LEVR", "OW", "OW*Marin",
                            "R-squared"]

    labels = []
    for stem in ("robustness_value_assets", "robustness_value_log",
                 "robustness_risk_assets", "robustness_risk_log"):
        payload = json.loads((run_dir / f"{stem}.json").read_text())
        labels.append((payload["model_id"], payload["marin_variant"]))
    robustness_ok = labels == [("value_moderated", "assets_ratio"),
                               ("value_moderated", "log_level"),
                               ("risk_moderated", "assets_ratio"),
                               ("risk_moderated", "log_level")]
    report_line(9, "table-schema-goldens", value_ok and risk_ok and robustness_ok,
                f"value rows ok = {value_ok}, risk rows ok = {risk_ok}, "
                f"robustness labels ok = {robustness_ok}")


def test_criterion_10_calibration_fidelity():
    """Default synthetic descriptives hit the published calibration targets."""
    from marketpanel.ingest import parse_prices

    result = synth.generate_panel(synth.DGPConfig(seed=0))
    returns = beta.monthly_returns(parse_prices(result.prices_csv))
    ds = result.dataset
    firm_market = ds.firm_markets()
    betas, _ = beta.all_betas(returns, ds.firms, ds.years, firm_market)
    panel = variables.derive_all(ds, betas)
    cols = variables.panel_columns(panel, ["Marin", "Bet", "OW"])
    marin_mean = float(cols["Marin"].mean())
    bet_mean = float(cols["Bet"].mean())
    ow = cols["OW"]
    checks = {
        "marin": abs(marin_mean - 0.2491) <= 0.1 * 0.2491,
        "bet": abs(bet_mean - 0.8931) <= 0.1 * 0.8931,
        "ow_mean": abs(float(ow.mean()) - 0.44) <= 0.1 * 0.44,
        "ow_range": float(ow.min()) >= 0.22 and float(ow.max()) <= 0.90,
    }
    report_line(10, "calibration-fidelity", all(checks.values()),
                f"Marin = {marin_mean:.4f}, Bet = {bet_mean:.4f}, "
                f"OW = {float(ow.mean()):.4f} in [{float(ow.min()):.2f}, "
                f"{float(ow.max()):.2f}]")


def test_criterion_11_end_to_end_determinism(tmp_path):
    """Two identical runs produce byte-identical trees; one run under 5 s."""
    data = tmp_path / "data"
    assert main(["synth", "--seed", "11", "--out", str(data)]) == 0
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    t0 = time.monotonic()
    assert main(["run", "--data", str(data), "--out", str(out_a)]) == 0
    elapsed = time.monotonic() - t0
    assert main(["run", "--data", str(data), "--out", str(out_b)]) == 0
    (run_id,) = os.listdir(out_a)
    identical = True
    names = sorted(os.listdir(out_a / run_id))
    if names != sorted(os.listdir(out_b / run_id)):
        identical = False
    else:
        for name in names:
            if (out_a / run_id / name).read_bytes() != \
                    (out_b / run_id / name).read_bytes():
                identical = False
                break
    report_line(11, "end-to-end-determinism", identical and elapsed < 5.0,
                f"identical = {identical}, single run = {elapsed:.2f}s")
