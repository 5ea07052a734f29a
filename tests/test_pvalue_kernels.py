"""Oracle tests for the p-value and normal kernels taken from ``scipy.special``.

The package never imports ``scipy.stats``; these tests do, and compare every
call site bit for bit (``np.array_equal``) with the distribution objects it
replaced, on grids that include +-inf, nan, zero and large degrees of freedom.
"""

import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import stats

import marketpanel
from marketpanel import diagnostics, regress, synth

from conftest import stacked

STATISTICS = np.array([-np.inf, -40.0, -1.0, -1e-13, -0.0, 0.0, 1e-300, 1e-8, 0.5, 1.0,
                       3.0, 12.5, 40.0, 1e3, 1e300, np.inf, np.nan])
DEGREES = (0, 1, 2, 3, 7, 38, 1920, 10**6, 1e20)


def same(a, b) -> bool:
    return np.array_equal(np.asarray(a, dtype=float), np.asarray(b, dtype=float),
                          equal_nan=True)


def old_t_inference(beta, covariance, df_resid):
    std = np.sqrt(np.clip(np.diag(covariance), 0.0, None))
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(std > 0, beta / std, np.inf * np.sign(beta))
    t = np.where((std == 0) & (beta == 0), 0.0, t)
    p = 2.0 * stats.t.sf(np.abs(t), df_resid)
    return std, t, np.clip(p, 0.0, 1.0)


def old_f_statistic(r2, k_model, df_resid):
    if k_model <= 0 or df_resid <= 0:
        return 0.0, 1.0
    if r2 >= 1.0:
        return np.inf, 0.0
    f = (r2 / k_model) / ((1.0 - r2) / df_resid)
    return float(f), float(stats.f.sf(f, k_model, df_resid))


def test_t_inference_matches_the_t_distribution():
    finite = STATISTICS[np.isfinite(STATISTICS)]
    beta = np.concatenate([STATISTICS, finite, [0.0, 0.0, 2.0, -2.0]])
    variances = np.concatenate([np.ones(len(STATISTICS)), np.abs(finite) + 0.25,
                                [0.0, np.nan, 0.0, np.inf]])
    with np.errstate(invalid="ignore"):
        for df in DEGREES:
            got = regress._t_inference(beta, np.diag(variances), df)
            want = old_t_inference(beta, np.diag(variances), df)
            for g, w in zip(got, want):
                assert same(g, w), df


@pytest.mark.parametrize("k_model", [0, 1, 3, 9])
def test_f_statistic_matches_the_f_distribution(k_model):
    for r2 in (0.0, 1e-12, 0.05, 0.3, 0.5, 0.999, 1.0, np.nan):
        for df in DEGREES:
            with np.errstate(invalid="ignore"):
                assert same(regress._f_statistic(r2, k_model, df),
                            old_f_statistic(r2, k_model, df)), (r2, df)


def test_hausman_p_value_is_the_chi2_tail_of_its_statistic():
    rng = np.random.default_rng(5)
    names = ("C", "a", "b", "c")
    for trial in range(40):
        a = rng.normal(size=(3, 3))
        v_re = a @ a.T
        # every fourth difference is not PSD, so the statistic may be negative
        shift = rng.normal(size=(3, 3)) if trial % 4 == 0 else 0.1 * a @ a.T
        v_fe = v_re + (shift + shift.T) / 2.0
        cov = [np.pad(v, ((1, 0), (1, 0))) for v in (v_fe, v_re)]
        coef = [np.concatenate([[0.0], rng.normal(size=3)]) for _ in range(2)]
        fe, re = (SimpleNamespace(column_names=names, coefficients=c, covariance=v)
                  for c, v in zip(coef, cov))
        result = diagnostics.hausman_test(fe, re)
        df = int(result.detail.split(",")[0].removeprefix("df="))
        assert same(result.p_value, stats.chi2.sf(max(result.statistic, 0.0), df))


def test_fisher_p_value_is_the_chi2_tail_of_its_statistic():
    rng = np.random.default_rng(6)
    for n_firms in (1, 3, 20, 500):
        series = [np.cumsum(rng.normal(size=10)) + 0.5 * rng.normal(size=10)
                  for _ in range(n_firms)]
        result = diagnostics._fisher_combination("v", *stacked(series))
        df = int(result.detail.split("chi2(")[1].split(")")[0])
        assert same(result.p_value, stats.chi2.sf(result.statistic, df))


def test_lr_p_value_is_the_chi2_tail_of_its_statistic():
    rng = np.random.default_rng(7)
    for g in (2, 3, 10, 200):
        groups = [f"F{i}" for i in range(g) for _ in range(5)]
        for equal in (False, True):
            # one residual pattern per firm: equal variances, a statistic near 0
            residuals = (np.tile(rng.normal(size=5), g) if equal else
                         rng.normal(size=5 * g) * np.repeat(rng.uniform(0.5, 2.0, g), 5))
            result = diagnostics.lr_heteroskedasticity(residuals, groups)
            assert same(result.p_value, stats.chi2.sf(result.statistic, g - 1))


def test_correlation_p_values_follow_the_t_distribution():
    rng = np.random.default_rng(8)
    for n in (3, 4, 10, 200, 20000):
        x = rng.normal(size=n)
        columns = {"x": x, "y": 0.3 * x + rng.normal(size=n), "z": rng.normal(size=n),
                   "w": 0.999 * x + 1e-3 * rng.normal(size=n)}
        result = diagnostics.correlation_matrix(columns)
        for i in range(4):
            for j in range(i):
                r = result.r[i, j]
                t = r * math.sqrt((n - 2) / (1.0 - r * r))
                want = min(2.0 * float(stats.t.sf(abs(t), n - 2)), 1.0)
                assert same(result.p[i, j], want), (n, i, j)


def test_stratified_normal_matches_the_normal_quantiles():
    for seed, n, mean, sd in ((0, 1, 0.0, 1.0), (1, 20, 3.5, 0.4), (2, 1000, -1.0, 2.5),
                              (3, 7, 0.0, 0.0), (4, 50, 1e6, 1e-9)):
        got = synth._stratified_normal(np.random.default_rng(seed), n, mean, sd)
        rng = np.random.default_rng(seed)
        q = np.clip((rng.permutation(n) + rng.random(n)) / n, 0.005, 0.995)
        assert same(got, mean + sd * stats.norm.ppf(q))


def old_fold_mean_lift(center, half, low, high, sd):
    if sd <= 0:
        return 0.0
    mu = np.linspace(center - half, center + half, 201)
    z_lo = (mu - low) / sd
    z_hi = (high - mu) / sd
    lift_lo = 2.0 * sd * (stats.norm.pdf(z_lo) - z_lo * stats.norm.cdf(-z_lo))
    lift_hi = 2.0 * sd * (stats.norm.pdf(z_hi) - z_hi * stats.norm.cdf(-z_hi))
    return float(np.mean(lift_lo - lift_hi))


@pytest.mark.parametrize("sd", [0.0, 1e-300, 1e-3, 0.05, 0.3, 2.0, 1e3, np.inf, np.nan])
def test_fold_mean_lift_matches_the_normal_density(sd):
    with np.errstate(invalid="ignore", over="ignore"):
        for center, half, low, high in ((0.1, 0.05, 0.0, 0.5), (0.5, 0.3, 0.05, 0.95),
                                        (0.0, 0.0, -1.0, 1.0), (2.0, 5.0, 0.0, 1.0)):
            assert same(synth._fold_mean_lift(center, half, low, high, sd),
                        old_fold_mean_lift(center, half, low, high, sd))


def test_importing_the_cli_loads_no_scipy_stats():
    src = str(Path(marketpanel.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    code = ("import sys, marketpanel.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
