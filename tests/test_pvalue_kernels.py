"""Oracle tests for the p-value and normal kernels of ``marketpanel._kernels``.

The package computes its p-values with numpy and ``math`` only. Every call
site is held to scipy's distribution functions on grids that include +-inf,
nan, zero and large degrees of freedom:

- where scipy's value is an edge (nan, +-inf, 0 or 1) and is exact, the
  kernel returns it exactly;
- elsewhere the kernel is within relative 1e-13 of the exact value (50-digit
  mpmath) and of scipy's, unless scipy's own value is further than that from
  the exact one, in which case the kernel must be the closer of the two.

Hypothesis properties draw degrees of freedom from 1 to 30 000 and p-values
from 1 down to 1e-300, with the same checks.

The normal quantile and cdf, ports of Cephes' ``ndtri`` and
``ndtr``, are held to scipy's bit for bit, and to 50-digit mpmath. The cdf
takes an array; it is also held, bit for bit, to a per-element copy of the
scalar port it replaced, on both sides of each of its branch edges.
"""

import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special, stats

import marketpanel
from marketpanel import _kernels, diagnostics, regress, synth
from marketpanel.errors import NotPositiveDefinite

from conftest import firm_codes, stacked

STATISTICS = np.array([-np.inf, -40.0, -1.0, -1e-13, -0.0, 0.0, 1e-300, 1e-8, 0.5, 1.0,
                       3.0, 12.5, 40.0, 1e3, 1e300, np.inf, np.nan])
DEGREES = (0, 1, 2, 3, 7, 38, 1920, 10**6, 1e20)
PROPERTY = settings(max_examples=60, deadline=None)
mpmath.mp.dps = 60


def same(a, b) -> bool:
    return np.array_equal(np.asarray(a, dtype=float), np.asarray(b, dtype=float),
                          equal_nan=True)


TOL = 1e-13


def relative(a: float, b: float) -> float:
    return 0.0 if a == b else abs(a - b) / abs(b) if b else math.inf


def assert_p(got, want, exact):
    """``got`` against scipy's ``want`` and the exact value, as the module says."""
    got, want, exact = float(got), float(want), float(exact)
    if math.isnan(want) or want in (0.0, 1.0, math.inf, -math.inf):
        if same(want, exact):
            assert same(got, want), (got, want)
            return
    assert not math.isnan(got), (got, exact)
    if exact in (0.0, 1.0):
        assert got == exact, (got, exact)
        return
    error = relative(got, exact)
    assert error <= TOL, (got, exact, error)
    assert relative(got, want) <= TOL or error < relative(want, exact), (
        got, want, exact)


def mp_beta_cdf(a, b, x):
    """I_x(a, b) at 50 digits: the continued fraction of Numerical Recipes 6.4,
    on the side of the mean where it converges fast."""
    a, b, x = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(x)
    if x == 0 or x == 1:
        return x
    if x > (a + 1) / (a + b + 2):
        return 1 - mp_beta_cdf(b, a, 1 - x)
    tiny = mpmath.mpf(10) ** -300
    c, d = mpmath.mpf(1), 1 - (a + b) * x / (a + 1)
    d = 1 / d
    h = d
    for m in range(1, 100_000):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1 + num * d
            d = 1 / (d if abs(d) > tiny else tiny)
            c = 1 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1) < mpmath.mpf(10) ** -45:
            break
    log_front = (a * mpmath.log(x) + b * mpmath.log1p(-x) - mpmath.log(a)
                 - (mpmath.loggamma(a) + mpmath.loggamma(b) - mpmath.loggamma(a + b)))
    return mpmath.exp(log_front) * h


def mp_t_cdf(df, t):
    if math.isnan(t) or not df > 0:
        return math.nan
    if t == 0.0:
        return 0.5
    if df > 1e15:   # the normal limit, exact to double precision
        return mpmath.ncdf(t) if abs(t) < 1e3 else float(t > 0)
    df, t = mpmath.mpf(df), mpmath.mpf(t)
    tail = mp_beta_cdf(df / 2, 0.5, df / (df + t * t)) / 2
    return tail if t < 0 else 1 - tail


def mp_f_sf(dfn, dfd, f):
    if math.isnan(f) or not (dfn > 0 and dfd > 0 and f >= 0):
        return math.nan
    if dfd > 1e15:   # the chi-square limit, exact to double precision
        return mp_chi2_sf(dfn, dfn * f)
    dfn, dfd, f = mpmath.mpf(dfn), mpmath.mpf(dfd), mpmath.mpf(f)
    return mp_beta_cdf(dfd / 2, dfn / 2, dfd / (dfd + dfn * f))


def mp_chi2_sf(df, x):
    if math.isnan(x) or x < 0:
        return math.nan
    return mpmath.gammainc(mpmath.mpf(df) / 2, mpmath.mpf(x) / 2, mpmath.inf,
                           regularized=True)


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
            std, t, p = regress._t_inference(beta, np.diag(variances), df)
            want_std, want_t, want_p = old_t_inference(beta, np.diag(variances), df)
            assert same(std, want_std) and same(t, want_t), df
            for ti, pi, wi in zip(t.tolist(), p.tolist(), want_p.tolist()):
                exact = min(2 * mp_t_cdf(df, -abs(ti)), 1) if not math.isnan(ti) else ti
                assert_p(pi, wi, exact)


@pytest.mark.parametrize("k_model", [0, 1, 3, 9])
def test_f_statistic_matches_the_f_distribution(k_model):
    for r2 in (0.0, 1e-12, 0.05, 0.3, 0.5, 0.999, 1.0, np.nan):
        for df in DEGREES:
            with np.errstate(invalid="ignore"):
                got, want = regress._f_statistic(r2, k_model, df), old_f_statistic(r2, k_model, df)
            assert same(got[0], want[0]), (r2, df)
            exact = want[1] if k_model <= 0 or df <= 0 or r2 >= 1 else mp_f_sf(k_model, df, got[0])
            assert_p(got[1], want[1], exact)


def test_hausman_p_value_is_the_chi2_tail_of_its_statistic():
    rng = np.random.default_rng(5)
    names = ("C", "a", "b", "c")
    for trial in range(40):
        a = rng.normal(size=(3, 3))
        v_re = a @ a.T
        # every fourth difference is indefinite, which has no statistic
        shift = rng.normal(size=(3, 3)) if trial % 4 == 0 else 0.1 * a @ a.T
        v_fe = v_re + (shift + shift.T) / 2.0
        cov = [np.pad(v, ((1, 0), (1, 0))) for v in (v_fe, v_re)]
        coef = [np.concatenate([[0.0], rng.normal(size=3)]) for _ in range(2)]
        fe, re = (SimpleNamespace(column_names=names, coefficients=c, covariance=v)
                  for c, v in zip(coef, cov))
        if trial % 4 == 0:
            assert np.linalg.eigvalsh(v_fe - v_re).min() < 0
            with pytest.raises(NotPositiveDefinite):
                diagnostics.hausman_test(fe, re)
            continue
        result = diagnostics.hausman_test(fe, re)
        assert result.detail.startswith("df=3, ")
        x = result.statistic
        assert x >= 0
        assert_p(result.p_value, stats.chi2.sf(x, 3), mp_chi2_sf(3, x))


def test_fisher_p_value_is_the_chi2_tail_of_its_statistic():
    rng = np.random.default_rng(6)
    for n_firms in (1, 3, 20, 500):
        series = [np.cumsum(rng.normal(size=10)) + 0.5 * rng.normal(size=10)
                  for _ in range(n_firms)]
        column, firm = stacked(series)
        result = diagnostics._fisher_combination("v", column, firm_codes(firm))
        df = int(result.detail.split("chi2(")[1].split(")")[0])
        assert_p(result.p_value, stats.chi2.sf(result.statistic, df),
                 mp_chi2_sf(df, result.statistic))


def test_lr_p_value_is_the_chi2_tail_of_its_statistic():
    rng = np.random.default_rng(7)
    for g in (2, 3, 10, 200):
        groups = firm_codes([f"F{i}" for i in range(g) for _ in range(5)])
        for equal in (False, True):
            # one residual pattern per firm: equal variances, a statistic near 0
            residuals = (np.tile(rng.normal(size=5), g) if equal else
                         rng.normal(size=5 * g) * np.repeat(rng.uniform(0.5, 2.0, g), 5))
            result = diagnostics.lr_heteroskedasticity(residuals, groups)
            x = max(result.statistic, 0.0)
            assert_p(result.p_value, stats.chi2.sf(result.statistic, g - 1),
                     mp_chi2_sf(g - 1, x))


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
                assert_p(result.p[i, j], want, min(2 * mp_t_cdf(n - 2, -abs(t)), 1))


def test_mackinnon_p_values_are_normal_cdf_values():
    stat = np.concatenate([np.linspace(-20.0, 3.0, 461), [-18.83, -1.61, 2.74]])
    c, d = diagnostics._P_SMALL, diagnostics._P_LARGE
    z = np.where(stat <= diagnostics._P_TAU_STAR, c[0] + c[1] * stat + c[2] * stat**2,
                 d[0] + d[1] * stat + d[2] * stat**2 + d[3] * stat**3)
    want = np.where(stat <= diagnostics._P_TAU_MIN, 0.0,
                    np.where(stat >= diagnostics._P_TAU_MAX, 1.0, special.ndtr(z)))
    for got, w, zi in zip(diagnostics._mackinnon_pvalues(stat).tolist(), want.tolist(),
                          z.tolist()):
        assert_p(got, w, w if w in (0.0, 1.0) else mpmath.ncdf(zi))


@pytest.mark.parametrize("x", [-np.inf, -40.0, -37.5, -8.0, -1.0, -0.7, -1e-300, -0.0, 0.0,
                               0.3, 0.7071, 1.0, 5.0, 9.0, np.inf, np.nan])
def test_ndtr_matches_the_normal_cdf(x):
    exact = special.ndtr(x) if not np.isfinite(x) else mpmath.ncdf(x)
    assert_p(_kernels._cephes_ndtr(np.array([x]))[0], special.ndtr(x), exact)


def bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.uint64)


def test_ndtri_is_scipys_bit_for_bit():
    e2 = math.exp(-2.0)
    edges = [0.5, _kernels._EXP_M2, e2, 1.0 - _kernels._EXP_M2, 1.0 - e2]
    edges += [np.nextafter(q, side) for q in edges for side in (0.0, 1.0)]
    q = np.concatenate([np.linspace(0.005, 0.995, 100_001),
                        np.random.default_rng(0).uniform(0.005, 0.995, 20_000), edges])
    got = np.array([_kernels._ndtri(v) for v in q.tolist()])
    assert np.array_equal(bits(got), bits(special.ndtri(q)))


@pytest.mark.parametrize("q", [0.0, 1.0, -0.1, 1.1, -np.inf, np.inf, np.nan, 1e-300,
                               1e-15, 1.0 - 1e-15, np.nextafter(1.0, 0.0)])
def test_ndtri_raises_outside_its_two_branches(q):
    with pytest.raises(ValueError):
        _kernels._ndtri(q)


def test_cephes_ndtr_is_scipys_bit_for_bit():
    x = np.concatenate([np.linspace(-40.0, 40.0, 100_001),
                        np.random.default_rng(1).uniform(-40.0, 40.0, 20_000),
                        [0.0, -0.0, np.inf, -np.inf, 1e300, -1e300]])
    got = _kernels._cephes_ndtr(x)
    assert np.array_equal(bits(got), bits(special.ndtr(x)))
    assert math.isnan(_kernels._cephes_ndtr(np.array([math.nan]))[0])


def test_ndtri_and_cephes_ndtr_against_mpmath():
    rng = np.random.default_rng(2)
    with mpmath.workdps(50):
        for q in np.concatenate([np.linspace(0.005, 0.995, 1001),
                                 rng.uniform(0.005, 0.995, 1000)]).tolist():
            exact = -mpmath.sqrt(2) * mpmath.erfinv(1 - 2 * mpmath.mpf(q))
            assert abs(_kernels._ndtri(q) - exact) <= 1e-15, q
        x = np.concatenate([np.linspace(-12.0, 12.0, 1001), rng.uniform(-12.0, 12.0, 1000)])
        for xi, got in zip(x.tolist(), _kernels._cephes_ndtr(x).tolist()):
            exact = mpmath.ncdf(xi)
            assert abs(got - exact) <= 5e-14 * exact, xi


def scalar_erf(x):
    z = x * x
    return x * _kernels._polevl(z, _kernels._ERF_T) / _kernels._p1evl(z, _kernels._ERF_U)


def scalar_erfc(x):
    if x < 1.0:
        return 1.0 - scalar_erf(x)
    z = -x * x
    if z < -_kernels._MAXLOG:
        return 0.0
    z = math.exp(z)
    if x < 8.0:
        return (z * _kernels._polevl(x, _kernels._ERFC_P)) / _kernels._p1evl(x, _kernels._ERFC_Q)
    return (z * _kernels._polevl(x, _kernels._ERFC_R)) / _kernels._p1evl(x, _kernels._ERFC_S)


def scalar_ndtr(a):
    """The scalar port of Cephes' ``ndtr`` the array kernel replaced, verbatim."""
    x = a * _kernels._SQRT_HALF
    z = abs(x)
    if z < _kernels._SQRT_HALF:
        return 0.5 + 0.5 * scalar_erf(x)
    y = 0.5 * scalar_erfc(z)
    return 1.0 - y if x > 0 else y


def test_array_ndtr_equals_the_scalar_port_bit_for_bit():
    # the branch edges of |a|: 1 (erf to erfc), sqrt 2 (erfc's polynomial to its
    # exponential form), 8 sqrt 2 (P/Q to R/S), sqrt(2 _MAXLOG) (the zero tail) and 0
    edges = [1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0),
             math.sqrt(2.0 * _kernels._MAXLOG), 0.0]
    near = [v for e in edges for s in (1.0, -1.0)
            for v in (s * e, np.nextafter(s * e, -np.inf), np.nextafter(s * e, np.inf))]
    near += [e / _kernels._SQRT_HALF for e in (1.0, 8.0, math.sqrt(_kernels._MAXLOG))]
    x = np.concatenate([np.random.default_rng(3).uniform(-20.0, 5.0, 20_000),
                        np.linspace(-40.0, 40.0, 8001), near,
                        [np.inf, -np.inf, 1e300, -1e300, 5e-324, -5e-324]])
    got = _kernels._cephes_ndtr(x)
    want = np.array([scalar_ndtr(v) for v in x.tolist()])
    assert np.array_equal(bits(got), bits(want))
    # each branch was reached
    z = np.abs(x * _kernels._SQRT_HALF)
    for low, high in ((0.0, _kernels._SQRT_HALF), (_kernels._SQRT_HALF, 1.0), (1.0, 8.0),
                      (8.0, math.sqrt(_kernels._MAXLOG)), (math.sqrt(_kernels._MAXLOG), np.inf)):
        assert np.any((z >= low) & (z < high)), (low, high)
    assert math.isnan(_kernels._cephes_ndtr(np.array([np.nan]))[0])


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


# --- properties: degrees of freedom 1 to 30 000, p-values down to 1e-300 -------------------

degrees = st.one_of(st.integers(1, 40), st.integers(1, 30_000))
log10_p = st.floats(-300.0, 0.0)


@PROPERTY
@given(degrees, log10_p)
def test_t_tail_property(df, lp):
    t = float(special.stdtrit(df, 10.0**lp / 2))   # the lower tail holding p/2
    if math.isfinite(t):
        for v in (t, -t):
            assert_p(_kernels._stdtr(df, v), special.stdtr(df, v), mp_t_cdf(df, v))


@PROPERTY
@given(st.integers(1, 30), degrees, log10_p)
def test_f_tail_property(dfn, dfd, lp):
    x = float(special.betaincinv(dfd / 2, dfn / 2, 10.0**lp))   # I_x(dfd/2, dfn/2) = p
    if 0.0 < x < 1.0:
        f = (1.0 - x) / x * dfd / dfn
        assert_p(_kernels._fdtrc(dfn, dfd, f), special.fdtrc(dfn, dfd, f),
                 mp_f_sf(dfn, dfd, f))


@PROPERTY
@given(degrees, log10_p)
def test_chi2_tail_property(df, lp):
    x = float(special.chdtri(df, 10.0**lp))
    if math.isfinite(x) and x > 0.0:
        assert_p(_kernels._chdtrc(df, x), special.chdtrc(df, x), mp_chi2_sf(df, x))


def test_importing_the_cli_loads_no_scipy_and_no_synth():
    src = str(Path(marketpanel.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    code = ("import sys, marketpanel.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy' or m == 'marketpanel.synth'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
