"""Diagnostic battery: panel unit roots, Hausman specification test,
likelihood-ratio heteroskedasticity check, descriptive statistics and the
significance-annotated correlation matrix.

The panel unit-root rows are Harris-Tzavalis (1999) tests, which hold for a
fixed number of years as the number of firms grows; their p-values are normal
and the markdown shows them as brackets. Beside them, per-firm lag-0 ADF tests
are combined by Fisher's method (Maddala & Wu 1999), with the approximate
continuous MacKinnon (1994) p-values. The single-series ``adf_test`` compares
its statistic to the MacKinnon (2010) response surface for the constant-only
regression.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import ConstantSeries, TooFewGroups, TooShort
from .panel_core import PanelCodes
from .regress import _tall_r

# MacKinnon (2010) response-surface coefficients, constant-only regression,
# one variable: cv = b0 + b1/T + b2/T^2 + b3/T^3
_MACKINNON_CRIT = {
    "1%": (-3.43035, -6.5393, -16.786, -79.433),
    "5%": (-2.86154, -2.8903, -4.234, -40.040),
    "10%": (-2.56677, -1.5384, -2.809, 0.0),
}
# MacKinnon (1994) approximate asymptotic p-value surface, constant-only
_P_SMALL = (2.1659, 1.4412, 0.038269)     # tau <= tau_star
_P_LARGE = (1.7339, 0.93202, -0.12745, -0.010368)
_P_TAU_STAR = -1.61
_P_TAU_MIN = -18.83
_P_TAU_MAX = 2.74
# normal critical values of the Harris-Tzavalis z statistic (a left-tail test)
_NORMAL_CRIT = {level: _kernels._ndtri(q) for level, q in
                (("1%", 0.01), ("5%", 0.05), ("10%", 0.10))}


@dataclass(frozen=True)
class TestResult:
    """A named diagnostic outcome.

    Exactly one of ``p_value`` / ``critical_values`` drives ``decision``;
    decisions are taken at the 5% level.
    """

    name: str
    statistic: float
    p_value: float | None
    critical_values: dict[str, float] | None
    decision: str  # "reject" | "fail_to_reject"
    detail: str = ""


@dataclass(frozen=True)
class VariableSummary:
    name: str
    n: int
    minimum: float
    maximum: float
    mean: float
    std: float | None
    flag: str = ""


@dataclass(frozen=True)
class CorrelationResult:
    """Pairwise Pearson correlations with two-sided p-values.

    Cells are NaN where a variable is constant or fewer than three complete
    pairs exist.
    """

    variables: tuple[str, ...]
    r: np.ndarray
    p: np.ndarray
    n: np.ndarray


@dataclass(frozen=True)
class StationarityRow:
    variable: str
    level: TestResult | None
    difference: TestResult | None
    order: str
    fisher: TestResult | None


def mackinnon_crit(nobs: int) -> dict[str, float]:
    """Finite-sample ADF critical values (constant-only regression)."""
    out = {}
    for level, (b0, b1, b2, b3) in _MACKINNON_CRIT.items():
        out[level] = b0 + b1 / nobs + b2 / nobs**2 + b3 / nobs**3
    return out


def _mackinnon_pvalues(stat: np.ndarray) -> np.ndarray:
    c, d = _P_SMALL, _P_LARGE
    small = c[0] + c[1] * stat + c[2] * stat**2
    large = d[0] + d[1] * stat + d[2] * stat**2 + d[3] * stat**3
    p = _kernels._cephes_ndtr(np.where(stat <= _P_TAU_STAR, small, large))
    return np.where(stat <= _P_TAU_MIN, 0.0, np.where(stat >= _P_TAU_MAX, 1.0, p))


def mackinnon_pvalue(stat: float) -> float:
    """Approximate asymptotic p-value for the constant-only ADF t statistic."""
    return float(_mackinnon_pvalues(np.array([stat], dtype=float))[0])


def _pvalue_bracket(stat: float, crit: dict[str, float]) -> str:
    if stat < crit["1%"]:
        return "<0.01"
    if stat < crit["5%"]:
        return "<0.05"
    if stat < crit["10%"]:
        return "<0.10"
    return ">=0.10"


def _adf_t(r: np.ndarray, df: int) -> float:
    """The ADF t statistic from the R factor of [..., y_{t-1}, dy_t].

    With the lagged level as the last regressor, its coefficient is
    r[-2, -1] / r[-2, -2], its standard error sigma / |r[-2, -2]|, and
    sigma = |r[-1, -1]| / sqrt(df).
    """
    level, resid = r[-2, -2], r[-1, -1]
    if level == 0.0 or resid == 0.0:
        raise ConstantSeries("degenerate ADF regression")
    return float(np.sign(level) * r[-2, -1] * math.sqrt(df) / abs(resid))


def _adf_df(nobs: int, lags: int) -> int:
    df = nobs - (lags + 2)
    if df <= 0:
        raise TooShort(f"{nobs} observations for {lags + 2} ADF regressors")
    return df


def _adf_search(y: np.ndarray, max_lags: int) -> tuple[int, np.ndarray, np.ndarray]:
    """AIC lag choice on the common sample implied by ``max_lags``.

    One QR of [1, y_{t-1}, dy_{t-1}, ..., dy_{t-max_lags}, dy_t], built from
    row blocks by ``regress._tall_r``, serves every nested regression: the
    RSS on the first m columns is the squared norm of the last column of R
    below row m. Returns the lag, R (square, zero rows where a saturated fit
    has fewer rows than columns) and the RSS on the first m columns by m.
    """
    dy = np.diff(y)
    rows = np.arange(max_lags + 1, len(y))
    nobs = len(rows)
    cols = [np.ones(nobs), y[rows - 1]]
    cols += [dy[rows - 1 - j] for j in range(1, max_lags + 1)]
    cols.append(dy[rows - 1])
    r = np.zeros((len(cols), len(cols)))
    tall = _tall_r(np.column_stack(cols))
    r[:len(tall)] = tall
    rss_from = np.cumsum(r[::-1, -1] ** 2)[::-1]
    best_lag, best_aic = 0, math.inf
    for p in range(max_lags + 1):
        rss = float(rss_from[p + 2])
        if rss <= 0:
            return p, r, rss_from
        aic = nobs * math.log(rss / nobs) + 2 * (p + 2)
        if aic < best_aic - 1e-12:
            best_aic, best_lag = aic, p
    return best_lag, r, rss_from


def _adf_searched_stat(y: np.ndarray, max_lags: int) -> tuple[int, float, int]:
    """The lag AIC chooses, the ADF statistic at that lag and its nobs.

    The statistic's regression adds, to the common sample of the lag search,
    the max_lags - lag leading rows that sample dropped. Its R factor is that
    of the search's R restricted to the chosen columns and dy_t, with the
    square root of the RSS below them as dy_t's residual entry, stacked on
    those rows (a QR row update, Golub & Van Loan, Matrix Computations 6.5):
    one small QR in place of a second QR over every row. A fit whose residual
    is below 1e-12 of |dy_t| is exact (an exact trend): its statistic would be
    rounding residue, so it raises :class:`ConstantSeries`.
    """
    lags, r, rss_from = _adf_search(y, max_lags)
    nobs = len(y) - 1 - lags
    df = _adf_df(nobs, lags)
    k = lags + 2   # the constant, y_{t-1} and the lags, in the search's order
    search = np.zeros((k + 1, k + 1))
    search[:k, :k] = r[:k, :k]
    search[:k, k] = r[:k, -1]
    search[k, k] = math.sqrt(rss_from[k])
    dy = np.diff(y)
    rows = np.arange(lags + 1, min(max_lags + 1, len(y)))
    dropped = np.column_stack([np.ones(len(rows)), y[rows - 1],
                               *(dy[rows - 1 - j] for j in range(1, lags + 1)),
                               dy[rows - 1]])
    # the order _adf_t reads: [1, dy lags, y_{t-1}, dy_t]
    order = [0, *range(2, k), 1, k]
    r = np.linalg.qr(np.vstack([search, dropped])[:, order], mode="r")
    if r[-1, -1] ** 2 <= 1e-24 * float(r[:, -1] @ r[:, -1]):
        raise ConstantSeries("the ADF regression fits exactly")
    return lags, _adf_t(r, df), nobs


def adf_test(series) -> TestResult:
    """Augmented Dickey-Fuller unit-root test with a constant.

    The lag count is chosen by AIC up to floor(12 * (T/100)^0.25). The
    statistic is compared to MacKinnon finite-sample critical values; the
    decision is taken at 5%. p-values appear only as interval brackets in
    ``detail``.
    """
    y = np.asarray(series, dtype=float)
    if y.ndim != 1:
        raise ValueError("series must be one-dimensional")
    T = len(y)
    max_lags = int(math.floor(12.0 * (T / 100.0) ** 0.25))
    max_lags = max(0, min(max_lags, (T - 1) // 2 - 2))
    # a series of 28 or more values passes, and has at least 8 lags to search
    if T < 20 + max_lags:
        raise TooShort(f"series length {T} below required {20 + max_lags}")
    if float(np.std(y)) == 0.0:
        raise ConstantSeries("series has zero variance")

    lags, stat, nobs = _adf_searched_stat(y, max_lags)
    crit = mackinnon_crit(nobs)
    decision = "reject" if stat < crit["5%"] else "fail_to_reject"
    detail = (f"lags={lags}, nobs={nobs}, p-bracket={_pvalue_bracket(stat, crit)}, "
              f"approx_p={mackinnon_pvalue(stat):.4g}")
    return TestResult(name="adf", statistic=stat, p_value=None,
                      critical_values=crit, decision=decision, detail=detail)


def panel_stationarity(columns: dict[str, np.ndarray], firm: np.ndarray) -> list[StationarityRow]:
    """Unit-root battery per panel variable.

    ``columns`` maps each variable to a column of panel rows and ``firm``
    gives each row's firm code; a firm's rows are adjacent and in year
    order. A variable's NaNs are left out, and its remaining values are
    tested by :func:`_harris_tzavalis`; a per-firm ADF (lag 0, relaxed
    length) combined by Fisher's method is reported alongside. Variables
    whose level test fails are retried in first differences, taken between
    adjacent values of one firm, and classified I(1) when the differenced
    test rejects. A level test that cannot run leaves the row without one:
    its order is "degenerate" when the fit is exact or the lagged level
    constant (an exact trend such as firm age), "unavailable" when too few
    firms or years remain.
    """
    out = []
    for name, column in columns.items():
        present = ~np.isnan(column)
        y, groups = column[present], firm[present]
        level = difference = None
        try:
            level = _harris_tzavalis(y, groups)
        except ConstantSeries:
            order = "degenerate"
        except TooShort:
            order = "unavailable"
        else:
            order = "I(0)"
            if level.decision != "reject":
                within = groups[1:] == groups[:-1]
                try:
                    difference = _harris_tzavalis(np.diff(y)[within], groups[1:][within])
                    order = "I(1)" if difference.decision == "reject" else "I(2+)"
                except (TooShort, ConstantSeries):
                    order = "I(1?)"

        fisher = _fisher_combination(name, y, groups)
        out.append(StationarityRow(variable=name, level=level, difference=difference,
                                   order=order, fisher=fisher))
    return out


def _firm_sizes(firm: np.ndarray) -> np.ndarray:
    """The number of rows of each firm, in row order; a firm's rows are adjacent."""
    starts = np.flatnonzero(np.r_[True, firm[1:] != firm[:-1]])
    return np.diff(np.r_[starts, len(firm)])


def _harris_tzavalis(y: np.ndarray, firm: np.ndarray) -> TestResult:
    """Harris & Tzavalis (1999) panel unit-root test with firm intercepts.

    ``y`` holds each firm's values one firm after another, in year order, and
    ``firm`` their firm codes. The test needs one length for every firm, so it
    uses the firms with the modal number of values (the longer length on a
    tie): N firms with T + 1 values each, T regression periods. rho is the
    pooled within-firm slope of y_t on y_{t-1}, and under a unit root with
    i.i.d. errors, as N grows with T fixed,
    z = sqrt(N) (rho - 1 + 3/(T+1)) / sqrt(3 (17T^2 - 20T + 17) / (5 (T-1) (T+1)^3))
    is standard normal; p = Phi(z), and the test rejects when p < 0.05.
    Raises :class:`TooShort` below 2 firms or 2 periods, and
    :class:`ConstantSeries` when the demeaned lagged level does not vary
    (Sxx at most 1e-24 sum x^2) or the fit is exact (RSS at most 1e-24 of
    the demeaned y_t's sum of squares), as ``_lag0_adf_stats`` rules.
    """
    sizes = _firm_sizes(firm)
    lengths, counts = np.unique(sizes, return_counts=True)
    length = int(lengths[counts == counts.max()][-1])
    keep = sizes == length
    n, t = int(np.count_nonzero(keep)), length - 1
    if n < 2 or t < 2:
        raise TooShort(f"{n} firms with {t} regression periods; "
                       "Harris-Tzavalis needs 2 of each")
    v = y[np.repeat(keep, sizes)].reshape(n, length)
    x, yt = v[:, :-1], v[:, 1:]
    xc = x - x.mean(axis=1, keepdims=True)
    yc = yt - yt.mean(axis=1, keepdims=True)
    sxx = float(np.sum(xc * xc))
    if not sxx > 1e-24 * float(np.sum(x * x)):
        raise ConstantSeries("the lagged level does not vary within firms")
    rho = float(np.sum(xc * yc)) / sxx
    resid = yc - rho * xc
    if not float(np.sum(resid * resid)) > 1e-24 * float(np.sum(yc * yc)):
        raise ConstantSeries("the Harris-Tzavalis regression fits exactly")
    variance = 3.0 * (17 * t * t - 20 * t + 17) / (5.0 * (t - 1) * (t + 1) ** 3)
    z = math.sqrt(n) * (rho - 1.0 + 3.0 / (t + 1)) / math.sqrt(variance)
    p = float(_kernels._cephes_ndtr(z))
    decision = "reject" if p < 0.05 else "fail_to_reject"
    detail = (f"lag 0, i.i.d. errors, N → ∞ with T fixed; N={n}, T={t}, "
              f"rho={rho:.6g}; firms left out: {len(sizes) - n}")
    return TestResult(name="harris_tzavalis", statistic=z, p_value=p,
                      critical_values=dict(_NORMAL_CRIT), decision=decision, detail=detail)


def _lag0_adf_stats(y: np.ndarray, sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lag-0 ADF t statistics of many series at once, from segment sums.

    ``y`` holds the series one after another and ``sizes`` their lengths.
    Per series, dy_t is regressed on [y_{t-1}, 1]; with x = y_{t-1} and d = dy_t
    centred per series, beta = Sxd / Sxx and se^2 = RSS / ((n - 2) Sxx).
    Returns the statistics and a mask of the usable ones: the lagged level
    must vary (Sxx above 1e-24 sum x^2) and the fit must not be exact (RSS
    above 1e-24 sum d^2), because an exact fit leaves only rounding residue.
    """
    series = np.repeat(np.arange(len(sizes)), sizes)
    within = series[1:] == series[:-1]
    codes = series[1:][within]
    x = y[:-1][within]
    d = np.diff(y)[within]
    n_obs = sizes - 1

    def sums(v):
        return np.bincount(codes, weights=v, minlength=len(sizes))

    xc = x - (sums(x) / n_obs)[codes]
    dc = d - (sums(d) / n_obs)[codes]
    sxx = sums(xc * xc)
    with np.errstate(divide="ignore", invalid="ignore"):
        beta = sums(xc * dc) / sxx
        resid = dc - beta[codes] * xc
        rss = sums(resid * resid)
        stat = beta / np.sqrt(rss / (n_obs - 2) / sxx)
    usable = (sxx > 1e-24 * sums(x * x)) & (rss > 1e-24 * sums(d * d))
    return stat, usable


def _fisher_combination(name: str, y: np.ndarray, firm: np.ndarray) -> TestResult | None:
    """Combine per-firm ADF p-values: -2 sum(ln p_i) ~ chi2(2G).

    ``y`` holds each firm's values one firm after another and ``firm`` their
    firm codes. Per-firm series are short, so lag 0 is forced and the
    approximate MacKinnon p-values are used; the result is labelled
    approximate. Firms with fewer than 8 values, a constant lagged level or
    an exactly fitting regression (an exact trend such as age) are skipped
    and counted.
    """
    sizes = _firm_sizes(firm)
    long_enough = sizes >= 8
    skipped = len(sizes) - int(np.count_nonzero(long_enough))
    if not long_enough.any():
        return None
    stat, usable = _lag0_adf_stats(y[np.repeat(long_enough, sizes)], sizes[long_enough])
    skipped += int(np.count_nonzero(~usable))
    pvalues = np.clip(_mackinnon_pvalues(stat[usable]), 1e-6, 1 - 1e-6)
    if len(pvalues) == 0:
        return None
    statistic = -2.0 * float(np.sum(np.log(pvalues)))
    df = 2 * len(pvalues)
    p = _kernels._chdtrc(df, statistic)
    decision = "reject" if p < 0.05 else "fail_to_reject"
    detail = (f"{name}: Fisher chi2({df}) over {len(pvalues)} firms "
              f"({skipped} skipped), approximate small-sample p-values")
    return TestResult(name="adf_fisher", statistic=statistic, p_value=p,
                      critical_values=None, decision=decision, detail=detail)


def hausman_test(fe, re) -> TestResult:
    """Hausman comparison of fixed- and random-effects slope vectors.

    Both fits come from one design, so each holds ``C`` and then the same
    slopes in the same order: the slopes are read by position.
    H = d' (V_FE - V_RE)^+ d over the slopes, df = rank of the covariance
    difference. A non-positive-semidefinite difference is flagged in
    ``detail`` and handled with the Moore-Penrose pseudo-inverse.
    """
    d = fe.coefficients[1:] - re.coefficients[1:]
    v_diff = fe.covariance[1:, 1:] - re.covariance[1:, 1:]
    v_diff = (v_diff + v_diff.T) / 2.0

    eigvals = np.linalg.eigvalsh(v_diff)
    scale = max(abs(float(np.trace(v_diff))), 1e-300)
    psd = eigvals.min() >= -1e-10 * scale

    pinv = np.linalg.pinv(v_diff)
    statistic = float(d @ pinv @ d)
    df = int(np.linalg.matrix_rank(v_diff, tol=1e-12 * scale))
    df = max(df, 1)
    p = _kernels._chdtrc(df, max(statistic, 0.0))
    decision = "reject" if p < 0.05 else "fail_to_reject"
    detail = f"df={df}, slopes={list(fe.column_names[1:])}"
    if not psd:
        detail += "; covariance difference not PSD (pseudo-inverse used)"
    return TestResult(name="hausman", statistic=statistic, p_value=p,
                      critical_values=None, decision=decision, detail=detail)


def lr_heteroskedasticity(residuals, codes: PanelCodes) -> TestResult:
    """Likelihood-ratio test of equal residual variances across firms.

    LR = n ln(sigma2_pooled) - sum_g n_g ln(sigma2_g), compared to
    chi-squared with G-1 degrees of freedom. Group variances are maximum
    likelihood second moments of the residuals. ``codes`` are the design's
    panel codes, one firm per residual; groups are taken in firm-code order.
    """
    residuals = np.asarray(residuals, dtype=float)
    g = len(codes.firm_ids)
    if g < 2:
        raise TooFewGroups(f"need at least 2 groups, got {g}")
    sizes = codes.firm_sizes
    small = [codes.firm_ids[i] for i in np.flatnonzero(sizes < 3).tolist()]
    if small:
        raise TooFewGroups(f"groups with fewer than 3 residuals: {small}")

    n = len(residuals)
    pooled = float(residuals @ residuals) / n
    if pooled == 0.0:
        statistic = 0.0
    else:
        s2 = np.bincount(codes.firm, weights=residuals * residuals, minlength=g) / sizes
        if np.any(s2 == 0.0):
            statistic = math.inf
        else:
            # a small difference of large sums, so its last digits depend on the
            # order of the additions: subtract group by group, in firm-code order
            terms = np.concatenate([[n * math.log(pooled)], sizes * np.log(s2)])
            statistic = float(np.subtract.reduce(terms))
    df = g - 1
    # equal group variances can leave a statistic just below 0, where the
    # tail has no value: clamp the argument only
    p = _kernels._chdtrc(df, max(statistic, 0.0)) if math.isfinite(statistic) else 0.0
    decision = "reject" if p < 0.05 else "fail_to_reject"
    return TestResult(name="lr_heteroskedasticity", statistic=statistic, p_value=p,
                      critical_values=None, decision=decision,
                      detail=f"groups={g}, df={df}")


def descriptives(columns: dict[str, np.ndarray]) -> list[VariableSummary]:
    """Per-variable N, min, max, mean and sample standard deviation (n-1).

    NaNs are dropped per variable; a single observation reports no standard
    deviation and is flagged.
    """
    out = []
    for name, values in columns.items():
        v = np.asarray(values, dtype=float)
        v = v[np.isfinite(v)]
        if len(v) == 0:
            out.append(VariableSummary(name, 0, math.nan, math.nan, math.nan, None,
                                       flag="no observations"))
            continue
        std = float(np.std(v, ddof=1)) if len(v) > 1 else None
        flag = "" if len(v) > 1 else "single observation"
        out.append(VariableSummary(name=name, n=int(len(v)), minimum=float(v.min()),
                                   maximum=float(v.max()), mean=float(v.mean()),
                                   std=std, flag=flag))
    return out


def correlation_matrix(columns: dict[str, np.ndarray],
                       variables: tuple[str, ...] | None = None) -> CorrelationResult:
    """Pearson correlations with two-sided p-values, pairwise deletion.

    p comes from t = r sqrt((n-2)/(1-r^2)) with n-2 degrees of freedom.
    Constant variables (or pairs with fewer than 3 complete rows) report NaN.
    """
    names = tuple(variables) if variables is not None else tuple(columns)
    k = len(names)
    data = [np.asarray(columns[n], dtype=float) for n in names]
    r = np.full((k, k), np.nan)
    p = np.full((k, k), np.nan)
    n_mat = np.zeros((k, k), dtype=int)

    for i in range(k):
        for j in range(i, k):
            mask = np.isfinite(data[i]) & np.isfinite(data[j])
            n = int(mask.sum())
            n_mat[i, j] = n_mat[j, i] = n
            if n < 3:
                continue
            x, yv = data[i][mask], data[j][mask]
            sx, sy = float(np.std(x)), float(np.std(yv))
            if sx == 0.0 or sy == 0.0:
                continue
            if i == j:
                r[i, i], p[i, i] = 1.0, 0.0
                continue
            rij = float(np.corrcoef(x, yv)[0, 1])
            rij = max(-1.0, min(1.0, rij))
            r[i, j] = r[j, i] = rij
            if abs(rij) >= 1.0:
                pij = 0.0
            else:
                t = rij * math.sqrt((n - 2) / (1.0 - rij * rij))
                pij = 2.0 * _kernels._stdtr(n - 2, -abs(t))
            p[i, j] = p[j, i] = min(pij, 1.0)
    return CorrelationResult(variables=names, r=r, p=p, n=n_mat)
