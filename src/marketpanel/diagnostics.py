"""Diagnostic battery: panel unit roots, Hausman specification test,
likelihood-ratio heteroskedasticity check, descriptive statistics and the
significance-annotated correlation matrix.

The panel unit-root rows are Harris-Tzavalis (1999) tests, which hold for a
fixed number of years as the number of firms grows; their p-values are normal
and the markdown shows them as brackets. Beside them, per-firm lag-0 ADF tests
are combined by Fisher's method (Maddala & Wu 1999), with MacKinnon's (1994)
asymptotic p-values and firms assumed independent.
"""

import math
from typing import NamedTuple

import numpy as np

from . import _kernels
from .errors import ConstantSeries, NotPositiveDefinite, TooFewGroups, TooShort
from .panel_core import PanelCodes

# MacKinnon (1994) approximate asymptotic p-value surface, constant-only
_P_SMALL = (2.1659, 1.4412, 0.038269)     # tau <= tau_star
_P_LARGE = (1.7339, 0.93202, -0.12745, -0.010368)
_P_TAU_STAR = -1.61
_P_TAU_MIN = -18.83
_P_TAU_MAX = 2.74
# normal critical values of the Harris-Tzavalis z statistic (a left-tail test)
_NORMAL_CRIT = {level: _kernels._ndtri(q) for level, q in
                (("1%", 0.01), ("5%", 0.05), ("10%", 0.10))}


class TestResult(NamedTuple):
    """A named diagnostic outcome; its ``decision`` is taken from ``p_value``
    at the 5% level."""

    name: str
    statistic: float
    p_value: float
    critical_values: dict[str, float] | None
    detail: str = ""

    @property
    def decision(self) -> str:
        return "reject" if self.p_value < 0.05 else "fail_to_reject"


class VariableSummary(NamedTuple):
    name: str
    n: int
    minimum: float
    maximum: float
    mean: float
    std: float | None
    flag: str = ""


class CorrelationResult(NamedTuple):
    """Pairwise Pearson correlations with two-sided p-values.

    Cells are NaN where a variable is constant or fewer than three complete
    pairs exist.
    """

    variables: tuple[str, ...]
    r: np.ndarray
    p: np.ndarray
    n: np.ndarray


class StationarityRow(NamedTuple):
    variable: str
    level: TestResult | None
    difference: TestResult | None
    order: str
    fisher: TestResult | None


def _mackinnon_pvalues(stat: np.ndarray) -> np.ndarray:
    c, d = _P_SMALL, _P_LARGE
    small = c[0] + c[1] * stat + c[2] * stat**2
    large = d[0] + d[1] * stat + d[2] * stat**2 + d[3] * stat**3
    p = _kernels._cephes_ndtr(np.where(stat <= _P_TAU_STAR, small, large))
    return np.where(stat <= _P_TAU_MIN, 0.0, np.where(stat >= _P_TAU_MAX, 1.0, p))


def _pvalue_bracket(stat: float, crit: dict[str, float]) -> str:
    if stat < crit["1%"]:
        return "<0.01"
    if stat < crit["5%"]:
        return "<0.05"
    if stat < crit["10%"]:
        return "<0.10"
    return ">=0.10"


def panel_stationarity(columns: dict[str, np.ndarray], codes: PanelCodes) -> list[StationarityRow]:
    """Unit-root battery per panel variable.

    ``columns`` maps each variable to a column of panel rows and ``codes``
    are those rows' panel codes; a firm's rows are adjacent and in year
    order. A variable's NaNs are left out, and its remaining values are
    tested by :func:`_harris_tzavalis` on the firms of the modal length; a
    per-firm ADF (lag 0, relaxed length) combined by Fisher's method is
    reported alongside. Variables whose level test fails are retried in
    first differences, taken between adjacent values of one firm, and
    classified I(1) when the differenced test rejects. A level test that
    cannot run leaves the row without one: its order is "degenerate" when
    the fit is exact or the lagged level constant (an exact trend such as
    firm age), "unavailable" when too few firms or years remain.
    """
    out = []
    for name, column in columns.items():
        present = ~np.isnan(column)
        y, kept = column[present], codes.select(present)
        # the rows of the firms of the modal length (the longer one on a tie);
        # a firm's rows are adjacent, so sorting each column orders the firms by row
        _, rows = max(kept.firm_blocks, key=lambda b: (len(b[0]), b[1].shape[1]),
                      default=(None, np.empty((0, 0), dtype=np.int64)))
        block = y[np.sort(rows, axis=0)]
        level = difference = None
        try:
            level = _harris_tzavalis(block, len(kept.firm_ids))
        except ConstantSeries:
            order = "degenerate"
        except TooShort:
            order = "unavailable"
        else:
            order = "I(0)"
            if level.decision != "reject":
                # with 3 or more values, the level's length stays modal among the
                # firms with 2 or more, which are the differenced series' firms
                try:
                    difference = _harris_tzavalis(
                        np.diff(block, axis=1), int(np.count_nonzero(kept.firm_sizes >= 2)))
                    order = "I(1)" if difference.decision == "reject" else "I(2+)"
                except (TooShort, ConstantSeries):
                    order = "I(1?)"

        fisher = _fisher_combination(name, y, kept)
        out.append(StationarityRow(variable=name, level=level, difference=difference,
                                   order=order, fisher=fisher))
    return out


def _harris_tzavalis(block: np.ndarray, n_firms: int) -> TestResult:
    """Harris & Tzavalis (1999) panel unit-root test with firm intercepts.

    ``block`` holds N firms' values, one firm per row in year order: T + 1
    values each, T regression periods. They are the firms of one length
    out of ``n_firms``, because the test needs one length for every firm.
    rho is the pooled within-firm slope of y_t on y_{t-1}, and under a unit
    root with i.i.d. errors, as N grows with T fixed,
    z = sqrt(N) (rho - 1 + 3/(T+1)) / sqrt(3 (17T^2 - 20T + 17) / (5 (T-1) (T+1)^3))
    is standard normal; p = Phi(z), and the test rejects when p < 0.05.
    Raises :class:`TooShort` below 2 firms or 2 periods, and
    :class:`ConstantSeries` when the demeaned lagged level does not vary
    (Sxx at most 1e-24 sum x^2) or the fit is exact (RSS at most 1e-24 of
    the demeaned y_t's sum of squares), as ``_lag0_adf_stats`` rules.
    """
    n, t = block.shape[0], block.shape[1] - 1
    if n < 2 or t < 2:
        raise TooShort(f"{n} firms with {t} regression periods; "
                       "Harris-Tzavalis needs 2 of each")
    x, yt = block[:, :-1], block[:, 1:]
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
    detail = (f"lag 0, i.i.d. errors, N → ∞ with T fixed; N={n}, T={t}, "
              f"rho={rho:.6g}; firms left out: {n_firms - n}")
    return TestResult(name="harris_tzavalis", statistic=z, p_value=p,
                      critical_values=dict(_NORMAL_CRIT), detail=detail)


def _lag0_adf_stats(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lag-0 ADF t statistics of many series of one length at once.

    ``block`` holds one series per row. Per series, dy_t is regressed on [y_{t-1}, 1];
    with x = y_{t-1} and d = dy_t centred per series, beta = Sxd / Sxx and
    se^2 = RSS / ((n - 2) Sxx), each sum adding a row's values left to right.
    Returns the statistics and a mask of the usable ones: the lagged level must
    vary (Sxx above 1e-24 sum x^2) and the fit must not be exact (RSS above
    1e-24 sum d^2), because an exact fit leaves only rounding residue.
    """
    x, d = block[:, :-1], np.diff(block, axis=1)
    n_obs = x.shape[1]

    def sums(v):
        total = np.zeros(len(v))
        for column in v.T:
            total += column
        return total

    xc = x - (sums(x) / n_obs)[:, None]
    dc = d - (sums(d) / n_obs)[:, None]
    sxx = sums(xc * xc)
    with np.errstate(divide="ignore", invalid="ignore"):
        beta = sums(xc * dc) / sxx
        resid = dc - beta[:, None] * xc
        rss = sums(resid * resid)
        stat = beta / np.sqrt(rss / (n_obs - 2) / sxx)
    usable = (sxx > 1e-24 * sums(x * x)) & (rss > 1e-24 * sums(d * d))
    return stat, usable


def _fisher_combination(name: str, y: np.ndarray, codes: PanelCodes) -> TestResult | None:
    """Combine per-firm ADF p-values: -2 sum(ln p_i) ~ chi2(2G).

    ``y`` holds the values of the rows of ``codes``, each firm's in year
    order. Per-firm series are short, so lag 0 is forced; the p-values are
    MacKinnon's (1994) asymptotic ones and the firms are assumed independent,
    as ``detail`` says. Firms with fewer than 8 values, a constant lagged
    level or an exactly fitting regression (an exact trend such as age) are
    skipped and counted.
    """
    blocks = [(rows[:, 0], *_lag0_adf_stats(y[rows]))
              for _, rows in codes.firm_blocks if rows.shape[1] >= 8]
    if not blocks:
        return None
    first, stat, usable = map(np.concatenate, zip(*blocks))
    # the usable statistics in the order of each firm's first row
    stat = stat[usable][np.argsort(first[usable])]
    skipped = len(codes.firm_ids) - len(stat)
    pvalues = np.clip(_mackinnon_pvalues(stat), 1e-6, 1 - 1e-6)
    if len(pvalues) == 0:
        return None
    statistic = -2.0 * float(np.sum(_kernels._log(pvalues)))
    df = 2 * len(pvalues)
    p = _kernels._chdtrc(df, statistic)
    detail = (f"{name}: Fisher chi2({df}) over {len(pvalues)} firms ({skipped} skipped), "
              "asymptotic MacKinnon (1994) p-values, firms assumed independent")
    return TestResult(name="adf_fisher", statistic=statistic, p_value=p,
                      critical_values=None, detail=detail)


def hausman_test(fe, re) -> TestResult:
    """Hausman (1978) comparison of fixed- and random-effects slope vectors.

    Both fits come from one design, so each holds ``C`` and then the same
    slopes in the same order: the slopes are read by position. Both
    covariances carry the within sigma2_e (Stata's ``hausman, sigmaless``),
    so V = V_FE - V_RE is positive definite, and H = d' V^-1 d over the k
    slopes, solved through V's Cholesky factor (read from its lower triangle),
    is Mundlak's (1978) augmented-regression Wald statistic, chi2 with df = k.
    Raises :class:`NotPositiveDefinite` when rounding leaves V without one.
    """
    d = fe.coefficients[1:] - re.coefficients[1:]
    try:
        lower = np.linalg.cholesky(fe.covariance[1:, 1:] - re.covariance[1:, 1:])
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite("V_FE - V_RE is not positive definite") from None
    z = np.linalg.solve(lower, d)
    statistic, df = float(z @ z), len(d)
    detail = f"df={df}, slopes={list(fe.column_names[1:])}; the within sigma2_e in V_FE and V_RE"
    return TestResult(name="hausman", statistic=statistic, p_value=_kernels._chdtrc(df, statistic),
                      critical_values=None, detail=detail)


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
            terms = np.concatenate([[n * math.log(pooled)], sizes * _kernels._log(s2)])
            statistic = float(np.subtract.reduce(terms))
    df = g - 1
    # equal group variances can leave a statistic just below 0, where the
    # tail has no value: clamp the argument only; an infinite one has tail 0
    p = _kernels._chdtrc(df, max(statistic, 0.0))
    return TestResult(name="lr_heteroskedasticity", statistic=statistic, p_value=p,
                      critical_values=None, detail=f"groups={g}, df={df}")


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


def correlation_matrix(columns: dict[str, np.ndarray]) -> CorrelationResult:
    """Pearson correlations with two-sided p-values, pairwise deletion.

    The variables are the columns, in their order. p comes from
    t = r sqrt((n-2)/(1-r^2)) with n-2 degrees of freedom. Constant
    variables (or pairs with fewer than 3 complete rows) report NaN.
    """
    names = tuple(columns)
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
            r[i, j] = r[j, i] = rij
            if abs(rij) >= 1.0:
                pij = 0.0
            else:
                t = rij * math.sqrt((n - 2) / (1.0 - rij * rij))
                pij = 2.0 * _kernels._stdtr(n - 2, -abs(t))
            p[i, j] = p[j, i] = pij
    return CorrelationResult(variables=names, r=r, p=p, n=n_mat)
