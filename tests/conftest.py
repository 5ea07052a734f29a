"""Shared builders for panel fixtures used across the test suite."""

import math
from typing import NamedTuple

import numpy as np
import pytest

from marketpanel import regress, variables
from marketpanel.beta import (DEFAULT_MIN_MONTHS, DEFAULT_WINDOW_MONTHS, ReturnPanel, _index_month,
                             _month_index)
from marketpanel.diagnostics import _mackinnon_pvalues, _pvalue_bracket
from marketpanel.errors import (ConstantSeries, MarketPanelError, TooFewObservations, TooShort,
                                UnknownMarket)
from marketpanel.panel_core import FundamentalsTable, PanelCodes, build_dataset
from marketpanel.regress import _tall_r

ROW_DEFAULTS = dict(firm_id="F1", market_id="M1", year=2015, price=2.0, book_value=1.5,
                    eps=0.2, sga=12.0, rd=2.0, sales=40.0, total_assets=100.0,
                    total_equity=55.0, establishment_year=2000, stakes=(0.30, 0.10),
                    book_value_prev=None)


def make_row(**fields):
    """One firm-year of raw fundamentals as a dict; ``None`` means no lagged book value."""
    unknown = set(fields) - set(ROW_DEFAULTS)
    assert not unknown, unknown
    return {**ROW_DEFAULTS, **fields}


def make_table(rows):
    """A FundamentalsTable of ``rows`` (dicts from ``make_row``), in their order, unvalidated."""
    columns = {name: [row[name] for row in rows] for name in ROW_DEFAULTS}
    prev = [math.nan if v is None else v for v in columns.pop("book_value_prev")]
    stakes = columns.pop("stakes")
    return FundamentalsTable.from_labels(
        columns.pop("firm_id"), columns.pop("market_id"),
        [s for row in stakes for s in row], [len(row) for row in stakes],
        book_value_prev=prev, **columns)


def table_rows(table):
    """A table's rows as ``make_row`` dicts, in row order."""
    off = table.stake_offsets.tolist()
    rows = []
    for i in range(len(table.year)):
        prev = float(table.book_value_prev[i])
        rows.append(make_row(
            firm_id=table.firm_ids[table.firm[i]], market_id=table.market_ids[table.market[i]],
            year=int(table.year[i]), establishment_year=int(table.establishment_year[i]),
            stakes=tuple(table.stakes[off[i]:off[i + 1]].tolist()),
            book_value_prev=None if math.isnan(prev) else prev,
            **{name: float(getattr(table, name)[i])
               for name in ("price", "book_value", "eps", "sga", "rd", "sales",
                            "total_assets", "total_equity")}))
    return rows


def make_panel(n_firms=4, n_years=5, start_year=2011, seed=0, market_id="M1"):
    """A small valid panel with mildly varying fundamentals."""
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n_firms):
        firm = f"F{i + 1}"
        for t in range(n_years):
            year = start_year + t
            rows.append(make_row(
                firm_id=firm, market_id=market_id, year=year,
                price=float(1.0 + rng.uniform(0.2, 3.0)),
                book_value=float(0.5 + rng.uniform(0.1, 2.0)),
                eps=float(rng.normal(0.15, 0.05)),
                sga=float(10.0 + rng.uniform(0, 5)), rd=float(rng.uniform(0, 3)),
                sales=float(30.0 + rng.uniform(0, 20)),
                total_assets=float(80.0 + rng.uniform(0, 60)),
                total_equity=float(40.0 + rng.uniform(0, 30)),
                establishment_year=1990 + i,
                stakes=(0.25 + 0.02 * i, 0.08),
                book_value_prev=1.0 if t == 0 else None))
    return build_dataset(make_table(rows),
                         {(market_id, start_year + t): 0.03 for t in range(n_years)})


def derived_column_names() -> tuple[str, ...]:
    """The names of the columns ``derive_all`` builds."""
    ds = make_panel(n_firms=1, n_years=2)
    betas = {(row["firm_id"], row["year"]): 1.0 for row in table_rows(ds.table)}
    return tuple(variables.derive_all(ds, betas).columns)


def fit_cells(fit: regress.FitResult, name: str) -> tuple[float, float, float]:
    """The (coefficient, std_error, p_value) of ``fit``'s column ``name``, from ``fit.rows()``."""
    return {column: (c, se, p) for column, c, se, p in fit.rows()}[name]


def coefficient(fit: regress.FitResult, name: str) -> float:
    return fit_cells(fit, name)[0]


def std_error(fit: regress.FitResult, name: str) -> float:
    return fit_cells(fit, name)[1]


def p_value(fit: regress.FitResult, name: str) -> float:
    return fit_cells(fit, name)[2]


def t_stat(fit: regress.FitResult, name: str) -> float:
    """The t statistic of ``fit``'s column ``name``: its coefficient over its std_error."""
    coef, se, _ = fit_cells(fit, name)
    return coef / se


def panel_codes(index) -> PanelCodes:
    """The PanelCodes of rows labelled ``index[i] = (firm, year)``, firms in sorted order."""
    firm_ids, firm = np.unique([f for f, _ in index], return_inverse=True)
    return PanelCodes.from_codes(firm_ids.tolist(), firm, [y for _, y in index])


def panel_matrix(values, names, index):
    """A DesignMatrix whose row i is labelled ``index[i] = (firm, year)``."""
    return regress.design_matrix(values, names, panel_codes(index))


def pooled_matrix(values, names):
    """A DesignMatrix of rows without panel structure: one firm, one period."""
    return regress.design_matrix(values, names, firm_codes(["pooled"] * len(values)))


def firm_codes(labels) -> PanelCodes:
    """The PanelCodes of rows whose firms are ``labels``, coded in sorted label order."""
    firm_ids, firm = np.unique(np.asarray(labels, dtype=str), return_inverse=True)
    return PanelCodes.from_codes(firm_ids.tolist(), firm, np.zeros(len(firm), dtype=np.int64))


def row_labels(X):
    """The (firm, year) label of each row of a panel DesignMatrix."""
    codes = X.codes
    return [(codes.firm_ids[f], int(codes.years[p]))
            for f, p in zip(codes.firm.tolist(), codes.period.tolist())]


def with_exact_age(X):
    """``X`` with an exact firm age: the year less a per-firm founding year, which
    firm demeaning turns into the common linear trend."""
    labels = row_labels(X)
    founded = {f: 1950.0 + 7 * i for i, f in enumerate(sorted({f for f, _ in labels}))}
    age = np.array([year - founded[f] for f, year in labels])
    return regress.design_matrix(np.column_stack([X.values, age]), X.column_names + ("Age",),
                                 X.codes)


@pytest.fixture
def small_panel():
    return make_panel()


def panel_design(n_firms=6, n_years=5, k=3, seed=0, beta=None, effect_sd=1.0,
                 noise_sd=1.0, effect_x_corr=0.0):
    """Random panel regression data with known slopes and entity effects.

    Returns (DesignMatrix, y, true_beta). ``effect_x_corr`` tilts the entity
    effects toward the firm means of the first regressor, which makes random
    effects inconsistent (the Hausman alternative).
    """
    rng = np.random.default_rng(seed)
    if beta is None:
        beta = rng.normal(0, 1, k)
    beta = np.asarray(beta, dtype=float)
    n = n_firms * n_years
    x = rng.normal(0, 1, (n, k)) + np.repeat(rng.normal(0, 1, (n_firms, k)),
                                             n_years, axis=0)
    effects = rng.normal(0, effect_sd, n_firms)
    if effect_x_corr:
        xbar = x[:, 0].reshape(n_firms, n_years).mean(axis=1)
        effects = effects + effect_x_corr * xbar
    y = (x @ beta + np.repeat(effects, n_years)
         + rng.normal(0, noise_sd, n))
    index = tuple((f"F{i + 1}", 2000 + t) for i in range(n_firms)
                  for t in range(n_years))
    names = tuple(f"x{j + 1}" for j in range(k))
    return panel_matrix(x, names, index), y, beta


def stacked(series_list):
    """Series laid end to end as one panel column, and each value's firm code."""
    column = np.concatenate([np.asarray(s, dtype=float) for s in series_list])
    firm = np.repeat(np.arange(len(series_list)), [len(s) for s in series_list])
    return column, firm


def ols_fit(X: regress.DesignMatrix, y, intercept: bool = True) -> regress.FitResult:
    """Ordinary least squares with classical covariance, built on the package's
    least-squares kernel. No command fits pooled OLS, so it lives with the tests.

    The intercept column is prepended under the name ``"C"`` when requested.
    p-values are two-sided from the t distribution with ``n - k`` residual
    degrees of freedom.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or y.shape[0] != len(X.values):
        raise ValueError("y must be a vector matching the design matrix height")
    if not np.all(np.isfinite(y)):
        raise ValueError("y contains non-finite values")

    if intercept:
        values = np.column_stack([np.ones(len(X.values)), X.values])
        names = (regress.INTERCEPT_NAME,) + X.column_names
    else:
        values = X.values
        names = X.column_names

    n, k = values.shape
    if n <= k:
        raise TooFewObservations(f"n={n} observations for k={k} parameters")

    beta, xtx_inv = regress._pivoted_qr_solve(values, y, names)
    residuals = y - values @ beta
    df_resid = n - k
    sigma2 = float(residuals @ residuals) / df_resid
    covariance = sigma2 * xtx_inv
    covariance = (covariance + covariance.T) / 2.0

    if intercept:
        r2 = regress._r_squared(y, residuals)
    else:
        # without an intercept the R-squared is uncentred: 1 - RSS / y'y
        rss, tss = float(residuals @ residuals), float(y @ y)
        if tss <= 0.0:
            r2 = 1.0 if rss <= 1e-30 else 0.0
        else:
            r2 = max(0.0, min(1.0, 1.0 - rss / tss))

    return regress.FitResult(coefficients=beta, covariance=covariance, column_names=names,
                             r_squared=r2, r_squared_kind="ordinary", nobs=n,
                             df_resid=df_resid, cov_kind="classical", residuals=residuals)


def normal_equations_oracle(X, y, intercept: bool = True) -> np.ndarray:
    """Test oracle: solve (X'X) beta = X'y directly."""
    y = np.asarray(y, dtype=float)
    values = X.values
    if intercept:
        values = np.column_stack([np.ones(len(X.values)), values])
    return np.linalg.solve(values.T @ values, values.T @ y)


def price_table(points: dict):
    """A PriceTable from {series_id: [(year, month, close), ...]}, codes in dict order."""
    from marketpanel.beta import PriceTable

    rows = np.array(sorted((code, year * 12 + month - 1, close)
                           for code, pts in enumerate(points.values())
                           for year, month, close in pts), dtype=float).reshape(-1, 3)
    return PriceTable(series_ids=tuple(points), codes=rows[:, 0].astype(np.int64),
                      months=rows[:, 1].astype(np.int64), closes=rows[:, 2].copy())


def return_panel(points: dict):
    """A ReturnPanel from {series_id: [(year, month, return), ...]}."""
    from marketpanel.beta import ReturnPanel

    months = sorted({year * 12 + month - 1
                     for pts in points.values() for year, month, _ in pts})
    column = {month: j for j, month in enumerate(months)}
    values = np.full((len(points), len(months)), np.nan)
    for row, pts in enumerate(points.values()):
        for year, month, value in pts:
            values[row, column[year * 12 + month - 1]] = value
    return ReturnPanel(series_ids=tuple(points), months=np.array(months, dtype=np.int64),
                       values=values, series_index={s: row for row, s in enumerate(points)})


def monthly_points(start_year, start_month, values):
    """[(year, month, value), ...] for consecutive months from (start_year, start_month)."""
    start = start_year * 12 + start_month - 1
    return [((start + i) // 12, (start + i) % 12 + 1, float(v)) for i, v in enumerate(values)]


# --- the one-window beta: the bit-identity reference of beta.all_betas ----------

class InsufficientWindow(MarketPanelError):
    pass


class ZeroMarketVariance(MarketPanelError):
    pass


class BetaEstimate(NamedTuple):
    firm_id: str
    year: int
    beta: float
    n_months: int
    window_start: tuple[int, int]


def _row(returns: ReturnPanel, series_id: str, error, what: str) -> int:
    row = returns.series_index.get(series_id)
    if row is None:
        raise error(f"{what} {series_id} has no return series")
    return row


def beta_for_year(returns: ReturnPanel, firm_id: str, market_id: str, year: int,
                  window_months: int = DEFAULT_WINDOW_MONTHS,
                  min_months: int = DEFAULT_MIN_MONTHS) -> BetaEstimate:
    """Slope of firm returns on market returns over the window ending Dec ``year``.

    Months where either side is missing are dropped; the ``min_months`` rule
    applies to the paired months that remain. beta = cov(R_i, R_m)/var(R_m),
    the OLS slope with intercept.
    """
    rows = [_row(returns, firm_id, TooShort, "firm"),
            _row(returns, market_id, UnknownMarket, "market")]
    firm, market = returns.window(rows, year, window_months)
    paired = ~np.isnan(firm) & ~np.isnan(market)

    n = int(paired.sum())
    if n < min_months:
        raise InsufficientWindow(
            f"{firm_id}, year {year}: {n} paired months < required {min_months}")

    ri, rm = firm[paired], market[paired]
    rm_centered = rm - rm.mean()
    var_m = float(rm_centered @ rm_centered)
    # relative guard: a constant series leaves only rounding residue behind
    if var_m <= 1e-24 * max(float(rm @ rm), 1e-300):
        raise ZeroMarketVariance(f"{market_id}: market returns constant in window")
    beta = float(rm_centered @ (ri - ri.mean())) / var_m

    # the window's first column, found as ReturnPanel.window finds it
    lo = int(np.searchsorted(returns.months, _month_index(year, 12) - window_months + 1,
                             side="left"))
    start = int(returns.months[lo + int(np.argmax(paired))])
    return BetaEstimate(firm_id=firm_id, year=year, beta=beta,
                        n_months=n, window_start=_index_month(start))


# --- the single-series ADF: the reference of acceptance criterion 6 -------------

# MacKinnon (2010) response-surface coefficients, constant-only regression,
# one variable: cv = b0 + b1/T + b2/T^2 + b3/T^3
_MACKINNON_CRIT = {
    "1%": (-3.43035, -6.5393, -16.786, -79.433),
    "5%": (-2.86154, -2.8903, -4.234, -40.040),
    "10%": (-2.56677, -1.5384, -2.809, 0.0),
}


def mackinnon_crit(nobs: int) -> dict[str, float]:
    """Finite-sample ADF critical values (constant-only regression)."""
    out = {}
    for level, (b0, b1, b2, b3) in _MACKINNON_CRIT.items():
        out[level] = b0 + b1 / nobs + b2 / nobs**2 + b3 / nobs**3
    return out


def mackinnon_pvalue(stat: float) -> float:
    """Approximate asymptotic p-value for the constant-only ADF t statistic."""
    return float(_mackinnon_pvalues(np.array([stat], dtype=float))[0])


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


def _adf_search(y: np.ndarray, max_lags: int) -> int:
    """AIC lag choice on the common sample implied by ``max_lags``.

    One QR of [1, y_{t-1}, dy_{t-1}, ..., dy_{t-max_lags}, dy_t], built from
    row blocks by ``regress._tall_r``, serves every nested regression: the
    RSS on the first m columns is the squared norm of the last column of R
    below row m (zero rows where a saturated fit has fewer rows than columns).
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
            return p
        aic = nobs * math.log(rss / nobs) + 2 * (p + 2)
        if aic < best_aic - 1e-12:
            best_aic, best_lag = aic, p
    return best_lag


class CriticalValueTest(NamedTuple):
    """A unit-root test decided by its 5% critical value: it has no p-value."""

    name: str
    statistic: float
    p_value: None
    critical_values: dict[str, float]
    decision: str  # "reject" | "fail_to_reject"
    detail: str


def adf_test(series) -> CriticalValueTest:
    """Augmented Dickey-Fuller unit-root test with a constant.

    The lag count is chosen by AIC up to floor(12 * (T/100)^0.25); the
    statistic then comes from one QR of [1, dy_{t-1}, ..., dy_{t-lags},
    y_{t-1}, dy_t] over every row that has the chosen lags. A fit whose
    residual is below 1e-12 of |dy_t| is exact (an exact trend): its
    statistic would be rounding residue, so it raises :class:`ConstantSeries`.
    The statistic is compared to MacKinnon finite-sample critical values; the
    decision is taken at 5%. p-values appear only as interval brackets in
    ``detail``.
    """
    y = np.asarray(series, dtype=float)
    if y.ndim != 1:
        raise ValueError("series must be one-dimensional")
    T = len(y)
    max_lags = int(math.floor(12.0 * (T / 100.0) ** 0.25))
    # at most (T-1)//2 - 2 lags leave every fit at least 2 residual degrees of freedom
    max_lags = max(0, min(max_lags, (T - 1) // 2 - 2))
    # a series of 28 or more values passes, and has at least 8 lags to search
    if T < 20 + max_lags:
        raise TooShort(f"series length {T} below required {20 + max_lags}")
    if float(np.std(y)) == 0.0:
        raise ConstantSeries("series has zero variance")

    lags = _adf_search(y, max_lags)
    dy = np.diff(y)
    rows = np.arange(lags + 1, T)
    nobs = len(rows)
    r = _tall_r(np.column_stack([np.ones(nobs), *(dy[rows - 1 - j] for j in range(1, lags + 1)),
                                 y[rows - 1], dy[rows - 1]]))
    if r[-1, -1] ** 2 <= 1e-24 * float(r[:, -1] @ r[:, -1]):
        raise ConstantSeries("the ADF regression fits exactly")
    stat = _adf_t(r, nobs - (lags + 2))
    crit = mackinnon_crit(nobs)
    decision = "reject" if stat < crit["5%"] else "fail_to_reject"
    detail = (f"lags={lags}, nobs={nobs}, p-bracket={_pvalue_bracket(stat, crit)}, "
              f"approx_p={mackinnon_pvalue(stat):.4g}")
    return CriticalValueTest(name="adf", statistic=stat, p_value=None,
                             critical_values=crit, decision=decision, detail=detail)
