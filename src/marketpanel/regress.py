"""Estimation core: the least-squares solve, the within (entity fixed-effects)
estimator, random-effects GLS, and covariance estimators.

All solvers go through a rank-revealing column-pivoted QR factorization with
tolerance 1e-10 * ||X||; raw normal equations exist only as a test oracle.
The factorization takes two steps: an unpivoted QR of the tall [X y], built
from small row blocks, leaves a (k+1) x (k+1) triangle, and the pivoted QR
runs on that triangle only. No LAPACK call sees all n rows at once, so
OpenBLAS keeps each one on the calling thread. Inference uses the t
distribution at all sample sizes.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import (CollinearityProximityWarning, NegativeVarianceComponentWarning,
                     RankDeficient, SingletonGroupWarning, TooFewClusters,
                     TooFewObservations)
from .panel_core import PanelCodes

RANK_TOL_FACTOR = 1e-10
INTERCEPT_NAME = "C"
# elements per row block of _tall_r: blocks this small stay on one OpenBLAS thread
_BLOCK_ELEMENTS = 4096


@dataclass(frozen=True)
class DesignMatrix:
    """An n x k regressor stack with named columns and optional panel codes.

    ``codes`` give each row's firm and period; the panel transformations and
    the period-clustered covariance require them. A transformed copy of the
    same rows passes its source's ``codes`` along.
    """

    values: np.ndarray
    column_names: tuple[str, ...]
    codes: PanelCodes | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        values = np.ascontiguousarray(np.asarray(self.values, dtype=float))
        if values.ndim != 2:
            raise ValueError("design matrix must be two-dimensional")
        object.__setattr__(self, "values", values)
        names = tuple(self.column_names)
        object.__setattr__(self, "column_names", names)
        if len(names) != values.shape[1]:
            raise ValueError("column_names length does not match matrix width")
        if len(set(names)) != len(names):
            raise ValueError("column_names must be unique")
        if not np.all(np.isfinite(values)):
            bad = [names[j] for j in range(values.shape[1])
                   if not np.all(np.isfinite(values[:, j]))]
            raise ValueError(f"non-finite values in columns: {bad}")
        if self.codes is not None and len(self.codes.firm) != values.shape[0]:
            raise ValueError("codes length does not match matrix height")


@dataclass(frozen=True)
class FitResult:
    """Coefficients with covariance and fit statistics for one estimation."""

    coefficients: np.ndarray
    covariance: np.ndarray
    std_errors: np.ndarray
    t_stats: np.ndarray
    p_values: np.ndarray
    column_names: tuple[str, ...]
    r_squared: float
    r_squared_kind: str
    f_statistic: float
    f_pvalue: float
    nobs: int
    df_resid: int
    cov_kind: str
    residuals: np.ndarray

    def rows(self) -> list[tuple[str, float, float, float]]:
        """(name, coefficient, std_error, p_value) of each column, in column order."""
        return list(zip(self.column_names, self.coefficients.tolist(),
                        self.std_errors.tolist(), self.p_values.tolist()))


@dataclass(frozen=True)
class RandomEffects:
    """Random-effects GLS coefficients, ``C`` then the design's columns, their
    classical covariance and the mean quasi-demeaning weight ``theta``."""

    coefficients: np.ndarray
    covariance: np.ndarray
    theta: float


def _tall_r(a: np.ndarray) -> np.ndarray:
    """R factor of ``a`` (n x k), equal to ``np.linalg.qr(a, mode="r")`` up to row signs.

    Tall-skinny QR: one stacked QR of row blocks of max(2k, 4096 // k) rows
    leaves one k x k triangle per block; the triangles and the leftover rows
    are factored again the same way until at most one block remains
    (Demmel, Grigori, Hoemmen & Langou 2012). Each block has at most 4096
    elements for k <= 45.
    """
    n, k = a.shape
    rows = max(2 * k, _BLOCK_ELEMENTS // k)
    if n <= rows:
        return np.linalg.qr(a, mode="r")
    split = n - n % rows
    stacked = np.linalg.qr(a[:split].reshape(-1, rows, k), mode="r")
    return _tall_r(np.concatenate([stacked.reshape(-1, k), a[split:]]))


def _pivoted_qr_solve(values: np.ndarray, y: np.ndarray, names: tuple[str, ...]):
    """Least-squares solve via column-pivoted QR; returns (beta, xtx_inv).

    ``_tall_r`` factors [X y] as Q [R Q'y]. The pivoted QR of the k x k R
    then gives X P = (Q Q2) R2: residual column norms do not change under the
    left orthogonal factor Q, so the greedy pivot order and |diag R2| are
    those of a pivoted QR of X itself. The rank tolerance is 1e-10 ||R||_F,
    which equals 1e-10 ||X||_F. Raises :class:`RankDeficient` naming the
    dependent columns when the numerical rank falls short of the column
    count.
    """
    k = values.shape[1]
    r_xy = _tall_r(np.column_stack([values, y]))
    r_x = r_xy[:k, :k]
    piv = _kernels._qr_pivots(r_x)
    # LAPACK's QR of the reordered columns makes the reflections dgeqp3 makes
    q, r = np.linalg.qr(r_x[:, piv])
    rank = int(np.sum(np.abs(np.diag(r)) > RANK_TOL_FACTOR * np.linalg.norm(r_x)))
    if rank < k:
        raise RankDeficient([names[j] for j in piv[rank:]])

    beta = np.empty(k)
    beta[piv] = _kernels._solve_upper(r, q.T @ r_xy[:k, k])
    r_inv = _kernels._solve_upper(r, np.eye(k))
    xtx_inv = np.empty((k, k))
    xtx_inv[np.ix_(piv, piv)] = r_inv @ r_inv.T
    return beta, xtx_inv


def _t_inference(beta, covariance, df_resid):
    std = np.sqrt(np.clip(np.diag(covariance), 0.0, None))
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(std > 0, beta / std, np.inf * np.sign(beta))
    t = np.where((std == 0) & (beta == 0), 0.0, t)
    p = 2.0 * np.array([_kernels._stdtr(df_resid, -abs(v)) for v in t.tolist()])
    return std, t, np.clip(p, 0.0, 1.0)


def _r_squared(y, residuals):
    rss = float(residuals @ residuals)
    dev = y - y.mean()
    tss = float(dev @ dev)
    if tss <= 0.0:
        return 1.0 if rss <= 1e-30 else 0.0
    return max(0.0, min(1.0, 1.0 - rss / tss))


def _f_statistic(r2, k_model, df_resid):
    if k_model <= 0 or df_resid <= 0:
        return 0.0, 1.0
    if r2 >= 1.0:
        return np.inf, 0.0
    f = (r2 / k_model) / ((1.0 - r2) / df_resid)
    return float(f), _kernels._fdtrc(k_model, df_resid, f)


def within_transform(X: DesignMatrix, y, warn: bool = True) -> tuple[DesignMatrix, np.ndarray]:
    """Demean every column and y by its firm-group mean.

    Firms with a single row contribute zero within variation and trigger a
    :class:`SingletonGroupWarning` (suppressed with ``warn=False`` for
    internal re-transforms).
    """
    if X.codes is None:
        raise ValueError("within transform requires panel codes")
    y = np.asarray(y, dtype=float)
    codes = X.codes
    singletons = [codes.firm_ids[g] for g in np.flatnonzero(codes.firm_sizes == 1)]
    if singletons and warn:
        warnings.warn(f"groups with one row contribute no within variation: {singletons}",
                      SingletonGroupWarning, stacklevel=2)

    values = X.values - codes.firm_means(X.values)[codes.firm]
    y_out = y - codes.firm_means(y)[codes.firm]
    return DesignMatrix(values, X.column_names, codes), y_out


def robust_cov_white_cross_section(X: DesignMatrix, residuals,
                                   xtx_inv: np.ndarray) -> np.ndarray:
    """Period-clustered sandwich covariance (White cross-section).

    (X'X)^-1 (sum_t X_t' e_t e_t' X_t) (X'X)^-1 with periods taken from the
    panel codes and ``xtx_inv`` the fit's (X'X)^-1, scaled by n/(n - k).
    Robust to heteroskedasticity and to contemporaneous cross-firm correlation.
    """
    if X.codes is None:
        raise ValueError("white cross-section covariance requires panel codes")
    residuals = np.asarray(residuals, dtype=float)
    n, k = X.values.shape
    codes = X.codes
    if len(codes.years) < 2:
        raise TooFewClusters(f"need at least 2 periods, got {len(codes.years)}")

    # period scores X_t' e_t, one matrix-vector product per period as a stack
    scores = np.empty((len(codes.years), k))
    for periods, rows in codes.period_blocks:
        scores[periods] = np.matmul(X.values[rows].transpose(0, 2, 1),
                                    residuals[rows][..., None])[..., 0]
    # sum_t s_t s_t', added period by period in order of first appearance
    meat = np.add.reduce(scores[:, :, None] * scores[:, None, :], axis=0)
    cov = xtx_inv @ meat @ xtx_inv
    if n > k:
        cov *= n / (n - k)
    return (cov + cov.T) / 2.0


def _trend_collinearity_check(Xw: DesignMatrix):
    """Warn when a demeaned column is nearly a common linear trend."""
    codes = Xw.codes
    years = codes.years[codes.period].astype(float)
    trend = years - codes.firm_means(years)[codes.firm]
    # norms by reduction: np.linalg.norm of a vector is a BLAS dot over all n rows
    t_norm = np.sqrt(np.add.reduce(trend * trend))
    if t_norm == 0:
        return
    x_norms = np.sqrt(np.add.reduce(Xw.values * Xw.values))
    with np.errstate(divide="ignore", invalid="ignore"):
        corr = np.abs(trend @ Xw.values) / (x_norms * t_norm)
    for j in np.flatnonzero(corr > 0.999):
        warnings.warn(
            f"column {Xw.column_names[j]!r} is within-collinear with a common linear trend "
            f"(|corr|={corr[j]:.6f}); estimable only because no time effects are included",
            CollinearityProximityWarning, stacklevel=3)


def fe_fit(X: DesignMatrix, y, cov_kind: str = "classical") -> FitResult:
    """Entity fixed-effects (within) estimator.

    OLS on firm-demeaned data; degrees of freedom are corrected for the
    estimated entity effects (df = n - k - G). The reported R-squared is the
    within R-squared. The intercept row ``"C"`` is the average effect
    ybar - xbar' beta.
    """
    if cov_kind not in ("classical", "white_cross_section"):
        raise ValueError(f"unknown cov_kind {cov_kind!r}")
    y = np.asarray(y, dtype=float)
    Xw, yw = within_transform(X, y)
    _trend_collinearity_check(Xw)

    n, k = Xw.values.shape
    codes = Xw.codes
    g = len(codes.firm_ids)
    df_resid = n - k - g
    if df_resid <= 0:
        raise TooFewObservations(f"n={n}, k={k}, groups={g}: no residual degrees of freedom")

    beta, xtx_inv = _pivoted_qr_solve(Xw.values, yw, Xw.column_names)
    residuals = yw - Xw.values @ beta
    sigma2 = float(residuals @ residuals) / df_resid

    if cov_kind == "classical":
        slope_cov = sigma2 * xtx_inv
    else:
        slope_cov = robust_cov_white_cross_section(Xw, residuals, xtx_inv)
    slope_cov = (slope_cov + slope_cov.T) / 2.0

    # average-effect intercept: C = ybar - xbar' beta; its grand-mean noise
    # term uses the classical sigma2 even under a robust slope covariance
    xbar = X.values.mean(axis=0)
    ybar = float(y.mean())
    const = ybar - float(xbar @ beta)
    v_xbar = slope_cov @ xbar
    covariance = np.empty((k + 1, k + 1))
    covariance[0, 0] = float(xbar @ v_xbar) + sigma2 / n
    covariance[0, 1:] = -v_xbar
    covariance[1:, 0] = -v_xbar
    covariance[1:, 1:] = slope_cov

    coefficients = np.concatenate([[const], beta])
    names = (INTERCEPT_NAME,) + Xw.column_names
    std, t, p = _t_inference(coefficients, covariance, df_resid)

    r2 = _r_squared(yw, residuals)
    f_stat, f_p = _f_statistic(r2, k, df_resid)

    return FitResult(coefficients=coefficients, covariance=covariance, std_errors=std,
                     t_stats=t, p_values=p, column_names=names,
                     r_squared=r2, r_squared_kind="within",
                     f_statistic=f_stat, f_pvalue=f_p, nobs=n, df_resid=df_resid,
                     cov_kind=cov_kind, residuals=residuals)


def re_fit(X: DesignMatrix, y) -> RandomEffects:
    """Random-effects GLS with Swamy-Arora variance components.

    sigma2_e comes from the within residuals, sigma2_u from the between
    regression; a negative between component is clamped to zero with a
    warning, which reduces the estimator to pooled OLS. Only what the Hausman
    comparison reads is returned: no t, p, F, residuals or R-squared.
    """
    if X.codes is None:
        raise ValueError("random effects requires panel codes")
    y = np.asarray(y, dtype=float)
    n, k = X.values.shape
    codes = X.codes
    g = len(codes.firm_ids)

    # within step
    Xw, yw = within_transform(X, y, warn=False)
    beta_w, _ = _pivoted_qr_solve(Xw.values, yw, Xw.column_names)
    resid_w = yw - Xw.values @ beta_w
    df_within = n - k - g
    if df_within <= 0:
        raise TooFewObservations(f"n={n}, k={k}, groups={g}: within step has no df")
    sigma2_e = float(resid_w @ resid_w) / df_within

    # between step on group means, intercept included
    names = (INTERCEPT_NAME,) + X.column_names
    xbar = np.column_stack([np.ones(g), codes.firm_means(X.values)])
    ybar = codes.firm_means(y)
    t_sizes = codes.firm_sizes.astype(float)
    t_bar = n / g

    df_between = g - k - 1
    if df_between <= 0:
        warnings.warn("too few groups for the between regression; using theta = 0",
                      NegativeVarianceComponentWarning, stacklevel=2)
        sigma2_u = 0.0
    else:
        beta_b, _ = _pivoted_qr_solve(xbar, ybar, names)
        resid_b = ybar - xbar @ beta_b
        sigma2_b = float(resid_b @ resid_b) / df_between
        sigma2_u = sigma2_b - sigma2_e / t_bar
        if sigma2_u < 0:
            warnings.warn(f"negative between variance component ({sigma2_u:.3g}) clamped to 0",
                          NegativeVarianceComponentWarning, stacklevel=2)
            sigma2_u = 0.0

    theta_by_group = 1.0 - np.sqrt(sigma2_e / (sigma2_e + t_sizes * sigma2_u))

    # quasi-demeaning, intercept included; df_within > 0 leaves n > k + 1
    y_star = y - (theta_by_group * ybar)[codes.firm]
    v_star = (np.column_stack([np.ones(n), X.values])
              - (theta_by_group[:, None] * xbar)[codes.firm])
    beta, xtx_inv = _pivoted_qr_solve(v_star, y_star, names)
    resid_star = y_star - v_star @ beta
    sigma2 = float(resid_star @ resid_star) / (n - k - 1)
    covariance = sigma2 * xtx_inv
    return RandomEffects(coefficients=beta, covariance=(covariance + covariance.T) / 2.0,
                         theta=float(theta_by_group.mean()))
