"""Estimation core: the least-squares solve, the within (entity fixed-effects)
estimator, random-effects GLS, and covariance estimators.

All solvers go through a rank-revealing column-pivoted QR factorization with
tolerance 1e-10 * ||X||; raw normal equations exist only as a test oracle.
The factorization takes two steps: an unpivoted QR of the tall [X y], built
from small row blocks, leaves a (k+1) x (k+1) triangle, and the package's own
pivoted Householder pass factors that triangle once. No LAPACK call sees all
n rows at once, so OpenBLAS keeps each one on the calling thread. Inference
uses the t distribution at all sample sizes.
"""

import warnings
from typing import NamedTuple

import numpy as np

from . import _kernels
from .errors import (NegativeVarianceComponentWarning, RankDeficient, TooFewClusters,
                     TooFewGroups, TooFewObservations)
from .panel_core import PanelCodes, _group_sums

RANK_TOL_FACTOR = 1e-10
INTERCEPT_NAME = "C"
# elements per row block of _tall_r: blocks this small stay on one OpenBLAS thread
_BLOCK_ELEMENTS = 4096


class DesignMatrix(NamedTuple):
    """An n x k regressor stack with named columns and the rows' panel codes.

    ``codes`` give each row's firm and period, which the panel
    transformations and the period-clustered covariance read. A transformed
    copy of the same rows passes its source's ``codes`` along.
    :func:`design_matrix` builds and checks one from raw values.
    """

    values: np.ndarray
    column_names: tuple[str, ...]
    codes: PanelCodes


def design_matrix(values, column_names, codes: PanelCodes) -> DesignMatrix:
    """The design of ``values`` (n x k) as C-contiguous floats, checked.

    Raises ValueError unless the values are two-dimensional with one row per
    code and one unique name per column, and every value is finite.
    """
    values = np.ascontiguousarray(np.asarray(values, dtype=float))
    if values.ndim != 2:
        raise ValueError("design matrix must be two-dimensional")
    names = tuple(column_names)
    if len(names) != values.shape[1]:
        raise ValueError("column_names length does not match matrix width")
    if len(set(names)) != len(names):
        raise ValueError("column_names must be unique")
    if not np.all(np.isfinite(values)):
        bad = [names[j] for j in range(values.shape[1])
               if not np.all(np.isfinite(values[:, j]))]
        raise ValueError(f"non-finite values in columns: {bad}")
    if len(codes.firm) != values.shape[0]:
        raise ValueError("codes length does not match matrix height")
    return DesignMatrix(values, names, codes)


class FitResult(NamedTuple):
    """One estimation's estimates: ``C`` then the slopes, their covariance, the
    R-squared and the residuals; :meth:`rows` and :meth:`f_test` derive inference."""

    coefficients: np.ndarray
    covariance: np.ndarray
    column_names: tuple[str, ...]
    r_squared: float
    r_squared_kind: str
    nobs: int
    df_resid: int
    cov_kind: str
    residuals: np.ndarray

    def rows(self) -> list[tuple[str, float, float, float]]:
        """(name, coefficient, std_error, p_value) of each column, in column order,
        with two-sided t-distribution p-values on ``df_resid`` degrees of freedom."""
        std, _, p = _t_inference(self.coefficients, self.covariance, self.df_resid)
        return list(zip(self.column_names, self.coefficients.tolist(), std.tolist(),
                        p.tolist()))

    def f_test(self) -> tuple[float, float]:
        """F statistic and p-value of the hypothesis that every slope is zero."""
        return _f_statistic(self.r_squared, len(self.coefficients) - 1, self.df_resid)


class RandomEffects(NamedTuple):
    """Random-effects GLS coefficients, ``C`` then the design's columns, their
    covariance on the within sigma2_e and the mean quasi-demeaning weight ``theta``."""

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

    ``_tall_r`` factors [X y] as Q [R Q'y]. The pivoted Householder pass over
    the k x k R, also applied to Q'y, gives X P = (Q Q2) R2 and Q2'Q'y:
    residual column norms do not change under the left orthogonal factor Q,
    so the greedy pivot order and |diag R2| are those of a pivoted QR of X
    itself. The rank tolerance is 1e-10 ||R||_F, which equals 1e-10 ||X||_F.
    Raises :class:`RankDeficient` naming the dependent columns when the
    numerical rank falls short of the column count.
    """
    k = values.shape[1]
    r_xy = _tall_r(np.column_stack([values, y]))
    r_x = r_xy[:k, :k]
    piv, r, qty = _kernels._pivoted_qr(r_x, r_xy[:k, k])
    rank = int(np.sum(np.abs(np.diag(r)) > RANK_TOL_FACTOR * np.linalg.norm(r_x)))
    if rank < k:
        raise RankDeficient([names[j] for j in piv[rank:]])

    beta = np.empty(k)
    beta[piv] = _kernels._solve_upper(r, qty)
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
    return std, t, p


def no_within_variation(demeaned: np.ndarray, values: np.ndarray):
    """Whether the firm-demeaned ``values`` hold only rounding residue, per column: max|demeaned|
    <= 1e-12 max(1, max|values|), the floor making the rule absolute for |values| < 1."""
    return (np.max(np.abs(demeaned), axis=0)
            <= 1e-12 * np.maximum(1.0, np.max(np.abs(values), axis=0)))


def _r_squared(y, residuals):
    rss = float(residuals @ residuals)
    dev = y - y.mean()
    return max(0.0, 1.0 - rss / float(dev @ dev))


def _f_statistic(r2, k_model, df_resid):
    if k_model <= 0:
        return 0.0, 1.0
    if r2 >= 1.0:
        return np.inf, 0.0
    f = (r2 / k_model) / ((1.0 - r2) / df_resid)
    return float(f), _kernels._fdtrc(k_model, df_resid, f)


def within_transform(X: DesignMatrix, y) -> tuple[DesignMatrix, np.ndarray]:
    """Demean every column and y by its firm-group mean.

    A firm with a single row demeans to zeros: it contributes no within variation.
    """
    y = np.asarray(y, dtype=float)
    codes = X.codes
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
    residuals = np.asarray(residuals, dtype=float)
    n, k = X.values.shape
    codes = X.codes
    if len(codes.years) < 2:
        raise TooFewClusters(f"need at least 2 periods, got {len(codes.years)}")

    # period scores X_t' e_t, each period's rows added in row order
    scores = _group_sums(codes.period, len(codes.years), X.values * residuals[:, None])
    # sum_t s_t s_t', added period by period in calendar order
    meat = np.add.reduce(scores[:, :, None] * scores[:, None, :], axis=0)
    cov = xtx_inv @ meat @ xtx_inv * (n / (n - k))
    return (cov + cov.T) / 2.0


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
    # y without within variation is fitted exactly, whatever residue its demeaning left
    r_squared = 1.0 if no_within_variation(yw, y) else _r_squared(yw, residuals)
    return FitResult(coefficients=coefficients, covariance=covariance, column_names=names,
                     r_squared=r_squared, r_squared_kind="within",
                     nobs=n, df_resid=df_resid, cov_kind=cov_kind, residuals=residuals)


def re_fit(X: DesignMatrix, y) -> RandomEffects:
    """Random-effects GLS with Swamy-Arora variance components.

    sigma2_e comes from the within residuals, sigma2_u from the between
    regression; a negative between component is clamped to zero with a
    warning, which reduces the estimator to pooled OLS. Raises
    :class:`TooFewGroups` when the between regression has no residual degrees
    of freedom (G <= k + 1). The covariance sigma2_e (X*'X*)^-1 of the quasi-demeaned
    X* takes the within sigma2_e, as the fixed-effects one does, so the Hausman
    difference of the two is positive definite. Only what that comparison reads
    is returned: no t, p, F, residuals or R-squared.
    """
    y = np.asarray(y, dtype=float)
    n, k = X.values.shape
    codes = X.codes
    g = len(codes.firm_ids)

    df_within = n - k - g
    if df_within <= 0:
        raise TooFewObservations(f"n={n}, k={k}, groups={g}: no residual degrees of freedom")

    # within step
    Xw, yw = within_transform(X, y)
    beta_w, _ = _pivoted_qr_solve(Xw.values, yw, Xw.column_names)
    resid_w = yw - Xw.values @ beta_w
    sigma2_e = float(resid_w @ resid_w) / df_within

    # between step on group means, intercept included
    names = (INTERCEPT_NAME,) + X.column_names
    xbar = np.column_stack([np.ones(g), codes.firm_means(X.values)])
    ybar = codes.firm_means(y)
    t_sizes = codes.firm_sizes.astype(float)
    t_bar = n / g

    df_between = g - k - 1
    if df_between <= 0:
        raise TooFewGroups(f"groups={g}, k={k}: the between regression has no residual "
                           "degrees of freedom")
    beta_b, _ = _pivoted_qr_solve(xbar, ybar, names)
    resid_b = ybar - xbar @ beta_b
    sigma2_b = float(resid_b @ resid_b) / df_between
    sigma2_u = sigma2_b - sigma2_e / t_bar
    if sigma2_u < 0:
        warnings.warn(f"negative between variance component ({sigma2_u:.3g}) clamped to 0",
                      NegativeVarianceComponentWarning, stacklevel=2)
        sigma2_u = 0.0

    theta_by_group = 1.0 - np.sqrt(sigma2_e / (sigma2_e + t_sizes * sigma2_u))

    # quasi-demeaning, intercept included
    y_star = y - (theta_by_group * ybar)[codes.firm]
    v_star = (np.column_stack([np.ones(n), X.values])
              - (theta_by_group[:, None] * xbar)[codes.firm])
    beta, xtx_inv = _pivoted_qr_solve(v_star, y_star, names)
    covariance = sigma2_e * xtx_inv
    return RandomEffects(coefficients=beta, covariance=(covariance + covariance.T) / 2.0,
                         theta=float(theta_by_group.mean()))
