"""Declarative regression specifications and the estimation driver.

Four models: the firm-value equation (share price on book value, abnormal
earnings, marketing investment and controls) and the systematic-risk
equation (beta on marketing investment and controls), each in a direct and
an ownership-moderated form. Estimation always runs the Hausman FE-vs-RE
comparison for the record and then fits entity fixed effects with a White
cross-section covariance, mirroring the reported workflow.
"""

import warnings
from typing import NamedTuple

import numpy as np

from . import regress
from .diagnostics import TestResult, hausman_test, lr_heteroskedasticity
from .errors import (CollinearityProximityWarning, MarketPanelError, RankDeficient,
                     SingletonGroupWarning, TooFewObservations)
from .regress import DesignMatrix, FitResult, design_matrix
from .variables import DerivedPanel

MODEL_IDS = ("value_direct", "value_moderated", "risk_direct", "risk_moderated")
# marketing measure -> (short name on the command line and in robustness
# table names, derived panel column)
MARIN_VARIANTS = {"sales_ratio": ("sales", "Marin"),
                  "assets_ratio": ("assets", "MarinAssets"),
                  "log_level": ("log", "MarinLog")}
INTERACTION_NAME = "OW*Marin"


class ModelSpec(NamedTuple):
    """Declarative description of one regression. ``Marin`` is the column of
    ``marin_variant``; a regressor ``OW*Marin`` is ``OW`` times it and needs both."""

    model_id: str
    dependent: str
    regressors: tuple[str, ...]
    marin_variant: str = "sales_ratio"
    constrain_book_unit: bool = False


class EstimationReport(NamedTuple):
    """Publication-style record of one estimated model, written as ``table``; ``rows``
    and ``f_test`` are its fit's ``rows()`` and ``f_test()``, derived once for that table."""

    table: str
    model_id: str
    marin_variant: str
    fit: FitResult
    rows: list[tuple[str, float, float, float]]
    f_test: tuple[float, float]
    diagnostics: list[TestResult]
    n_input_rows: int
    n_excluded: int
    dropped_columns: tuple[str, ...]
    notes: list[str]

    @property
    def hausman_decision(self) -> str:
        """The Hausman test's decision, or "unavailable" when it could not run."""
        return next((t.decision for t in self.diagnostics if t.name == "hausman"),
                    "unavailable")


def spec_for(model_id: str, marin_variant: str = "sales_ratio",
             constrain_book_unit: bool = False) -> ModelSpec:
    """Build the canonical specification for one of the four models."""
    if model_id not in MODEL_IDS:
        raise ValueError(f"unknown model_id {model_id!r}")
    if model_id.startswith("value"):
        dependent = "P"
        regressors = ["X", "Marin", "Age", "Size", "Lev"]
        if not constrain_book_unit:
            regressors.insert(0, "B")
    else:
        dependent = "Bet"
        regressors = ["Marin", "Age", "Size", "Lev"]
        constrain_book_unit = False

    if model_id.endswith("_moderated"):
        regressors += ["OW", INTERACTION_NAME]

    return ModelSpec(model_id=model_id, dependent=dependent,
                     regressors=tuple(regressors), marin_variant=marin_variant,
                     constrain_book_unit=constrain_book_unit)


def build_interaction(marin, ow, centering: bool = False) -> np.ndarray:
    """Elementwise OW x Marin product, optionally mean-centering both first.

    Centering reparameterizes the main effects only; the interaction's test
    statistic and the fitted values are unchanged.
    """
    marin = np.asarray(marin, dtype=float)
    ow = np.asarray(ow, dtype=float)
    if centering:
        marin = marin - marin.mean()
        ow = ow - ow.mean()
    return marin * ow


def _assemble_design(panel: DerivedPanel, spec: ModelSpec, center: bool):
    base_names = [n for n in spec.regressors if n != INTERACTION_NAME]
    interacted = INTERACTION_NAME in spec.regressors
    needed = {*base_names, spec.dependent, *(("OW", "Marin") if interacted else ())}
    if spec.constrain_book_unit:
        needed.add("B")
    marin = panel.columns[MARIN_VARIANTS[spec.marin_variant][1]]
    col = {**panel.columns, "Marin": marin}.__getitem__   # an unknown name is a KeyError

    mask = np.logical_and.reduce([np.isfinite(col(name)) for name in needed])
    n_excluded = int((~mask).sum())

    y = col(spec.dependent)[mask]
    if spec.constrain_book_unit:
        y = y - col("B")[mask]

    data = {name: col(name)[mask] for name in base_names}
    if interacted:
        data[INTERACTION_NAME] = build_interaction(col("Marin")[mask], col("OW")[mask], center)

    values = np.column_stack([data[n] for n in spec.regressors])
    X = design_matrix(values, spec.regressors, panel.codes.select(mask))
    return X, y, n_excluded, len(mask)


def _check_design(X: DesignMatrix, y):
    """The design without the columns that have no within variation, and their names.

    Dropping them (OW identically zero, say) keeps estimation going when a
    moderated specification degenerates to the direct one. A kept column whose
    within values equal an earlier kept column's bit for bit raises
    :class:`RankDeficient` naming it before any QR can round the tie. The one
    within transform also serves two warnings: firms with one row add no within
    variation, and a column that is nearly a common linear trend once demeaned,
    as an exact firm age is, is estimable only because no time effects are included.
    """
    Xw, _ = regress.within_transform(X, y)
    codes = X.codes
    singletons = [codes.firm_ids[g] for g in np.flatnonzero(codes.firm_sizes == 1)]
    if singletons:
        warnings.warn(f"groups with one row contribute no within variation: {singletons}",
                      SingletonGroupWarning, stacklevel=2)
    keep = (~regress.no_within_variation(Xw.values, X.values)).tolist()
    years = codes.years[codes.period].astype(float)
    trend = years - codes.firm_means(years)[codes.firm]
    # norms by reduction: np.linalg.norm of a vector is a BLAS dot over all n rows
    t_norm = np.sqrt(np.add.reduce(trend * trend))
    x_norms = np.sqrt(np.add.reduce(Xw.values * Xw.values))
    # equal columns have equal norms: only pairs of equal norm are compared row by row
    kept = np.flatnonzero(keep)
    tied = [X.column_names[j] for j in kept
            if any(x_norms[i] == x_norms[j] and np.array_equal(Xw.values[:, i], Xw.values[:, j])
                   for i in kept[kept < j])]
    if tied:
        raise RankDeficient(tied)
    # a zero trend (no firm spans two years) gives 0/0: NaN, which warns of nothing
    with np.errstate(divide="ignore", invalid="ignore"):
        corr = np.abs(trend @ Xw.values) / (x_norms * t_norm)
    for j in np.flatnonzero((corr > 0.999) & keep):
        warnings.warn(
            f"column {X.column_names[j]!r} is within-collinear with a common linear trend "
            f"(|corr|={corr[j]:.6f}); estimable only because no time effects are included",
            CollinearityProximityWarning, stacklevel=2)
    if all(keep):
        return X, ()
    names = X.column_names
    return (design_matrix(X.values[:, keep], [n for n, k in zip(names, keep) if k], X.codes),
            tuple(n for n, k in zip(names, keep) if not k))


def estimate(panel: DerivedPanel, spec: ModelSpec, center: bool = False,
             table: str | None = None) -> EstimationReport:
    """Estimate one model: design check, Hausman record, LR check, FE fit with
    robust covariance.

    Per-row exclusions (missing variant values) never abort the panel; they
    are counted on the report. A design without rows raises
    :class:`TooFewObservations`. ``table`` names the estimate's table (the
    model id by default): the report carries it, and each error starts with
    it. Identical inputs produce identical reports.
    """
    table = table or spec.model_id
    X, y, n_excluded, n_input = _assemble_design(panel, spec, center)
    if not len(y):
        raise TooFewObservations(f"{table}: no complete rows in the design "
                                 f"({n_excluded} of {n_input} panel rows incomplete)")
    try:
        X, dropped = _check_design(X, y)
        fe_classical = regress.fe_fit(X, y, cov_kind="classical")
        fit = regress.fe_fit(X, y, cov_kind="white_cross_section")
    except MarketPanelError as exc:
        exc.args = (f"{table}: {exc}",)   # its class, and any fields, stay
        raise

    notes = [f"dropped columns without within variation: {list(dropped)}"] if dropped else []
    diagnostics: list[TestResult] = []
    try:
        diagnostics.append(hausman_test(fe_classical, regress.re_fit(X, y)))
    except MarketPanelError as exc:
        notes.append(f"hausman unavailable: {exc}")

    try:
        diagnostics.append(lr_heteroskedasticity(fe_classical.residuals, X.codes))
    except MarketPanelError as exc:
        notes.append(f"lr check unavailable: {exc}")

    return EstimationReport(
        table=table, model_id=spec.model_id, marin_variant=spec.marin_variant, fit=fit,
        rows=fit.rows(), f_test=fit.f_test(), diagnostics=diagnostics, n_input_rows=n_input,
        n_excluded=n_excluded, dropped_columns=dropped, notes=notes)


def robustness_suite(panel: DerivedPanel, center: bool = False,
                     constrain_book_unit: bool = False) -> list[EstimationReport]:
    """Re-estimate both moderated models under the two alternate marketing measures.

    Returns four reports, each of table ``robustness_<family>_<short measure name>``,
    in a fixed order: (value, assets), (value, log), (risk, assets), (risk, log).
    """
    out = []
    for family in ("value", "risk"):
        for variant in ("assets_ratio", "log_level"):
            spec = spec_for(f"{family}_moderated", marin_variant=variant,
                            constrain_book_unit=constrain_book_unit)
            table = f"robustness_{family}_{MARIN_VARIANTS[variant][0]}"
            out.append(estimate(panel, spec, center=center, table=table))
    return out
