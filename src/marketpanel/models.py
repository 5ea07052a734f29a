"""Declarative regression specifications and the estimation driver.

Four models: the firm-value equation (share price on book value, abnormal
earnings, marketing investment and controls) and the systematic-risk
equation (beta on marketing investment and controls), each in a direct and
an ownership-moderated form. Estimation always runs the Hausman FE-vs-RE
comparison for the record and then fits entity fixed effects with a White
cross-section covariance, mirroring the reported workflow.
"""

from dataclasses import dataclass, field

import numpy as np

from . import regress
from .diagnostics import TestResult, hausman_test, lr_heteroskedasticity
from .errors import MarketPanelError, TooFewObservations
from .regress import DesignMatrix, FitResult
from .variables import DerivedPanel, panel_columns

MODEL_IDS = ("value_direct", "value_moderated", "risk_direct", "risk_moderated")
# marketing measure -> (short name on the command line and in robustness
# table names, derived panel column)
MARIN_VARIANTS = {"sales_ratio": ("sales", "Marin"),
                  "assets_ratio": ("assets", "MarinAssets"),
                  "log_level": ("log", "MarinLog")}
INTERACTION_NAME = "OW*Marin"


@dataclass(frozen=True)
class ModelSpec:
    """Declarative description of one regression."""

    model_id: str
    dependent: str
    regressors: tuple[str, ...]
    interaction: tuple[str, str] | None
    marin_variant: str = "sales_ratio"
    constrain_book_unit: bool = False


@dataclass
class EstimationReport:
    """Publication-style record of one estimated model; its table is ``fit.rows()``."""

    model_id: str
    marin_variant: str
    fit: FitResult
    diagnostics: list[TestResult]
    n_input_rows: int
    n_excluded: int
    dropped_columns: tuple[str, ...] = ()
    hausman_decision: str = ""
    notes: list[str] = field(default_factory=list)


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

    interaction = None
    if model_id.endswith("_moderated"):
        regressors += ["OW", INTERACTION_NAME]
        interaction = ("OW", "Marin")

    return ModelSpec(model_id=model_id, dependent=dependent,
                     regressors=tuple(regressors), interaction=interaction,
                     marin_variant=marin_variant,
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
    needed = set(base_names) | {spec.dependent}
    if spec.constrain_book_unit:
        needed.add("B")
    if spec.interaction is not None:
        needed.update(spec.interaction)

    resolved = {"Marin": MARIN_VARIANTS[spec.marin_variant][1]}
    columns = panel_columns(panel, sorted({resolved.get(n, n) for n in needed}))

    def col(name: str) -> np.ndarray:
        return columns[resolved.get(name, name)]

    mask = np.ones(len(panel), dtype=bool)
    for name in needed:
        mask &= np.isfinite(col(name))
    n_excluded = int((~mask).sum())

    y = col(spec.dependent)[mask]
    if spec.constrain_book_unit:
        y = y - col("B")[mask]

    data = {}
    for name in base_names:
        data[name] = col(name)[mask]
    if spec.interaction is not None:
        a, b = spec.interaction
        data[INTERACTION_NAME] = build_interaction(col(b)[mask], col(a)[mask],
                                                   centering=center)

    values = np.column_stack([data[n] for n in spec.regressors])
    X = DesignMatrix(values, spec.regressors, panel.codes.select(mask))
    return X, y, n_excluded, len(mask)


def _drop_within_degenerate(X: DesignMatrix, y):
    """Drop columns with no within variation (for example OW identically zero).

    Keeps estimation going when a moderated specification degenerates to the
    direct one; the dropped names are reported.
    """
    Xw, _ = regress.within_transform(X, y, warn=False)
    keep, dropped = [], []
    for j, name in enumerate(X.column_names):
        scale = max(1.0, float(np.max(np.abs(X.values[:, j]))))
        if float(np.max(np.abs(Xw.values[:, j]))) <= 1e-12 * scale:
            dropped.append(name)
        else:
            keep.append(j)
    if not dropped:
        return X, ()
    values = X.values[:, keep]
    names = tuple(X.column_names[j] for j in keep)
    return DesignMatrix(values, names, X.codes), tuple(dropped)


def estimate(panel: DerivedPanel, spec: ModelSpec, center: bool = False) -> EstimationReport:
    """Estimate one model: Hausman record, LR check, FE fit with robust covariance.

    Per-row exclusions (missing variant values) never abort the panel; they
    are counted on the report. A design without rows raises
    :class:`TooFewObservations`. Identical inputs produce identical reports.
    """
    X, y, n_excluded, n_input = _assemble_design(panel, spec, center)
    if not len(y):
        raise TooFewObservations(f"{spec.model_id}: no complete rows in the design "
                                 f"({n_excluded} of {n_input} panel rows incomplete)")
    X, dropped = _drop_within_degenerate(X, y)
    notes = []
    if dropped:
        notes.append(f"dropped columns without within variation: {list(dropped)}")

    diagnostics: list[TestResult] = []
    hausman_decision = "unavailable"
    fe_classical = regress.fe_fit(X, y, cov_kind="classical")
    try:
        re = regress.re_fit(X, y)
        hausman = hausman_test(fe_classical, re)
        diagnostics.append(hausman)
        hausman_decision = hausman.decision
    except MarketPanelError as exc:
        notes.append(f"hausman unavailable: {exc}")

    try:
        diagnostics.append(lr_heteroskedasticity(fe_classical.residuals, X.codes))
    except MarketPanelError as exc:
        notes.append(f"lr check unavailable: {exc}")

    return EstimationReport(
        model_id=spec.model_id, marin_variant=spec.marin_variant,
        fit=regress.fe_fit(X, y, cov_kind="white_cross_section"), diagnostics=diagnostics,
        n_input_rows=n_input, n_excluded=n_excluded,
        dropped_columns=dropped, hausman_decision=hausman_decision, notes=notes)


def robustness_suite(panel: DerivedPanel, center: bool = False,
                     constrain_book_unit: bool = False) -> list[EstimationReport]:
    """Re-estimate both moderated models under the two alternate marketing measures.

    Returns four reports in a fixed order: (value, assets), (value, log),
    (risk, assets), (risk, log).
    """
    out = []
    for model_id in ("value_moderated", "risk_moderated"):
        for variant in ("assets_ratio", "log_level"):
            spec = spec_for(model_id, marin_variant=variant,
                            constrain_book_unit=constrain_book_unit)
            out.append(estimate(panel, spec, center=center))
    return out
