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
from .errors import LengthMismatch, MarketPanelError, MissingVariable, TooFewObservations
from .regress import DesignMatrix, FitResult
from .variables import DerivedPanel, panel_columns

MODEL_IDS = ("value_direct", "value_moderated", "risk_direct", "risk_moderated")
MARIN_VARIANTS = ("sales_ratio", "assets_ratio", "log_level")
_VARIANT_COLUMN = {"sales_ratio": "Marin", "assets_ratio": "MarinAssets",
                   "log_level": "MarinLog"}
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

    def __post_init__(self):
        if self.model_id not in MODEL_IDS:
            raise ValueError(f"unknown model_id {self.model_id!r}")
        if self.marin_variant not in MARIN_VARIANTS:
            raise ValueError(f"unknown marin_variant {self.marin_variant!r}")
        moderated = self.model_id.endswith("_moderated")
        if moderated != (self.interaction is not None):
            raise ValueError("interaction present iff the model is moderated")
        if self.dependent in self.regressors:
            raise ValueError("dependent variable cannot be a regressor")


@dataclass
class EstimationReport:
    """Publication-style record of one estimated model."""

    model_id: str
    marin_variant: str
    fit: FitResult
    diagnostics: list[TestResult]
    table: list[tuple[str, float, float]]  # (variable, coefficient, prob)
    r_squared_label: str
    nobs: int
    n_input_rows: int
    n_excluded: int
    dropped_columns: tuple[str, ...] = ()
    hausman_decision: str = ""
    notes: list[str] = field(default_factory=list)


def spec_for(model_id: str, marin_variant: str = "sales_ratio",
             constrain_book_unit: bool = False) -> ModelSpec:
    """Build the canonical specification for one of the four models."""
    if model_id.startswith("value"):
        dependent = "P"
        regressors = ["X", "Marin", "Age", "Size", "Lev"]
        if not constrain_book_unit:
            regressors.insert(0, "B")
    elif model_id.startswith("risk"):
        dependent = "Bet"
        regressors = ["Marin", "Age", "Size", "Lev"]
        constrain_book_unit = False
    else:
        raise ValueError(f"unknown model_id {model_id!r}")

    interaction = None
    if model_id.endswith("_moderated"):
        regressors += ["OW", INTERACTION_NAME]
        interaction = ("OW", "Marin")
    elif not model_id.endswith("_direct"):
        raise ValueError(f"unknown model_id {model_id!r}")

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
    if marin.shape != ow.shape:
        raise LengthMismatch(f"lengths differ: {marin.shape} vs {ow.shape}")
    if centering:
        marin = marin - marin.mean()
        ow = ow - ow.mean()
    return marin * ow


def _assemble_design(panel: DerivedPanel, spec: ModelSpec, center: bool):
    base_names = [n for n in spec.regressors if n != INTERACTION_NAME]
    needed = set(base_names) | {spec.dependent}
    if spec.constrain_book_unit and spec.dependent == "P":
        needed.add("B")
    if spec.interaction is not None:
        needed.update(spec.interaction)

    variant_col = _VARIANT_COLUMN[spec.marin_variant]
    resolved = {"Marin": variant_col}
    try:
        columns = panel_columns(panel, sorted({resolved.get(n, n) for n in needed}))
    except KeyError as exc:
        raise MissingVariable(str(exc))

    def col(name: str) -> np.ndarray:
        return columns[resolved.get(name, name)]

    mask = np.ones(len(panel), dtype=bool)
    for name in needed:
        mask &= np.isfinite(col(name))
    n_excluded = int((~mask).sum())

    y = col(spec.dependent)[mask]
    if spec.constrain_book_unit and spec.dependent == "P":
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
        firms = np.array(X.codes.firm_ids)[X.codes.firm]
        diagnostics.append(lr_heteroskedasticity(fe_classical.residuals, firms))
    except MarketPanelError as exc:
        notes.append(f"lr check unavailable: {exc}")

    fit = regress.fe_fit(X, y, cov_kind="white_cross_section")

    table = [("C", fit.coefficient("C"), fit.p_value("C"))]
    for name in spec.regressors:
        if name in fit.column_names:
            table.append((name, fit.coefficient(name), fit.p_value(name)))

    return EstimationReport(
        model_id=spec.model_id, marin_variant=spec.marin_variant, fit=fit,
        diagnostics=diagnostics, table=table,
        r_squared_label=fit.r_squared_kind, nobs=fit.nobs,
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
