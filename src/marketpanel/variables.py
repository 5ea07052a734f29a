"""Construction of every derived regression variable from raw fundamentals.

Covers abnormal earnings, the marketing-investment ratio and its two
robustness alternates, the control variables (age, size, leverage), the
ownership-concentration measure, and the per-row join that produces the
derived panel feeding all regressions.
"""

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (MissingLag, NegativeNumerator, NonPositiveExpense, ZeroSales)
from .panel_core import DerivedRow, FirmYearObservation, PanelDataset

OWNERSHIP_THRESHOLD = 0.05

# canonical column names used by descriptives, correlations and model design
COLUMN_ATTRS = {
    "P": "price",
    "B": "book_value",
    "X": "x_abnormal",
    "Marin": "marin",
    "MarinAssets": "marin_alt_assets",
    "MarinLog": "marin_alt_log",
    "Age": "age",
    "Size": "size",
    "Lev": "lev",
    "Bet": "beta",
    "OW": "ow",
    "P/B": "pb_ratio",
    "TotalAssets": "total_assets",
}
DESCRIPTIVES_ORDER = ("P", "B", "X", "Marin", "Age", "TotalAssets", "Lev", "Bet", "OW", "P/B")
CORRELATION_ORDER = ("P", "X", "B", "Marin", "Bet", "Lev", "OW", "Size", "Age")
STATIONARITY_ORDER = ("P", "X", "Marin", "Age", "Size", "Lev", "Bet", "OW")


def abnormal_earnings(eps_t: float, r: float, book_prev: float) -> float:
    """Earnings in excess of the normal return on lagged book value.

    Returns eps_t - r * book_prev.
    """
    if r < 0:
        raise ValueError(f"risk-free rate must be non-negative, got {r!r}")
    if book_prev <= 0:
        raise ValueError(f"lagged book value must be positive, got {book_prev!r}")
    return eps_t - r * book_prev


def marin(sga: float, rd: float, sales: float) -> float:
    """Marketing investment as (SG&A - R&D) / sales."""
    if sales <= 0:
        raise ZeroSales(f"sales must be positive, got {sales!r}")
    expense = sga - rd
    if expense < 0:
        raise NegativeNumerator("SG&A minus R&D negative")
    return expense / sales


def marin_alt_assets(sga: float, rd: float, total_assets: float) -> float:
    """Robustness alternate: marketing expense scaled by total assets."""
    if total_assets <= 0:
        raise ZeroSales(f"total assets must be positive, got {total_assets!r}")
    expense = sga - rd
    if expense < 0:
        raise NegativeNumerator("SG&A minus R&D negative")
    return expense / total_assets


def marin_alt_log(sga: float, rd: float) -> float:
    """Robustness alternate: natural log of the marketing expense level."""
    expense = sga - rd
    if expense <= 0:
        raise NonPositiveExpense(f"marketing expense must be positive, got {expense!r}")
    return math.log(expense)


def control_variables(obs: FirmYearObservation) -> tuple[float, float, float]:
    """(age, size, lev) = (years since establishment, ln assets, equity/assets)."""
    age = float(obs.year - obs.establishment_year)
    size = math.log(obs.total_assets)
    lev = obs.total_equity / obs.total_assets
    return age, size, lev


def ownership_concentration(stakes, threshold: float = OWNERSHIP_THRESHOLD) -> float:
    """Summed stakes of shareholders at or above the controlling threshold."""
    return float(sum(s for s in stakes if s >= threshold))


def lagged_book_value(ds: PanelDataset, firm_id: str, year: int) -> float:
    """Book value at t-1 from the prior-year row or the optional carry-in column."""
    prev = ds.observations.get((firm_id, year - 1))
    if prev is not None:
        return prev.book_value
    obs = ds.observations[(firm_id, year)]
    if obs.book_value_prev is not None:
        return obs.book_value_prev
    raise MissingLag(f"firm {firm_id}, year {year}: no lagged book value")


@dataclass
class DerivedPanel:
    """Derived rows keyed by (firm, year), plus per-row exclusions and notes.

    The first column read fixes ``rows`` into read-only float columns.
    """

    rows: dict[tuple[str, int], DerivedRow]
    exclusions: list[tuple[str, int, str]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.rows)

    @cached_property
    def _columns(self) -> tuple[list[tuple[str, int]], dict[str, np.ndarray]]:
        keys = sorted(self.rows)
        get = operator.attrgetter(*COLUMN_ATTRS.values())
        # None (the log variant on zero-expense rows) becomes NaN
        table = np.array([get(self.rows[k]) for k in keys], dtype=float)
        # one contiguous read-only row per column
        table = table.reshape(len(keys), len(COLUMN_ATTRS)).T.copy()
        table.flags.writeable = False
        return keys, dict(zip(COLUMN_ATTRS, table))


def derive_all(ds: PanelDataset, betas: dict[tuple[str, int], float]) -> DerivedPanel:
    """Join fundamentals, risk-free rates and betas into one row per observation.

    Rows lacking a lagged book value or a beta are excluded with a reason;
    the panel is never aborted by a per-row problem. ``betas`` maps
    (firm, year) to a beta value or a :class:`~marketpanel.beta.BetaEstimate`.
    Deterministic under permutation of the inputs.
    """
    rows: dict[tuple[str, int], DerivedRow] = {}
    exclusions: list[tuple[str, int, str]] = []
    notes: list[str] = []

    for key in sorted(ds.observations):
        firm_id, year = key
        obs = ds.observations[key]
        try:
            book_prev = lagged_book_value(ds, firm_id, year)
        except MissingLag:
            exclusions.append((firm_id, year, "missing lagged book value"))
            continue
        beta_value = betas.get(key)
        if beta_value is None:
            exclusions.append((firm_id, year, "insufficient return history"))
            continue
        beta_value = getattr(beta_value, "beta", beta_value)

        r = ds.rate(obs.market_id, year)
        x_a = abnormal_earnings(obs.eps, r, book_prev)
        m = marin(obs.sga, obs.rd, obs.sales)
        if m == 0.0:
            notes.append(f"firm {firm_id}, year {year}: zero marketing expense")
        m_assets = marin_alt_assets(obs.sga, obs.rd, obs.total_assets)
        try:
            m_log = marin_alt_log(obs.sga, obs.rd)
        except NonPositiveExpense:
            m_log = None
        age, size, lev = control_variables(obs)
        ow = ownership_concentration(obs.controlling_stakes)

        rows[key] = DerivedRow(
            x_abnormal=x_a, marin=m, marin_alt_assets=m_assets, marin_alt_log=m_log,
            age=age, size=size, lev=lev, ow=ow, beta=float(beta_value),
            pb_ratio=obs.price / obs.book_value,
            price=obs.price, book_value=obs.book_value, total_assets=obs.total_assets)

    return DerivedPanel(rows=rows, exclusions=exclusions, notes=notes)


def panel_columns(panel: DerivedPanel, names) -> tuple[list[tuple[str, int]], dict[str, np.ndarray]]:
    """Named columns as read-only float arrays aligned to sorted (firm, year) keys.

    ``None`` values (the log variant on zero-expense rows) become NaN.
    """
    keys, columns = panel._columns
    for name in names:
        if name not in columns:
            raise KeyError(f"unknown panel column {name!r}")
    return list(keys), {name: columns[name] for name in names}


def firm_series(panel: DerivedPanel, name: str) -> dict[str, np.ndarray]:
    """Per-firm year-ordered vectors of one derived variable, NaNs left out."""
    keys, columns = panel._columns
    by_firm: dict[str, list[float]] = {}
    for (firm_id, _), value in zip(keys, columns[name].tolist()):
        if not math.isnan(value):
            by_firm.setdefault(firm_id, []).append(value)
    return {f: np.array(values) for f, values in by_firm.items()}
