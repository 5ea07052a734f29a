"""Construction of every derived regression variable from raw fundamentals.

Covers abnormal earnings, the marketing-investment ratio and its two
robustness alternates, the control variables (age, size, leverage), the
ownership-concentration measure, and the join of fundamentals, rates and
the (firm, year) -> beta mapping into the columnar derived panel. The
regressions and the diagnostics read that panel's columns with its firm
codes. The formula helpers work elementwise on columns.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NegativeNumerator, NonPositiveExpense, ZeroSales
from .panel_core import PanelCodes, PanelDataset, row_sums

OWNERSHIP_THRESHOLD = 0.05

# canonical column names used by descriptives, correlations and model design
COLUMNS = ("P", "B", "X", "Marin", "MarinAssets", "MarinLog", "Age", "Size", "Lev", "Bet",
           "OW", "P/B", "TotalAssets")
DESCRIPTIVES_ORDER = ("P", "B", "X", "Marin", "Age", "TotalAssets", "Lev", "Bet", "OW", "P/B")
CORRELATION_ORDER = ("P", "X", "B", "Marin", "Bet", "Lev", "OW", "Size", "Age")
STATIONARITY_ORDER = ("P", "X", "Marin", "Age", "Size", "Lev", "Bet", "OW")


# math.log, not np.log: numpy's vectorised log can differ from the C
# library's in the last bit, and the derived columns are byte-stable
_log = np.vectorize(math.log, otypes=[float])


def abnormal_earnings(eps_t, r, book_prev):
    """Earnings in excess of the normal return on lagged book value.

    Returns eps_t - r * book_prev.
    """
    r, book_prev = np.asarray(r, dtype=float), np.asarray(book_prev, dtype=float)
    if np.any(r < 0):
        raise ValueError(f"risk-free rate must be non-negative, got {float(np.min(r))!r}")
    if np.any(book_prev <= 0):
        raise ValueError(f"lagged book value must be positive, got {float(np.min(book_prev))!r}")
    return eps_t - r * book_prev


def _expense_ratio(sga, rd, scale, what: str):
    scale = np.asarray(scale, dtype=float)
    if np.any(scale <= 0):
        raise ZeroSales(f"{what} must be positive, got {float(np.min(scale))!r}")
    expense = np.asarray(sga, dtype=float) - rd
    if np.any(expense < 0):
        raise NegativeNumerator("SG&A minus R&D negative")
    return expense / scale


def marin(sga, rd, sales):
    """Marketing investment as (SG&A - R&D) / sales."""
    return _expense_ratio(sga, rd, sales, "sales")


def marin_alt_assets(sga, rd, total_assets):
    """Robustness alternate: marketing expense scaled by total assets."""
    return _expense_ratio(sga, rd, total_assets, "total assets")


def marin_alt_log(sga, rd):
    """Robustness alternate: natural log of the marketing expense level."""
    expense = np.asarray(sga, dtype=float) - rd
    if np.any(expense <= 0):
        raise NonPositiveExpense(
            f"marketing expense must be positive, got {float(np.min(expense))!r}")
    return _log(expense)


def ownership_concentration(stakes, offsets, threshold: float = OWNERSHIP_THRESHOLD):
    """Per row, the summed stakes of shareholders at or above the controlling threshold.

    Row ``i`` holds ``stakes[offsets[i]:offsets[i + 1]]``.
    """
    stakes = np.asarray(stakes, dtype=float)
    # adding 0.0 for a stake below the threshold leaves a sum unchanged
    return row_sums(np.where(stakes >= threshold, stakes, 0.0), np.asarray(offsets))


@dataclass(frozen=True)
class DerivedPanel:
    """The derived variables of every usable firm-year, as read-only columns.

    Rows are sorted by (firm, year) and ``codes`` are their firm and period
    codes; ``columns`` maps each name in :data:`COLUMNS` to a float column.
    MarinLog is NaN where the marketing expense is zero. ``exclusions``
    lists the (firm, year, reason) of the observations left out.
    """

    codes: PanelCodes
    columns: dict[str, np.ndarray]
    exclusions: list[tuple[str, int, str]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.codes.firm)


def derive_all(ds: PanelDataset, betas: dict[tuple[str, int], float]) -> DerivedPanel:
    """Join fundamentals, risk-free rates and betas into the derived panel.

    The lagged book value is the previous row's if that is the firm's
    previous year, else the carry-in ``book_value_prev``. Rows lacking a
    lagged book value or a beta are excluded with a reason, never aborting
    the panel. ``betas`` maps (firm, year) to the firm-year's beta, as
    :func:`~marketpanel.beta.all_betas` returns them; a NaN beta counts as
    missing.
    """
    t, codes = ds.table, ds.codes
    firm_ids, firm, year = codes.firm_ids, codes.firm, t.year
    follows = np.zeros(len(t), dtype=bool)
    follows[1:] = (firm[1:] == firm[:-1]) & (year[1:] == year[:-1] + 1)
    book_prev = t.book_value_prev.copy()
    book_prev[follows] = t.book_value[:-1][follows[1:]]
    beta = np.array([betas.get(key, math.nan) for key in
                     zip(map(firm_ids.__getitem__, firm.tolist()), year.tolist())], dtype=float)
    has_beta = ~np.isnan(beta)
    has_lag = ~np.isnan(book_prev)
    keep = has_lag & has_beta
    exclusions = [(firm_ids[f], y, "missing lagged book value" if not lag
                   else "insufficient return history")
                  for f, y, lag in zip(firm[~keep].tolist(), year[~keep].tolist(),
                                       has_lag[~keep].tolist())]

    def kept(column):
        return column[keep]

    sga, rd = kept(t.sga), kept(t.rd)
    total_assets, price, book_value = kept(t.total_assets), kept(t.price), kept(t.book_value)
    m = marin(sga, rd, kept(t.sales))
    spent = sga - rd > 0
    m_log = np.full(len(m), np.nan)
    m_log[spent] = marin_alt_log(sga[spent], rd[spent])
    columns = {
        "P": price, "B": book_value,
        "X": abnormal_earnings(kept(t.eps), kept(ds.row_rates), kept(book_prev)),
        "Marin": m, "MarinAssets": marin_alt_assets(sga, rd, total_assets), "MarinLog": m_log,
        "Age": (kept(year) - kept(t.establishment_year)).astype(float),
        "Size": _log(total_assets), "Lev": kept(t.total_equity) / total_assets,
        "Bet": kept(beta),
        "OW": kept(ownership_concentration(t.stakes, t.stake_offsets)),
        "P/B": price / book_value, "TotalAssets": total_assets,
    }
    for column in columns.values():
        column.flags.writeable = False
    notes = [f"firm {firm_ids[f]}, year {y}: zero marketing expense"
             for f, y in zip(kept(firm)[m == 0.0].tolist(), kept(year)[m == 0.0].tolist())]
    return DerivedPanel(codes=codes.select(keep), columns=columns, exclusions=exclusions,
                        notes=notes)


def panel_columns(panel: DerivedPanel, names) -> dict[str, np.ndarray]:
    """Named columns as read-only float arrays aligned to the panel's rows."""
    for name in names:
        if name not in panel.columns:
            raise KeyError(f"unknown panel column {name!r}")
    return {name: panel.columns[name] for name in names}
