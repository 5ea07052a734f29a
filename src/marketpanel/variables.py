"""Construction of every derived regression variable from raw fundamentals.

Covers abnormal earnings, the marketing-investment ratio and its two
robustness alternates, the control variables (age, size, leverage), the
ownership-concentration measure, and the join of fundamentals, rates and
the betas into the columnar derived panel. The regressions and the
diagnostics read that panel's columns with its firm codes. The formula
helpers work elementwise on columns.
"""

from typing import NamedTuple

import numpy as np

from ._kernels import _log
from .panel_core import PanelCodes, PanelDataset, row_sums

OWNERSHIP_THRESHOLD = 0.05

DESCRIPTIVES_ORDER = ("P", "B", "X", "Marin", "Age", "TotalAssets", "Lev", "Bet", "OW", "P/B")
CORRELATION_ORDER = ("P", "X", "B", "Marin", "Bet", "Lev", "OW", "Size", "Age")
STATIONARITY_ORDER = ("P", "X", "Marin", "Age", "Size", "Lev", "Bet", "OW")


def abnormal_earnings(eps_t, r, book_prev):
    """Earnings in excess of the normal return on lagged book value: eps_t - r * book_prev."""
    return eps_t - r * book_prev


def marin(sga, rd, sales):
    """Marketing investment as (SG&A - R&D) / sales."""
    return (sga - rd) / sales


def marin_alt_assets(sga, rd, total_assets):
    """Robustness alternate: marketing expense scaled by total assets."""
    return (sga - rd) / total_assets


def marin_alt_log(sga, rd):
    """Robustness alternate: natural log of the marketing expense level."""
    return _log(sga - rd)


def ownership_concentration(stakes, offsets):
    """Per row, the summed stakes of shareholders at or above the controlling threshold.

    Row ``i`` holds ``stakes[offsets[i]:offsets[i + 1]]``.
    """
    stakes = np.asarray(stakes, dtype=float)
    # adding 0.0 for a stake below the threshold leaves a sum unchanged
    return row_sums(np.where(stakes >= OWNERSHIP_THRESHOLD, stakes, 0.0), np.asarray(offsets))


class DerivedPanel(NamedTuple):
    """The derived variables of every usable firm-year, as read-only columns.

    Rows are sorted by (firm, year) and ``codes`` are their firm and period
    codes; ``columns`` maps each derived variable's name (P, B, X, Marin,
    MarinAssets, MarinLog, Age, Size, Lev, Bet, OW, P/B, TotalAssets) to a
    float column.
    MarinLog is NaN where the marketing expense is zero. ``exclusions``
    lists the (firm, year, reason) of the observations left out.
    """

    codes: PanelCodes
    columns: dict[str, np.ndarray]
    exclusions: list[tuple[str, int, str]]
    notes: list[str]


def derive_all(ds: PanelDataset, betas: np.ndarray) -> DerivedPanel:
    """Join fundamentals, risk-free rates and betas into the derived panel.

    The lagged book value is the previous row's if that is the firm's
    previous year, else the carry-in ``book_value_prev``. Rows lacking a
    lagged book value or a beta are excluded with a reason, never aborting
    the panel. ``betas`` holds one beta per row of ``ds``, in its order, NaN
    where the row has none, as :func:`~marketpanel.beta.all_betas` returns
    them.
    """
    t, codes = ds.table, ds.codes
    firm_ids, firm, year = codes.firm_ids, codes.firm, t.year
    follows = np.zeros(len(year), dtype=bool)
    follows[1:] = (firm[1:] == firm[:-1]) & (year[1:] == year[:-1] + 1)
    book_prev = t.book_value_prev.copy()
    book_prev[follows] = t.book_value[:-1][follows[1:]]
    has_beta = ~np.isnan(betas)
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
        "Bet": kept(betas),
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
