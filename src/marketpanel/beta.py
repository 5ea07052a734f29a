"""Systematic-risk estimation: rolling-window market betas from monthly returns.

The beta for a firm-year is the OLS slope (with intercept) of the firm's
monthly returns on its market index returns over the 60-month window ending
December of that year, requiring at least 48 paired months. Returns are
simple arithmetic returns on closing prices; a missing month breaks the
return chain so no return ever spans a gap.
"""

from itertools import compress
from typing import NamedTuple

import numpy as np

from .errors import SchemaMismatch, UnknownMarket
from .panel_core import PanelCodes

DEFAULT_WINDOW_MONTHS = 60
DEFAULT_MIN_MONTHS = 48


def _read_only(*arrays: np.ndarray) -> None:
    for array in arrays:
        array.flags.writeable = False


class PriceTable(NamedTuple):
    """Monthly closing prices of firms and market indices, one row per close.

    ``codes`` index ``series_ids``; ``months`` are month indices
    ``year * 12 + month - 1``; closes are positive. Rows are sorted by
    (code, month) with unique months within a series. ``ingest.parse_prices``
    makes the arrays read-only.
    """

    series_ids: tuple[str, ...]
    codes: np.ndarray
    months: np.ndarray
    closes: np.ndarray


class ReturnPanel(NamedTuple):
    """Simple monthly returns as a dense series x month matrix.

    ``values[s, j]`` is the return of ``series_ids[s]`` in month index
    ``months[j]``, NaN where the series has none. ``months`` is sorted and
    holds every month in which some series has a return. ``series_index``
    maps each series id to its row. :func:`monthly_returns` makes the arrays
    read-only.
    """

    series_ids: tuple[str, ...]
    months: np.ndarray
    values: np.ndarray
    series_index: dict[str, int]

    def window(self, rows, year: int, window_months: int) -> np.ndarray:
        """The rows' returns in the window ending Dec ``year``."""
        end = _month_index(year, 12)
        lo = int(np.searchsorted(self.months, end - window_months + 1, side="left"))
        hi = int(np.searchsorted(self.months, end, side="right"))
        return self.values[rows, lo:hi]


# a calendar month's index and back, elementwise on integer arrays too
def _month_index(year, month):
    return year * 12 + (month - 1)


def _index_month(index):
    return index // 12, index % 12 + 1


def monthly_returns(prices: PriceTable) -> ReturnPanel:
    """Convert closes to simple monthly returns.

    return(t) = close(t)/close(t-1) - 1 for consecutive months of one series
    only; a gap in months breaks the chain. A series with fewer than two
    closes has no return series and is left out of the panel. A close ratio
    that overflows raises :class:`SchemaMismatch` naming the series and month.
    """
    codes, months, closes = prices.codes, prices.months, prices.closes
    counts = np.bincount(codes, minlength=len(prices.series_ids))
    kept = np.flatnonzero(counts >= 2)
    row_of_code = np.full(len(prices.series_ids), -1, dtype=np.int64)
    row_of_code[kept] = np.arange(len(kept))

    chained = (codes[1:] == codes[:-1]) & (months[1:] == months[:-1] + 1)
    series, return_months = codes[1:][chained], months[1:][chained]
    with np.errstate(over="ignore"):
        returns = closes[1:][chained] / closes[:-1][chained] - 1.0
    overflow = np.flatnonzero(~np.isfinite(returns))
    if len(overflow):
        year, month = _index_month(int(return_months[overflow[0]]))
        raise SchemaMismatch(f"prices: the return of {prices.series_ids[series[overflow[0]]]} "
                             f"in {year}-{month:02d} is not finite (the close ratio overflows)")
    # with return_inverse, np.unique does not import numpy.ma (a plain call does)
    axis, column = np.unique(return_months, return_inverse=True)
    values = np.full((len(kept), len(axis)), np.nan)
    values[row_of_code[series], column] = returns
    _read_only(axis, values)
    series_ids = tuple(prices.series_ids[c] for c in kept)
    return ReturnPanel(series_ids=series_ids, months=axis, values=values,
                       series_index={series_id: row for row, series_id in enumerate(series_ids)})


def _batched_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # one (1, n) @ (n, 1) product per row: BLAS ddot, as ``a[g] @ b[g]``
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _window_betas(firm: np.ndarray, market: np.ndarray, min_months: int) -> np.ndarray:
    """Every firm's window beta at once, in the arithmetic of ``beta_for_year`` (tests/conftest.py).

    Windows are grouped by paired-month count, so each group is a dense
    (windows, months) block whose row means and dot products reduce in the
    same order as one window's. A window it rejects (too few paired months,
    constant market) gets NaN.
    """
    paired = ~np.isnan(firm) & ~np.isnan(market)
    counts = paired.sum(axis=1)
    betas = np.full(len(firm), np.nan)
    # an empty window is never estimated (its market variance is zero)
    # sorted(set()), not np.unique: a plain np.unique imports numpy.ma
    for n in sorted(set(counts[counts >= max(min_months, 1)].tolist())):
        group = np.flatnonzero(counts == n)
        mask = paired[group]
        ri = firm[group][mask].reshape(len(group), n)
        rm = market[group][mask].reshape(len(group), n)
        rm_centered = rm - rm.mean(axis=1, keepdims=True)
        var_m = _batched_dot(rm_centered, rm_centered)
        varies = ~(var_m <= 1e-24 * np.maximum(_batched_dot(rm, rm), 1e-300))
        cov = _batched_dot(rm_centered, ri - ri.mean(axis=1, keepdims=True))
        betas[group[varies]] = cov[varies] / var_m[varies]
    return betas


def all_betas(returns: ReturnPanel, codes: PanelCodes, firm_market: dict[str, str],
              window_months: int = DEFAULT_WINDOW_MONTHS,
              min_months: int = DEFAULT_MIN_MONTHS,
              ) -> tuple[dict[tuple[str, int], float], list[tuple[str, int, str]]]:
    """Estimate the beta of each firm-year of ``codes``; report the rest as exclusions.

    ``firm_market`` maps each firm to its market index id. Returns
    {(firm, year): beta} in the codes' row order (a dataset's: firm then
    year), each value equal bit for bit to ``beta_for_year(...).beta`` (the
    one-window reference in ``tests/conftest.py``), and the (firm, year,
    reason) of every window it rejects (too few paired months, constant
    market). A firm without a return series has no window at all: it gets
    neither a beta nor an exclusion. A firm with one raises
    :class:`UnknownMarket` when its market has no mapping or no return series.
    """
    index = returns.series_index
    # each firm's rows of ``returns``, its own and its market's; -1 without a series
    series = np.full((2, len(codes.firm_ids)), -1, dtype=np.int64)
    for g, firm_id in enumerate(codes.firm_ids):
        if firm_id not in index:
            continue
        market_id = firm_market.get(firm_id)
        if market_id is None:
            raise UnknownMarket(f"firm {firm_id} has no market mapping")
        if market_id not in index:
            raise UnknownMarket(f"market {market_id} (firm {firm_id}) has no return series")
        series[:, g] = index[firm_id], index[market_id]

    rows = np.flatnonzero(series[0, codes.firm] >= 0)
    firm, period = codes.firm[rows], codes.period[rows]
    betas = np.empty(len(rows))
    for p, year in enumerate(codes.years.tolist()):
        at = period == p
        firm_window, market_window = returns.window(series[:, firm[at]], year, window_months)
        betas[at] = _window_betas(firm_window, market_window, min_months)

    keys = list(zip(map(codes.firm_ids.__getitem__, firm.tolist()), codes.years[period].tolist()))
    estimated = ~np.isnan(betas)
    exclusions = [(firm_id, year, "insufficient return history")
                  for firm_id, year in compress(keys, ~estimated)]
    return dict(zip(compress(keys, estimated), betas[estimated].tolist())), exclusions
