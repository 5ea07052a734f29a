"""Systematic-risk estimation: rolling-window market betas from monthly returns.

The beta for a firm-year is the OLS slope (with intercept) of the firm's
monthly returns on its market index returns over the 60-month window ending
December of that year, requiring at least 48 paired months. Returns are
simple arithmetic returns on closing prices; a missing month breaks the
return chain so no return ever spans a gap.
"""

from itertools import compress, product
from typing import NamedTuple

import numpy as np

from .errors import SchemaMismatch, TooShort, UnknownMarket

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

    def window(self, rows, year: int, window_months: int) -> tuple[np.ndarray, int]:
        """The rows' returns in the window ending Dec ``year``, and its first column."""
        end = _month_index(year, 12)
        lo = int(np.searchsorted(self.months, end - window_months + 1, side="left"))
        hi = int(np.searchsorted(self.months, end, side="right"))
        return self.values[rows, lo:hi], lo


def _month_index(year: int, month: int) -> int:
    return year * 12 + (month - 1)


def _index_month(index: int) -> tuple[int, int]:
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


def _row(returns: ReturnPanel, series_id: str, error, what: str) -> int:
    row = returns.series_index.get(series_id)
    if row is None:
        raise error(f"{what} {series_id} has no return series")
    return row


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


def all_betas(returns: ReturnPanel, firms, years, firm_market: dict[str, str],
              window_months: int = DEFAULT_WINDOW_MONTHS,
              min_months: int = DEFAULT_MIN_MONTHS,
              ) -> tuple[dict[tuple[str, int], float], list[tuple[str, int, str]]]:
    """Estimate the beta of every (firm, year); report the rest as exclusions.

    ``firms`` are series ids of ``returns``; ``firm_market`` maps each firm
    to its market index id. Returns {(firm, year): beta} in firm then year
    order, each value equal bit for bit to ``beta_for_year(...).beta`` (the
    one-window reference in ``tests/conftest.py``), and the (firm, year,
    reason) of every window it rejects (too few paired months, constant
    market). Output is deterministic under permutation of the inputs.
    """
    firms = sorted(firms)
    firm_rows, market_rows = [], []
    for firm_id in firms:
        market_id = firm_market.get(firm_id)
        if market_id is None:
            raise UnknownMarket(f"firm {firm_id} has no market mapping")
        if market_id not in returns.series_index:
            raise UnknownMarket(f"market {market_id} (firm {firm_id}) has no return series")
        firm_rows.append(_row(returns, firm_id, TooShort, "firm"))
        market_rows.append(returns.series_index[market_id])
    if not firms:
        return {}, []

    years = list(years)
    betas = np.empty((len(firms), len(years)))
    for j, year in enumerate(years):
        (firm, market), _ = returns.window([firm_rows, market_rows], year, window_months)
        betas[:, j] = _window_betas(firm, market, min_months)

    keys, flat = list(product(firms, years)), betas.ravel()
    estimated = ~np.isnan(flat)
    exclusions = [(firm_id, year, "insufficient return history")
                  for firm_id, year in compress(keys, ~estimated)]
    return dict(zip(compress(keys, estimated), flat[estimated].tolist())), exclusions
