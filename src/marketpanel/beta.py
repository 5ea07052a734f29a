"""Systematic-risk estimation: rolling-window market betas from monthly returns.

The beta for a firm-year is the OLS slope (with intercept) of the firm's
monthly returns on its market index returns over the 60-month window ending
December of that year, requiring at least 48 paired months. Returns are
simple arithmetic returns on closing prices; a missing month breaks the
return chain so no return ever spans a gap.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InsufficientWindow, TooShort, UnknownMarket, ZeroMarketVariance

DEFAULT_WINDOW_MONTHS = 60
DEFAULT_MIN_MONTHS = 48


@dataclass(frozen=True)
class PriceSeries:
    """Monthly closing prices for one firm or market index.

    ``points`` is sorted by (year, month) with unique months; closes are
    positive.
    """

    series_id: str
    points: tuple[tuple[int, int, float], ...]

    def month_gaps(self) -> tuple[tuple[int, int], ...]:
        """Months missing between the first and last observed month."""
        if len(self.points) < 2:
            return ()
        have = {_month_index(y, m) for y, m, _ in self.points}
        lo, hi = min(have), max(have)
        return tuple(_index_month(i) for i in range(lo, hi + 1) if i not in have)


@dataclass(frozen=True)
class ReturnSeries:
    """Monthly simple returns; points sorted, unique, each return > -1."""

    series_id: str
    points: tuple[tuple[int, int, float], ...]

    @cached_property
    def by_month(self) -> dict[int, float]:
        """Returns keyed by month index, built on first use and shared: read only."""
        return {_month_index(y, m): r for y, m, r in self.points}


@dataclass(frozen=True)
class BetaEstimate:
    firm_id: str
    year: int
    beta: float
    n_months: int
    window_start: tuple[int, int]


def _month_index(year: int, month: int) -> int:
    return year * 12 + (month - 1)


def _index_month(index: int) -> tuple[int, int]:
    return index // 12, index % 12 + 1


def monthly_returns(prices: PriceSeries) -> ReturnSeries:
    """Convert closes to simple monthly returns.

    return(t) = close(t)/close(t-1) - 1 for consecutive months only; a gap
    in months breaks the chain. Raises :class:`TooShort` for fewer than two
    observations.
    """
    if len(prices.points) < 2:
        raise TooShort(f"{prices.series_id}: need at least 2 months, got {len(prices.points)}")
    out = []
    prev_idx = None
    prev_close = None
    for year, month, close in prices.points:
        idx = _month_index(year, month)
        if prev_idx is not None and idx == prev_idx + 1:
            out.append((year, month, close / prev_close - 1.0))
        prev_idx, prev_close = idx, close
    return ReturnSeries(series_id=prices.series_id, points=tuple(out))


def beta_for_year(firm: ReturnSeries, market: ReturnSeries, year: int,
                  window_months: int = DEFAULT_WINDOW_MONTHS,
                  min_months: int = DEFAULT_MIN_MONTHS) -> BetaEstimate:
    """Slope of firm returns on market returns over the window ending Dec ``year``.

    Months where either side is missing are dropped; the ``min_months`` rule
    applies to the paired months that remain. beta = cov(R_i, R_m)/var(R_m),
    the OLS slope with intercept.
    """
    end = _month_index(year, 12)
    start = end - window_months + 1
    firm_map, market_map = firm.by_month, market.by_month
    paired = [i for i in range(start, end + 1) if i in firm_map and i in market_map]

    n = len(paired)
    if n < min_months:
        raise InsufficientWindow(
            f"{firm.series_id}, year {year}: {n} paired months < required {min_months}")

    ri = np.array([firm_map[i] for i in paired], dtype=float)
    rm = np.array([market_map[i] for i in paired], dtype=float)
    rm_centered = rm - rm.mean()
    var_m = float(rm_centered @ rm_centered)
    # relative guard: a constant series leaves only rounding residue behind
    if var_m <= 1e-24 * max(float(rm @ rm), 1e-300):
        raise ZeroMarketVariance(f"{market.series_id}: market returns constant in window")
    beta = float(rm_centered @ (ri - ri.mean())) / var_m

    return BetaEstimate(firm_id=firm.series_id, year=year, beta=beta,
                        n_months=n, window_start=_index_month(paired[0]))


def all_betas(firms: list[ReturnSeries], markets: list[ReturnSeries],
              years, firm_market: dict[str, str],
              window_months: int = DEFAULT_WINDOW_MONTHS,
              min_months: int = DEFAULT_MIN_MONTHS,
              ) -> tuple[dict[tuple[str, int], BetaEstimate], list[tuple[str, int, str]]]:
    """Estimate betas for every (firm, year); report the rest as exclusions.

    ``firm_market`` maps each firm to its market index id. Output is
    deterministic under permutation of the inputs.
    """
    market_by_id = {m.series_id: m for m in markets}
    betas: dict[tuple[str, int], BetaEstimate] = {}
    exclusions: list[tuple[str, int, str]] = []
    for firm in sorted(firms, key=lambda s: s.series_id):
        market_id = firm_market.get(firm.series_id)
        if market_id is None:
            raise UnknownMarket(f"firm {firm.series_id} has no market mapping")
        if market_id not in market_by_id:
            raise UnknownMarket(f"market {market_id} (firm {firm.series_id}) has no return series")
        market = market_by_id[market_id]
        for year in years:
            try:
                est = beta_for_year(firm, market, year, window_months, min_months)
            except (InsufficientWindow, ZeroMarketVariance):
                exclusions.append((firm.series_id, year, "insufficient return history"))
                continue
            betas[(firm.series_id, year)] = est
    return betas, exclusions
