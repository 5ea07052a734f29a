"""Domain types and the validated panel container consumed by every other module.

A panel is a columnar table of firm-year fundamentals plus per-market
risk-free rate series. Fundamentals rows are validated once, when they are
parsed; the dataset sorts them by (firm, year), checks their keys and rates,
and derives their firm and period codes once. It is immutable afterwards.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DuplicateKey, EmptyInput, InvariantViolation, MissingRiskFree

STAKE_SUM_TOL = 1e-9

# the per-row columns of a FundamentalsTable, besides the ragged stakes
ROW_COLUMNS = ("firm", "market", "year", "price", "book_value", "eps", "sga", "rd", "sales",
               "total_assets", "total_equity", "establishment_year", "book_value_prev")


def row_sums(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Per row, ``values[offsets[i]:offsets[i + 1]]`` added left to right.

    The additions run in the order a loop over each row's items makes them,
    so the sums equal that loop's bit for bit.
    """
    counts = np.diff(offsets)
    sums = np.zeros(len(counts))
    for j in range(int(counts.max(initial=0))):
        rows = np.flatnonzero(counts > j)
        sums[rows] += values[offsets[rows] + j]
    return sums


@dataclass(frozen=True)
class FundamentalsTable:
    """Firm-year fundamentals as read-only columns, one row per observation.

    ``firm`` and ``market`` are codes into the sorted ``firm_ids`` and
    ``market_ids``, which hold only ids that have rows. ``book_value_prev``
    is the optional lagged book value of a firm's first panel year, NaN where
    not given. Row ``i`` holds the raw ownership fractions
    ``stakes[stake_offsets[i]:stake_offsets[i + 1]]`` of all its reported
    shareholders; thresholding happens downstream.
    """

    firm_ids: tuple[str, ...]
    firm: np.ndarray
    market_ids: tuple[str, ...]
    market: np.ndarray
    year: np.ndarray
    price: np.ndarray
    book_value: np.ndarray
    eps: np.ndarray
    sga: np.ndarray
    rd: np.ndarray
    sales: np.ndarray
    total_assets: np.ndarray
    total_equity: np.ndarray
    establishment_year: np.ndarray
    book_value_prev: np.ndarray
    stakes: np.ndarray
    stake_offsets: np.ndarray

    def __post_init__(self):
        for name in ROW_COLUMNS + ("stakes", "stake_offsets"):
            getattr(self, name).flags.writeable = False

    @classmethod
    def from_labels(cls, firms, markets, stakes, stake_counts, **columns) -> "FundamentalsTable":
        """A table whose row ``i`` belongs to firm ``firms[i]`` in market ``markets[i]``.

        ``stakes`` concatenates the rows' stakes, ``stake_counts[i]`` of them
        for row ``i``; ``columns`` gives the other columns by name.
        """
        firm_ids, firm = np.unique(np.asarray(firms, dtype=str), return_inverse=True)
        market_ids, market = np.unique(np.asarray(markets, dtype=str), return_inverse=True)
        return cls(firm_ids=tuple(firm_ids.tolist()), firm=firm,
                   market_ids=tuple(market_ids.tolist()), market=market,
                   stakes=np.asarray(stakes, dtype=float),
                   stake_offsets=np.cumsum([0, *stake_counts], dtype=np.int64),
                   **{name: np.asarray(values, dtype=np.int64 if name.endswith("year") else float)
                      for name, values in columns.items()})

    def __len__(self) -> int:
        return len(self.year)

    def take(self, rows) -> "FundamentalsTable":
        """The table of ``rows`` (row numbers, in their order); ids left without rows drop out."""
        rows = np.asarray(rows, dtype=np.int64)
        columns = {name: getattr(self, name)[rows] for name in ROW_COLUMNS}
        firms, columns["firm"] = np.unique(columns["firm"], return_inverse=True)
        markets, columns["market"] = np.unique(columns["market"], return_inverse=True)
        counts = np.diff(self.stake_offsets)[rows]
        offsets = np.cumsum([0, *counts], dtype=np.int64)
        items = np.repeat(self.stake_offsets[rows] - offsets[:-1], counts) + np.arange(offsets[-1])
        return FundamentalsTable(firm_ids=tuple(self.firm_ids[c] for c in firms.tolist()),
                                 market_ids=tuple(self.market_ids[c] for c in markets.tolist()),
                                 stakes=self.stakes[items], stake_offsets=offsets, **columns)


def appearance_codes(labels) -> tuple[np.ndarray, np.ndarray]:
    """The distinct labels in order of first appearance, and each row's code into them."""
    distinct, first, codes = np.unique(np.asarray(labels), return_index=True,
                                       return_inverse=True)
    appearance = np.argsort(first)
    rank = np.empty_like(appearance)
    rank[appearance] = np.arange(len(appearance))
    return distinct[appearance], rank[codes]


def _size_blocks(codes: np.ndarray, n_groups: int):
    """For each distinct group size m: the groups of that size and their
    (groups, m) row numbers, each group's rows in row order."""
    sizes = np.bincount(codes, minlength=n_groups)
    order = np.argsort(codes, kind="stable")
    starts = np.cumsum(sizes) - sizes
    blocks = []
    for m in np.unique(sizes):
        groups = np.flatnonzero(sizes == m)
        blocks.append((groups, order[starts[groups][:, None] + np.arange(m)]))
    return tuple(blocks)


@dataclass(frozen=True)
class PanelCodes:
    """Integer firm and period codes of a panel's rows, derived once.

    Row ``i`` belongs to firm ``firm_ids[firm[i]]`` (sorted ids) and to
    period ``years[period[i]]`` (years in order of first appearance).
    ``firm_sizes`` counts the rows of each firm. The blocks group firms, and
    periods, of equal size m with their (groups, m) row numbers, so that one
    numpy call reduces every group of that size.
    """

    firm_ids: tuple[str, ...]
    firm: np.ndarray
    firm_sizes: np.ndarray
    firm_blocks: tuple[tuple[np.ndarray, np.ndarray], ...]
    years: np.ndarray
    period: np.ndarray
    period_blocks: tuple[tuple[np.ndarray, np.ndarray], ...]

    @classmethod
    def from_codes(cls, firm_ids, firm, row_years) -> "PanelCodes":
        """Codes for rows of firm ``firm_ids[firm[i]]`` and year ``row_years[i]``.

        ``firm_ids`` must be sorted; ids without rows drop out.
        """
        present, firm = np.unique(firm, return_inverse=True)
        firm_ids = tuple(firm_ids[g] for g in present.tolist())
        years, period = appearance_codes(np.asarray(row_years, dtype=np.int64))
        return cls(firm_ids=firm_ids, firm=firm,
                   firm_sizes=np.bincount(firm, minlength=len(firm_ids)),
                   firm_blocks=_size_blocks(firm, len(firm_ids)),
                   years=years, period=period,
                   period_blocks=_size_blocks(period, len(years)))

    def select(self, rows) -> "PanelCodes":
        """The codes of ``rows`` (a mask or row numbers); firms left without rows drop out."""
        return self.from_codes(self.firm_ids, self.firm[rows], self.years[self.period[rows]])

    def firm_means(self, values: np.ndarray) -> np.ndarray:
        """Per-firm means of a vector (G,) or of each matrix column (G, k).

        A block's ``mean(axis=1)`` adds each firm's values in the order
        ``values[rows].mean(axis=0)`` does, so the means equal a loop over
        firms bit for bit.
        """
        out = np.empty((len(self.firm_ids),) + values.shape[1:])
        for firms, rows in self.firm_blocks:
            out[firms] = values[rows].mean(axis=1)
        return out


@dataclass(frozen=True)
class RiskFreeSeries:
    """Annual risk-free rates (10-year government bond yield) for one market."""

    market_id: str
    rates: dict[int, float]


@dataclass(frozen=True)
class PanelDataset:
    """Validated panel: ``table`` holds one row per (firm, year), sorted by firm then year.

    ``codes`` are the rows' firm and period codes and ``row_rates`` the
    risk-free rate of each row's market and year. Immutable after
    construction; balancedness is recorded, not required.
    """

    table: FundamentalsTable
    codes: PanelCodes
    row_rates: np.ndarray
    risk_free: tuple[RiskFreeSeries, ...]
    years: tuple[int, ...]
    is_balanced: bool

    @property
    def firms(self) -> tuple[str, ...]:
        return self.codes.firm_ids

    def firm_markets(self) -> dict[str, str]:
        """Each firm's market, as recorded in its last panel year."""
        last = np.cumsum(self.codes.firm_sizes) - 1
        markets = self.table.market_ids
        return dict(zip(self.firms, (markets[m] for m in self.table.market[last].tolist())))

    def __len__(self) -> int:
        return len(self.table)


def build_dataset(table: FundamentalsTable, rf: list[RiskFreeSeries]) -> PanelDataset:
    """Assemble a :class:`PanelDataset` from parsed, validated fundamentals.

    Deterministic and order-independent: permuting the table's rows yields
    an identical dataset. Of the rows that repeat an earlier (firm, year) or
    lack a risk-free rate, the first one raises :class:`DuplicateKey` or
    :class:`MissingRiskFree`; a rate outside [0, 0.5] raises
    :class:`InvariantViolation`, and an empty table :class:`EmptyInput`.
    """
    if not len(table):
        raise EmptyInput("no observations supplied")

    rates: dict[tuple[str, int], float] = {}
    for series in rf:
        for year, rate in series.rates.items():
            if not (0 <= rate <= 0.5):
                raise InvariantViolation("rate", f"rate {rate!r} outside [0, 0.5]",
                                         firm_id=series.market_id, year=year)
            rates[(series.market_id, year)] = rate

    order = np.lexsort((table.year, table.firm))
    duplicate = np.zeros(len(table), dtype=bool)
    # lexsort is stable: of two rows with one key, the later row follows
    duplicate[order[1:][(np.diff(table.firm[order]) == 0)
                        & (np.diff(table.year[order]) == 0)]] = True
    pairs, pair_of_row = np.unique(np.stack([table.market, table.year]), axis=1,
                                   return_inverse=True)
    pair_rates = np.array([rates.get((table.market_ids[m], y), np.nan)
                           for m, y in pairs.T.tolist()])
    row_rates = pair_rates[pair_of_row.reshape(-1)]
    failed = duplicate | np.isnan(row_rates)
    if failed.any():
        r = int(np.argmax(failed))
        firm_id, year = table.firm_ids[table.firm[r]], int(table.year[r])
        if duplicate[r]:
            raise DuplicateKey(f"duplicate observation for firm {firm_id}, year {year}")
        raise MissingRiskFree(f"no risk-free rate for market {table.market_ids[table.market[r]]}, "
                              f"year {year} (firm {firm_id})")

    table = table.take(order)
    codes = PanelCodes.from_codes(table.firm_ids, table.firm, table.year)
    years = tuple(np.unique(table.year).tolist())
    row_rates = row_rates[order]
    row_rates.flags.writeable = False
    return PanelDataset(table=table, codes=codes, row_rates=row_rates,
                        risk_free=tuple(sorted(rf, key=lambda s: s.market_id)), years=years,
                        is_balanced=len(table) == len(codes.firm_ids) * len(years))
