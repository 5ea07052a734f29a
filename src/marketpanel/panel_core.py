"""Domain types and the validated panel container consumed by every other module.

A panel is a columnar table of firm-year fundamentals plus risk-free rates
by (market, year). Fundamentals rows are validated once, when they are
parsed; the dataset sorts them by (firm, year), checks their keys and rates,
and derives their firm and period codes once. It is immutable afterwards.
"""

from typing import Mapping, NamedTuple

import numpy as np

from .errors import DuplicateKey, EmptyInput, MissingRiskFree

# absolute: stakes are ownership fractions, which have no unit to scale with
STAKE_SUM_TOL = 1e-9

# the per-row columns of a FundamentalsTable, besides the ragged stakes
ROW_COLUMNS = ("firm", "market", "year", "price", "book_value", "eps", "sga", "rd", "sales",
               "total_assets", "total_equity", "establishment_year", "book_value_prev")


def _group_sums(codes: np.ndarray, n_groups: int, values: np.ndarray) -> np.ndarray:
    """Per group, its rows of ``values`` (n,) or (n, k) added in row order from 0.0.

    One ``np.bincount`` over ``codes * k + column``, so each sum equals that
    loop's bit for bit. The sums are floats even without rows, where
    ``np.bincount`` counts in integers; a group without rows sums to 0.0.
    """
    k = int(np.prod(values.shape[1:]))
    sums = np.bincount((codes[:, None] * k + np.arange(k)).ravel(), weights=values.ravel(),
                       minlength=n_groups * k)
    return sums.astype(float, copy=False).reshape((n_groups,) + values.shape[1:])


def row_sums(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Per row, ``values[offsets[i]:offsets[i + 1]]`` added left to right by
    :func:`_group_sums`; ``offsets`` start at 0 and end at ``len(values)``."""
    counts = np.diff(offsets)
    return _group_sums(np.repeat(np.arange(len(counts)), counts), len(counts), values)


class FundamentalsTable(NamedTuple):
    """Firm-year fundamentals as read-only columns, one row per observation.

    ``firm`` and ``market`` are codes into the sorted ``firm_ids`` and
    ``market_ids``, which hold only ids that have rows. ``book_value_prev``
    is the optional lagged book value of a firm's first panel year, NaN where
    not given. Row ``i`` holds the raw ownership fractions
    ``stakes[stake_offsets[i]:stake_offsets[i + 1]]`` of all its reported
    shareholders; thresholding happens downstream. :meth:`from_labels` and
    :meth:`take` build a table and make its columns read-only.
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

    @classmethod
    def from_labels(cls, firms, markets, stakes, stake_counts, **columns) -> "FundamentalsTable":
        """A table whose row ``i`` belongs to firm ``firms[i]`` in market ``markets[i]``.

        The ids are coded by :func:`id_codes`. ``stakes`` concatenates the
        rows' stakes, ``stake_counts[i]`` of them for row ``i``; ``columns``
        gives the other columns by name.
        """
        firm_ids, firm = id_codes(firms)
        market_ids, market = id_codes(markets)
        return _frozen(cls(
            firm_ids=firm_ids, firm=firm, market_ids=market_ids, market=market,
            stakes=np.asarray(stakes, dtype=float),
            stake_offsets=np.cumsum([0, *stake_counts], dtype=np.int64),
            **{name: np.asarray(values, dtype=np.int64 if name.endswith("year") else float)
               for name, values in columns.items()}))

    def take(self, rows) -> "FundamentalsTable":
        """The table of ``rows`` (row numbers, in their order); ids left without rows drop out."""
        rows = np.asarray(rows, dtype=np.int64)
        columns = {name: getattr(self, name)[rows] for name in ROW_COLUMNS}
        firms, columns["firm"] = np.unique(columns["firm"], return_inverse=True)
        markets, columns["market"] = np.unique(columns["market"], return_inverse=True)
        counts = np.diff(self.stake_offsets)[rows]
        offsets = np.cumsum([0, *counts], dtype=np.int64)
        items = np.repeat(self.stake_offsets[rows] - offsets[:-1], counts) + np.arange(offsets[-1])
        return _frozen(FundamentalsTable(
            firm_ids=tuple(self.firm_ids[c] for c in firms.tolist()),
            market_ids=tuple(self.market_ids[c] for c in markets.tolist()),
            stakes=self.stakes[items], stake_offsets=offsets, **columns))


def _frozen(table: FundamentalsTable) -> FundamentalsTable:
    """``table``, its columns made read-only."""
    for name in ROW_COLUMNS + ("stakes", "stake_offsets"):
        getattr(table, name).flags.writeable = False
    return table


def id_codes(raw_ids) -> tuple[tuple[str, ...], np.ndarray]:
    """The sorted distinct ids, each raw id stripped at its ends, and each row's code into them.

    Nothing else is dropped: ``"F1"`` and ``"F1\\x00"`` are two ids.
    """
    raw_ids = np.asarray(raw_ids, dtype=object)
    # the rows of one id usually come together: strip and code each run of one raw id once
    new_run = np.ones(len(raw_ids), dtype=bool)
    new_run[1:] = raw_ids[1:] != raw_ids[:-1]
    starts = np.flatnonzero(new_run)
    run_ids = [raw.strip() for raw in raw_ids[starts].tolist()]
    ids = sorted(set(run_ids))
    code_of = {id_: code for code, id_ in enumerate(ids)}
    run_codes = np.array([code_of[id_] for id_ in run_ids], dtype=np.int64)
    return tuple(ids), np.repeat(run_codes, np.diff(np.append(starts, len(raw_ids))))


def key_order(codes: np.ndarray, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows in (code, key) order, and whether each row repeats an earlier row's (code, key)."""
    order = np.lexsort((keys, codes))
    repeat = np.zeros(len(codes), dtype=bool)
    # lexsort is stable: of two rows with one (code, key), the later row follows
    repeat[order[1:][(np.diff(codes[order]) == 0) & (np.diff(keys[order]) == 0)]] = True
    return order, repeat


class PanelCodes(NamedTuple):
    """Integer firm and period codes of a panel's rows, derived once.

    Row ``i`` belongs to firm ``firm_ids[firm[i]]`` (sorted ids) and to
    period ``years[period[i]]`` (sorted years).
    ``firm_sizes`` counts the rows of each firm. A sum per firm or per period
    is one :func:`_group_sums` over these codes.
    """

    firm_ids: tuple[str, ...]
    firm: np.ndarray
    firm_sizes: np.ndarray
    years: np.ndarray
    period: np.ndarray

    @classmethod
    def from_codes(cls, firm_ids, firm, row_years) -> "PanelCodes":
        """Codes for rows of firm ``firm_ids[firm[i]]`` and year ``row_years[i]``.

        ``firm_ids`` must be sorted; ids without rows drop out.
        """
        present, firm = np.unique(firm, return_inverse=True)
        firm_ids = tuple(firm_ids[g] for g in present.tolist())
        # with return_inverse, np.unique does not import numpy.ma (a plain call does)
        years, period = np.unique(np.asarray(row_years, dtype=np.int64), return_inverse=True)
        return cls(firm_ids=firm_ids, firm=firm,
                   firm_sizes=np.bincount(firm, minlength=len(firm_ids)),
                   years=years, period=period)

    def select(self, rows) -> "PanelCodes":
        """The codes of ``rows`` (a mask or row numbers); firms left without rows drop out.

        A mask that keeps every row gives these codes themselves: ``from_codes``
        would rebuild them equal, and they are frozen.
        """
        rows = np.asarray(rows)
        if rows.dtype == bool and len(rows) == len(self.firm) and rows.all():
            return self
        return self.from_codes(self.firm_ids, self.firm[rows], self.years[self.period[rows]])

    def firm_means(self, values: np.ndarray) -> np.ndarray:
        """Per-firm means of a vector (G,) or of each matrix column (G, k).

        Each mean is a firm's row-order sum (:func:`_group_sums`) divided by its
        row count, so the means equal that loop over firms bit for bit.
        """
        return (_group_sums(self.firm, len(self.firm_ids), values).T / self.firm_sizes).T


class PanelDataset(NamedTuple):
    """Validated panel: ``table`` holds one row per (firm, year), sorted by firm then year.

    ``codes`` are the rows' firm and period codes, ``risk_free`` the read-only
    {(market_id, year): 10-year government bond yield} mapping and ``row_rates``
    each row's rate. Immutable after construction; the panel need not be balanced.
    """

    table: FundamentalsTable
    codes: PanelCodes
    row_rates: np.ndarray
    risk_free: Mapping[tuple[str, int], float]

    def firm_markets(self) -> list[str]:
        """Each firm's market in firm-code order, as recorded in its last panel year."""
        last = np.cumsum(self.codes.firm_sizes) - 1
        return [self.table.market_ids[m] for m in self.table.market[last].tolist()]


def build_dataset(table: FundamentalsTable, risk_free: Mapping) -> PanelDataset:
    """Assemble a :class:`PanelDataset` from parsed, validated fundamentals.

    Deterministic and order-independent: permuting the table's rows yields
    an identical dataset. Of the rows that repeat an earlier (firm, year) or
    lack a risk-free rate, the first one raises :class:`DuplicateKey` or
    :class:`MissingRiskFree`, and an empty table :class:`EmptyInput`. The
    rates are taken as given: ``ingest.parse_riskfree`` keeps them in
    [0, 0.5].
    """
    if not len(table.year):
        raise EmptyInput("no observations supplied")

    order, duplicate = key_order(table.firm, table.year)
    row_rates = np.array([risk_free.get(key, np.nan) for key in
                          zip(map(table.market_ids.__getitem__, table.market.tolist()),
                              table.year.tolist())], dtype=float)
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
    row_rates = row_rates[order]
    row_rates.flags.writeable = False
    return PanelDataset(table=table, codes=codes, row_rates=row_rates, risk_free=risk_free)
