"""CSV ingestion: fundamentals, monthly prices and risk-free rates.

The dialect is deliberately strict so the contract is bit-exact: comma
separated, UTF-8, ``.`` decimal point, integer years/months, header required.
Fundamentals rows that fail a check are left out and reported in an
:class:`IngestReport`; a missing or renamed column means the wrong file and
fails hard.
"""

import csv
import io
import math
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .beta import PriceTable
from .errors import (DuplicateMonth, IoFailure, NonPositivePrice, RateOutOfRange,
                     SchemaMismatch)
from .panel_core import STAKE_SUM_TOL, FundamentalsTable, RiskFreeSeries, row_sums

FUNDAMENTALS_COLUMNS = ("firm_id", "market_id", "year", "price", "book_value", "eps",
                        "sga", "rd", "sales", "total_assets", "total_equity",
                        "establishment_year", "stakes")
OPTIONAL_FUNDAMENTALS_COLUMN = "book_value_2009"
PRICES_COLUMNS = ("series_id", "year", "month", "close")
RISKFREE_COLUMNS = ("market_id", "year", "rate")
_PRICE_ROW = np.dtype([("series_id", object), ("year", np.int64), ("month", np.int64),
                       ("close", np.float64)])
_MAX_YEAR = np.iinfo(np.int64).max // 12 - 1   # beyond it the month index overflows
_MONEY_COLUMNS = range(3, 11)   # price .. total_equity in FUNDAMENTALS_COLUMNS


@dataclass(frozen=True)
class IngestReport:
    """Outcome of a soft-fail parse: accepted/rejected row counts."""

    rows_accepted: int
    rows_rejected: int
    rejections: tuple[tuple[int, str], ...]


def _text_newlines(text: str) -> str:
    """``text`` with ``\\r\\n`` and a lone ``\\r`` read as ``\\n``, as text mode reads them."""
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def _read_text(path: str) -> str:
    """The text of the UTF-8 file at ``path``, its newlines read as text mode reads them.

    Raises :class:`IoFailure` naming the file when it cannot be read or is not
    UTF-8, with the offset of the first byte that does not decode.
    """
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise IoFailure(f"{path} is not UTF-8 text: byte {data[exc.start]:#04x} "
                        f"at offset {exc.start} ({exc.reason})")
    return _text_newlines(text)


def _parse_float(text: str, name: str) -> float:
    raw = text.strip()
    if raw != raw.replace(",", ""):
        raise ValueError(f"{name}: thousands separators not accepted")
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"{name}: not a finite number")
    return value


def _parse_int(text: str, name: str) -> int:
    try:
        return int(text.strip())
    except ValueError:
        raise ValueError(f"{name}: not an integer")


def _rows(csv_text: str):
    return list(csv.reader(io.StringIO(csv_text)))


def _check_header(header: list[str], expected: tuple[str, ...], what: str,
                  optional: tuple[str, ...] = ()) -> list[str]:
    cleaned = [h.strip() for h in header]
    base = cleaned[:len(expected)]
    if tuple(base) != expected:
        raise SchemaMismatch(f"{what}: expected header {','.join(expected)!r}, "
                             f"got {','.join(cleaned)!r}")
    extras = cleaned[len(expected):]
    for col in extras:
        if col not in optional:
            raise SchemaMismatch(f"{what}: unexpected column {col!r}")
    return cleaned


def _numbers(cells: list[str], name: str, kind: type) -> tuple[np.ndarray, dict[int, str]]:
    """A column of number cells read as ``kind`` (float or int), and the reason
    each cell that does not read as a finite number fails, by row."""
    dtype = np.float64 if kind is float else np.int64
    try:
        # numpy converts each str cell with Python's own float() or int(),
        # which strip whitespace as the per-cell parsers do
        values = np.array(cells, dtype=dtype)
        if kind is int or np.isfinite(values).all():
            return values, {}
    except (ValueError, OverflowError):
        pass
    # some cell fails: convert cell by cell to give each its reason
    parse = _parse_float if kind is float else _parse_int
    values = np.zeros(len(cells), dtype=dtype)
    reasons = {}
    for i, cell in enumerate(cells):
        try:
            values[i] = parse(cell, name)
        except ValueError as exc:
            reasons[i] = str(exc)
        except OverflowError:
            reasons[i] = f"{name}: out of range"
    return values, reasons


def _failing(mask: np.ndarray, reason: str) -> list[tuple[int, str]]:
    return [(r, reason) for r in np.flatnonzero(mask).tolist()]


def _fundamentals_header(header: list[str]) -> list[str]:
    return _check_header(header, FUNDAMENTALS_COLUMNS, "fundamentals",
                         optional=(OPTIONAL_FUNDAMENTALS_COLUMN,))


def _loadtxt_cells(csv_text: str):
    """fundamentals.csv split by one ``loadtxt`` call, or None if the csv reader must split it.

    Taken when the text has no quote, every non-empty body line has the
    header's width, and every money cell reads as a finite number in numpy's
    parser, which reads a subset of the stripped cells ``float()`` reads, and
    to the same double. The other columns come as the str cells
    ``csv.reader`` would give. Returns what ``_csv_cells`` returns.
    """
    if '"' in csv_text:
        return None
    head, _, body = csv_text.partition("\n")
    width = len(_fundamentals_header(head.split(",")))
    lines = body.split("\n")
    if lines and not lines[-1]:
        lines.pop()   # the text's final newline
    line_nos = [n for n, line in enumerate(lines, start=2) if line]
    if not line_nos:
        return [], [[]] * width, []
    dtype = np.dtype([(f"c{j}", np.float64 if j in _MONEY_COLUMNS else object)
                      for j in range(width)])
    try:
        rows = np.loadtxt(lines, dtype=dtype, delimiter=",", quotechar=None,
                          comments=None, ndmin=1)
    except ValueError:
        return None
    columns = [rows[f"c{j}"] if j in _MONEY_COLUMNS else rows[f"c{j}"].tolist()
               for j in range(width)]
    if not all(np.isfinite(columns[j]).all() for j in _MONEY_COLUMNS):
        return None
    return line_nos, columns, []


def _csv_cells(csv_text: str):
    """fundamentals.csv split by ``csv.reader``.

    Returns the 1-based file line of each row that has a non-blank cell, one
    sequence of cells per column (a row of the wrong width reads as zeros),
    and a (row, reason) for each row of the wrong width.
    """
    rows = _rows(csv_text)
    width = len(_fundamentals_header(rows[0]))
    line_nos = [n for n, row in enumerate(rows[1:], start=2) if any(map(str.strip, row))]
    body = [rows[n - 1] for n in line_nos]
    columns = list(zip(*[row if len(row) == width else ("0",) * width for row in body]))
    widths = [(r, f"expected {width} fields, got {len(row)}")
              for r, row in enumerate(body) if len(row) != width]
    return line_nos, columns or [()] * width, widths


def parse_fundamentals(csv_text: str) -> tuple[FundamentalsTable, IngestReport]:
    """Parse fundamentals.csv into one columnar table, soft-failing per row.

    Returns the accepted rows, in file order, and an :class:`IngestReport`
    whose ``rejections`` carry 1-based file line numbers and reasons. Each
    check runs once over whole columns; a rejected row reports the first it
    fails: field count, a cell that is not a finite number (the lagged book
    value first), empty ids, then the field invariants. Rows whose cells are
    all blank are skipped. A schema problem raises :class:`SchemaMismatch`.
    The body is split by one ``loadtxt`` call when ``_loadtxt_cells`` can
    read it and by ``csv.reader`` otherwise; both give the same table.
    """
    if not csv_text:
        raise SchemaMismatch("fundamentals: empty file")
    csv_text = _text_newlines(csv_text)
    return _fundamentals(*(_loadtxt_cells(csv_text) or _csv_cells(csv_text)))


def _fundamentals(line_nos: list[int], columns: list, widths: list[tuple[int, str]]
                  ) -> tuple[FundamentalsTable, IngestReport]:
    """The table and report of the body rows that ``line_nos`` and ``columns`` hold."""
    n_rows, width = len(line_nos), len(columns)
    # each check lists (row, reason) for the rows it fails, in row order
    checks = [widths]
    prev = np.full(n_rows, np.nan)
    if width > len(FUNDAMENTALS_COLUMNS):
        given = [r for r, cell in enumerate(columns[-1]) if cell.strip()]
        prev[given], reasons = _numbers([columns[-1][r] for r in given],
                                        OPTIONAL_FUNDAMENTALS_COLUMN, float)
        checks.append([(given[i], why) for i, why in reasons.items()])
    parsed = {}
    for j, name in enumerate(FUNDAMENTALS_COLUMNS[2:12], start=2):
        # a money column read by loadtxt is already a finite float array
        parsed[name], reasons = _numbers(columns[j], name,
                                         int if name.endswith("year") else float)
        checks.append(reasons.items())
    parts = [cell.strip().split(";") if cell.strip() else [] for cell in columns[12]]
    counts = list(map(len, parts))
    stakes, reasons = _numbers(list(chain.from_iterable(parts)), "stakes", float)
    part_row = np.repeat(np.arange(n_rows), counts).tolist()
    checks.append([(part_row[i], why) for i, why in reasons.items()])

    firms = np.array([cell.strip() for cell in columns[0]], dtype=str)
    markets = np.array([cell.strip() for cell in columns[1]], dtype=str)
    t = FundamentalsTable.from_labels(firms, markets, stakes, counts,
                                      book_value_prev=prev, **parsed)
    checks += [
        _failing((firms == "") | (markets == ""), "firm_id and market_id must be non-empty"),
        _failing(~(t.price > 0), "price must be positive"),
        _failing(~(t.book_value > 0), "book value must be positive"),
        _failing(~(t.total_assets > 0), "total assets must be positive"),
        _failing(~(t.sales > 0), "sales must be positive"),
        _failing(~(t.rd >= 0), "R&D must be non-negative"),
        _failing(~(t.sga - t.rd >= 0), "SG&A minus R&D negative"),
        # leverage (equity/assets) must land in [0, 1]
        _failing(~(t.total_equity >= 0), "total equity must be non-negative"),
        _failing(~(t.total_equity <= t.total_assets), "total equity exceeds total assets"),
        _failing(~(t.establishment_year <= t.year), "establishment year after observation year"),
        [(part_row[i], f"stake {float(t.stakes[i])!r} outside (0, 1]")
         for i in np.flatnonzero(~((t.stakes > 0) & (t.stakes <= 1))).tolist()],
        _failing(~(row_sums(t.stakes, t.stake_offsets) <= 1 + STAKE_SUM_TOL),
                 "stakes sum exceeds 1"),
        _failing(~np.isnan(prev) & ~(prev > 0), "lagged book value must be positive"),
    ]
    first = {}
    for check in checks:
        for r, why in check:
            first.setdefault(r, why)
    report = IngestReport(rows_accepted=n_rows - len(first), rows_rejected=len(first),
                          rejections=tuple(sorted((line_nos[r], why) for r, why in first.items())))
    return t.take([r for r in range(n_rows) if r not in first]), report


def _blank_row(line: str) -> bool:
    """Whether csv reads ``line`` as a row whose cells are all blank."""
    return not any(cell.strip() for cell in next(csv.reader([line]), []))


def _load_price_rows(lines: list[str]) -> np.ndarray:
    if not any(lines):
        return np.empty(0, dtype=_PRICE_ROW)
    return np.loadtxt(lines, dtype=_PRICE_ROW, delimiter=",", quotechar='"',
                      comments=None, ndmin=1)


def _read_price_rows(body: list[str]) -> tuple[np.ndarray, Sequence[int], int | None]:
    """The rows of prices.csv's body lines.

    Returns the rows, the 1-based file line of each, and the index of the
    first unreadable row (None if every row reads). A well-formed body is
    read by one ``loadtxt`` call, which skips empty lines itself. Otherwise
    the lines csv reads as all-blank rows are dropped and, as ``loadtxt``
    reports no usable line number, what is left is bisected down to its
    first unreadable line; the rows before it are returned.
    """
    try:
        rows = _load_price_rows(body)
        if "" in body:
            return rows, [n for n, line in enumerate(body, start=2) if line], None
        return rows, range(2, len(body) + 2), None
    except ValueError:
        pass
    line_nos = [n for n, line in enumerate(body, start=2) if not _blank_row(line)]
    lines = [body[n - 2] for n in line_nos]
    try:
        return _load_price_rows(lines), line_nos, None
    except ValueError:
        pass
    lo, hi = 0, len(lines)   # lines[:lo] read, lines[:hi] do not
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            _load_price_rows(lines[lo:mid])
            lo = mid
        except ValueError:
            hi = mid
    return _load_price_rows(lines[:lo]), line_nos, lo


def _unreadable_reason(line: str) -> str:
    cells = next(csv.reader([line]), [])
    if len(cells) != len(PRICES_COLUMNS):
        return f"expected {len(PRICES_COLUMNS)} fields, got {len(cells)}"
    return f"year and month must be integers and close a number, got {line.strip()!r}"


def parse_prices(csv_text: str) -> PriceTable:
    """Parse prices.csv into one columnar :class:`PriceTable`.

    Rows may arrive in any order; the table has sorted series ids and is
    ordered by (series, month). Rows whose cells are all blank are skipped;
    a quoted cell may not span lines. The rows are checked as arrays and the
    first offending one fails hard, naming its 1-based file line: a row that
    does not read as id, integer year, integer month, number, an empty id, a
    non-finite close or a month outside 1..12 raises :class:`SchemaMismatch`, a
    non-positive close :class:`NonPositivePrice`, and a month the series
    already has :class:`DuplicateMonth`.
    """
    if not csv_text:
        raise SchemaMismatch("prices: empty file")
    header, *body = _text_newlines(csv_text).split("\n")
    if body and not body[-1]:
        body.pop()   # the text's final newline
    _check_header(next(csv.reader([header]), []), PRICES_COLUMNS, "prices")
    rows, line_nos, unreadable = _read_price_rows(body)

    # a series' rows usually come together: code each run of one raw id once
    raw_ids = rows["series_id"]
    new_run = np.ones(len(raw_ids), dtype=bool)
    new_run[1:] = raw_ids[1:] != raw_ids[:-1]
    starts = np.flatnonzero(new_run)
    run_ids = [raw.strip() for raw in raw_ids[starts].tolist()]
    series_ids = sorted(set(run_ids))
    code_of = {series_id: code for code, series_id in enumerate(series_ids)}
    run_codes = np.array([code_of[series_id] for series_id in run_ids], dtype=np.int64)
    codes = np.repeat(run_codes, np.diff(np.append(starts, len(raw_ids))))
    years, calendar_months, closes = rows["year"], rows["month"], rows["close"]
    months = years * 12 + (calendar_months - 1)
    order = np.lexsort((months, codes))
    duplicate = np.zeros(len(rows), dtype=bool)
    # lexsort is stable: of two rows with one (series, month), the later line follows
    duplicate[order[1:][(np.diff(codes[order]) == 0) & (np.diff(months[order]) == 0)]] = True

    checks = (
        (codes == code_of.get("", -1), SchemaMismatch, "empty series_id"),
        ((years < -_MAX_YEAR) | (years > _MAX_YEAR), SchemaMismatch,
         "year {year} out of range"),
        (~np.isfinite(closes), SchemaMismatch, "close {close!r} not a finite number"),
        ((calendar_months < 1) | (calendar_months > 12), SchemaMismatch,
         "month {month} outside 1..12"),
        (closes <= 0, NonPositivePrice, "close {close!r} not positive"),
        (duplicate, DuplicateMonth, "duplicate month ({series_id}, {year}, {month})"),
    )
    failed = np.logical_or.reduce([mask for mask, _, _ in checks])
    if failed.any():
        r = int(np.argmax(failed))
        error, reason = next((error, reason) for mask, error, reason in checks if mask[r])
        raise error(f"prices line {line_nos[r]}: " + reason.format(
            series_id=series_ids[codes[r]], year=int(years[r]), month=int(calendar_months[r]),
            close=float(closes[r])))
    if unreadable is not None:
        raise SchemaMismatch(f"prices line {line_nos[unreadable]}: "
                             f"{_unreadable_reason(body[line_nos[unreadable] - 2])}")
    return PriceTable(series_ids=tuple(series_ids), codes=codes[order],
                      months=months[order], closes=closes[order])


def parse_riskfree(csv_text: str) -> list[RiskFreeSeries]:
    """Parse riskfree.csv into one :class:`RiskFreeSeries` per market."""
    rows = _rows(_text_newlines(csv_text))
    if not rows:
        raise SchemaMismatch("riskfree: empty file")
    _check_header(rows[0], RISKFREE_COLUMNS, "riskfree")

    by_market: dict[str, dict[int, float]] = {}
    for line_no, row in enumerate(rows[1:], start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != len(RISKFREE_COLUMNS):
            raise SchemaMismatch(f"riskfree line {line_no}: expected {len(RISKFREE_COLUMNS)} fields")
        market_id = row[0].strip()
        if not market_id:
            raise SchemaMismatch(f"riskfree line {line_no}: empty market_id")
        try:
            year = _parse_int(row[1], "year")
            rate = _parse_float(row[2], "rate")
        except ValueError as exc:
            raise SchemaMismatch(f"riskfree line {line_no}: {exc}")
        if not 0 <= rate <= 0.5:
            raise RateOutOfRange(f"riskfree line {line_no}: rate {rate!r} outside [0, 0.5]")
        rates = by_market.setdefault(market_id, {})
        if year in rates:
            raise SchemaMismatch(f"riskfree line {line_no}: duplicate (market, year) "
                                 f"({market_id}, {year})")
        rates[year] = rate

    return [RiskFreeSeries(market_id=m, rates=dict(sorted(by_market[m].items())))
            for m in sorted(by_market)]


# --- serialization (round-trip partners of the parsers) -----------------------

def _fmt(value: float) -> str:
    # repr round-trips doubles exactly, keeping re-parsed data identical
    return repr(float(value))


def fundamentals_to_csv(table: FundamentalsTable) -> str:
    prev = table.book_value_prev.tolist()
    include_prev = not all(map(math.isnan, prev))
    header = list(FUNDAMENTALS_COLUMNS)
    if include_prev:
        header.append(OPTIONAL_FUNDAMENTALS_COLUMN)
    stakes = list(map(_fmt, table.stakes.tolist()))
    offsets = table.stake_offsets.tolist()
    columns = [map(table.firm_ids.__getitem__, table.firm.tolist()),
               map(table.market_ids.__getitem__, table.market.tolist()),
               map(str, table.year.tolist()),
               *(map(_fmt, getattr(table, name).tolist()) for name in FUNDAMENTALS_COLUMNS[3:11]),
               map(str, table.establishment_year.tolist()),
               (";".join(stakes[a:b]) for a, b in zip(offsets, offsets[1:]))]
    if include_prev:
        columns.append("" if math.isnan(v) else _fmt(v) for v in prev)
    return "\n".join([",".join(header), *map(",".join, zip(*columns))]) + "\n"


def prices_to_csv(prices: PriceTable) -> str:
    ids = prices.series_ids
    lines = [",".join(PRICES_COLUMNS)]
    for code, month, close in zip(prices.codes.tolist(), prices.months.tolist(),
                                  prices.closes.tolist()):
        lines.append(f"{ids[code]},{month // 12},{month % 12 + 1},{_fmt(close)}")
    return "\n".join(lines) + "\n"


def riskfree_to_csv(series: list[RiskFreeSeries]) -> str:
    lines = [",".join(RISKFREE_COLUMNS)]
    for s in series:
        for year in sorted(s.rates):
            lines.append(f"{s.market_id},{year},{_fmt(s.rates[year])}")
    return "\n".join(lines) + "\n"
