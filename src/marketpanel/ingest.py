"""CSV ingestion: fundamentals, monthly prices and risk-free rates.

The dialect is strict so the contract is bit-exact: comma separated, UTF-8,
header required, and in every file a number is what ``numpy.loadtxt`` reads
(see ``_number``). One reader serves the three files, and a row fails with
the first of its parser's checks it fails. Fundamentals rows that fail are
left out and returned with their line numbers and reasons; in prices and
risk-free rates the first failing row fails hard. A missing or renamed
column means the wrong file and fails hard.
"""

import csv
import io
import math
from itertools import chain
from types import MappingProxyType

import numpy as np

from .beta import PriceTable, _index_month, _month_index, _read_only
from .errors import (DuplicateMonth, IoFailure, NonPositivePrice, RateOutOfRange,
                     SchemaMismatch)
from .panel_core import STAKE_SUM_TOL, FundamentalsTable, id_codes, key_order, row_sums

FUNDAMENTALS_COLUMNS = ("firm_id", "market_id", "year", "price", "book_value", "eps",
                        "sga", "rd", "sales", "total_assets", "total_equity",
                        "establishment_year", "stakes")
OPTIONAL_FUNDAMENTALS_COLUMN = "book_value_2009"
PRICES_COLUMNS = ("series_id", "year", "month", "close")
RISKFREE_COLUMNS = ("market_id", "year", "rate")
# per file: its columns, how the reader reads each (str cells as given, int as int64,
# float as float64) and the optional trailing column, read as str
_LAYOUTS = {
    "fundamentals": (FUNDAMENTALS_COLUMNS, (str, str, int, *(float,) * 8, int, str),
                     (OPTIONAL_FUNDAMENTALS_COLUMN,)),
    "prices": (PRICES_COLUMNS, (str, int, int, float), ()),
    "riskfree": (RISKFREE_COLUMNS, (str, int, float), ()),
}
_DTYPES = {str: object, int: np.int64, float: np.float64}
_MAX_YEAR = np.iinfo(np.int64).max // 12 - 1   # beyond it the month index overflows


def _text_newlines(text: str) -> str:
    """``text`` with ``\\r\\n`` and a lone ``\\r`` read as ``\\n``, as text mode reads them."""
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def _read_text(path: str) -> str:
    """The text of the UTF-8 file at ``path``, a leading byte-order mark (Excel's "CSV UTF-8"
    writes one) dropped and its newlines read as text mode reads them.

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
    return _text_newlines(text.removeprefix("\ufeff"))


def _number(cell: str, name: str, kind: type):
    """``cell`` read as ``kind`` (float or int); a ValueError gives the reason it does not read.

    The stripped cell must be ASCII without ``_`` and read as ``float()`` or
    ``int()`` reads it, which is what ``numpy.loadtxt`` reads; a float must
    be finite and an int must fit 64 bits.
    """
    raw = cell.strip()
    if kind is float and "," in raw:
        raise ValueError(f"{name}: thousands separators not accepted")
    try:
        value = kind(raw)
    except ValueError as exc:
        raise ValueError(str(exc) if kind is float else f"{name}: not an integer")
    if not raw.isascii() or "_" in raw:
        raise ValueError(f"{name}: digit separators and non-ASCII digits not accepted")
    if kind is float and not math.isfinite(value):
        raise ValueError(f"{name}: not a finite number")
    if kind is int and not -2**63 <= value < 2**63:
        raise ValueError(f"{name}: out of range")
    return value


def _numbers(cells, name: str, kind: type) -> tuple[np.ndarray, list[tuple[int, str]]]:
    """A column of cells read as ``kind`` by ``_number``, and (row, reason) for
    each cell that does not read (its value left 0)."""
    dtype = _DTYPES[kind]
    text = "".join(cells)
    if text.isascii() and "_" not in text:
        try:
            # numpy converts each str cell with float() or int(), which strip it
            values = np.array(cells, dtype=dtype)
            if kind is int or np.isfinite(values).all():
                return values, []
        except (ValueError, OverflowError):
            pass
    values = np.zeros(len(cells), dtype=dtype)
    reasons = []
    for r, cell in enumerate(cells):
        try:
            values[r] = _number(cell, name, kind)
        except ValueError as exc:
            reasons.append((r, str(exc)))
    return values, reasons


def _failing(mask: np.ndarray, reason: str) -> list[tuple[int, str]]:
    return [(r, reason) for r in np.flatnonzero(mask).tolist()]


def _check_header(header: list[str], expected: tuple[str, ...], what: str,
                  optional: tuple[str, ...] = ()) -> list[str]:
    cleaned = [h.strip() for h in header]
    if tuple(cleaned[:len(expected)]) != expected:
        raise SchemaMismatch(f"{what}: expected header {','.join(expected)!r}, "
                             f"got {','.join(cleaned)!r}")
    extra = cleaned[len(expected):]
    for i, col in enumerate(extra):
        if col not in optional:
            raise SchemaMismatch(f"{what}: unexpected column {col!r}")
        if col in extra[:i]:
            raise SchemaMismatch(f"{what}: repeated column {col!r}")
    return cleaned


def _loadtxt_pass(body: str, names: list[str], kinds: tuple[type, ...]):
    """The body read by one ``loadtxt`` call, or None if ``_csv_pass`` must read it.

    Taken when the body is ASCII with no quote, has a non-empty line, and
    every cell reads: each line has the header's width and each number cell
    reads as its kind. Non-ASCII text is left to ``_csv_pass`` because
    numpy's int parser reads some non-ASCII letters as digits ("Ǿ15" as
    46215). Returns what ``_csv_pass`` returns.
    """
    if '"' in body or not body.isascii() or not body.strip("\n"):
        return None
    lines = body.split("\n")
    if not lines[-1]:
        lines.pop()   # the text's final newline
    # loadtxt skips empty lines, as csv.reader does
    line_nos = [n for n, line in enumerate(lines, start=2) if line] if "" in lines \
        else range(2, len(lines) + 2)
    dtype = np.dtype([(f"c{j}", _DTYPES[kind]) for j, kind in enumerate(kinds)])
    try:
        rows = np.loadtxt(lines, dtype=dtype, delimiter=",", quotechar=None,
                          comments=None, ndmin=1)
    except (ValueError, OverflowError):
        return None
    columns = [rows[f"c{j}"] for j in range(len(kinds))]
    reasons = []
    for name, kind, column in zip(names, kinds, columns):
        bad = ~np.isfinite(column) if kind is float else np.zeros(len(column), dtype=bool)
        column[bad] = 0   # as _numbers leaves a cell that does not read
        reasons.append(_failing(bad, f"{name}: not a finite number"))
    return line_nos, columns, [], reasons


def _csv_pass(body: str, what: str, names: list[str], kinds: tuple[type, ...]):
    """The body read by ``csv.reader``.

    Returns the file line on which each row that has a non-blank cell
    starts (the header is line 1; a quoted cell may span lines);
    one column per header name (str cells as an object array, numbers by
    ``_numbers``; a row of the wrong width reads as zeros); a (row, reason)
    for each row of the wrong width; and per column, a (row, reason) for
    each number cell that does not read.
    """
    reader = csv.reader(io.StringIO(body))
    line_nos, body_rows, last = [], [], 0
    try:
        for row in reader:
            if any(map(str.strip, row)):
                line_nos.append(last + 2)
                body_rows.append(row)
            last = reader.line_num
    except csv.Error as exc:
        raise SchemaMismatch(f"{what} line {reader.line_num + 1}: {exc}")
    width = len(names)
    widths = [(r, f"expected {width} fields, got {len(row)}")
              for r, row in enumerate(body_rows) if len(row) != width]
    cells = list(zip(*[row if len(row) == width else ("0",) * width for row in body_rows]))
    read = [(np.array(column, dtype=object), []) if kind is str else _numbers(column, name, kind)
            for name, kind, column in zip(names, kinds, cells or [()] * width)]
    return line_nos, [values for values, _ in read], widths, [why for _, why in read]


def _split(csv_text: str, what: str) -> tuple[str, list[str], tuple[type, ...]]:
    """The body of the ``what`` file ``csv_text``, its header names and each column's kind."""
    if not csv_text:
        raise SchemaMismatch(f"{what}: empty file")
    expected, kinds, optional = _LAYOUTS[what]
    head, _, body = _text_newlines(csv_text).partition("\n")
    names = _check_header(next(csv.reader([head]), []), expected, what, optional)
    return body, names, kinds + (str,) * (len(names) - len(kinds))


def _read(csv_text: str, what: str):
    """What ``_loadtxt_pass`` or else ``_csv_pass`` reads of the ``what`` file ``csv_text``."""
    body, names, kinds = _split(csv_text, what)
    return _loadtxt_pass(body, names, kinds) or _csv_pass(body, what, names, kinds)


def _first_failures(checks) -> dict[int, tuple[type | None, str]]:
    """{row: (error, reason)} of each failing row's first failing check; ``checks``
    lists (error class or None, [(row, reason), ...]) in the order they apply."""
    first = {}
    for error, failures in checks:
        for r, why in failures:
            first.setdefault(r, (error, why))
    return first


def _fail_hard(what: str, line_nos, checks) -> None:
    """Raise the first failing row's error, naming its 1-based file line."""
    first = _first_failures(checks)
    if first:
        r = min(first)
        error, why = first[r]
        raise error(f"{what} line {line_nos[r]}: {why}")


def _empty_id(ids: tuple[str, ...], codes: np.ndarray) -> np.ndarray:
    """Which rows have the empty id, which sorted ``ids`` hold first if at all."""
    return (codes == 0) & (ids[:1] == ("",))


def parse_fundamentals(csv_text: str) -> tuple[FundamentalsTable, tuple[tuple[int, str], ...]]:
    """Parse fundamentals.csv into one columnar table, soft-failing per row.

    Returns the accepted rows, in file order, and the rejected rows as
    (1-based file line number, reason) pairs in line order. Each
    check runs once over whole columns; a rejected row reports the first it
    fails: field count, a cell that is not a number (the lagged book value
    first), empty ids, then the field invariants. Rows whose cells are all
    blank are skipped. A schema problem raises :class:`SchemaMismatch`.
    """
    line_nos, columns, widths, reasons = _read(csv_text, "fundamentals")
    n_rows = len(line_nos)
    checks = [widths]
    prev = np.full(n_rows, np.nan)
    if len(columns) > len(FUNDAMENTALS_COLUMNS):
        given = [r for r, cell in enumerate(columns[-1]) if cell.strip()]
        prev[given], why = _numbers([columns[-1][r] for r in given],
                                    OPTIONAL_FUNDAMENTALS_COLUMN, float)
        checks.append([(given[i], reason) for i, reason in why])
    checks += reasons[2:12]
    parts = [cell.strip().split(";") if cell.strip() else [] for cell in columns[12]]
    counts = list(map(len, parts))
    stakes, why = _numbers(list(chain.from_iterable(parts)), "stakes", float)
    part_row = np.repeat(np.arange(n_rows), counts).tolist()
    checks.append([(part_row[i], reason) for i, reason in why])

    t = FundamentalsTable.from_labels(*columns[:2], stakes, counts, book_value_prev=prev,
                                      **dict(zip(FUNDAMENTALS_COLUMNS[2:12], columns[2:12])))
    checks += [
        _failing(_empty_id(t.firm_ids, t.firm) | _empty_id(t.market_ids, t.market),
                 "firm_id and market_id must be non-empty"),
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
    first = _first_failures((None, check) for check in checks)
    rejections = tuple(sorted((line_nos[r], why) for r, (_, why) in first.items()))
    return t.take([r for r in range(n_rows) if r not in first]), rejections


def parse_prices(csv_text: str) -> PriceTable:
    """Parse prices.csv into one columnar :class:`PriceTable`.

    Rows may arrive in any order; the table has sorted series ids and is
    ordered by (series, month). Rows whose cells are all blank are skipped.
    The rows are checked as arrays and the first offending one fails hard,
    naming its 1-based file line: a wrong field count, an empty id, a year,
    month or close that is not a number, a year whose month index overflows
    or a month outside 1..12 raises :class:`SchemaMismatch`, a non-positive
    close :class:`NonPositivePrice`, and a month the series already has
    :class:`DuplicateMonth`.
    """
    line_nos, columns, widths, reasons = _read(csv_text, "prices")
    raw_ids, years, calendar_months, closes = columns
    months = _month_index(years, calendar_months)
    series_ids, codes = id_codes(raw_ids)
    order, duplicate = key_order(codes, months)

    def failing(mask, reason):
        return [(r, reason.format(id=series_ids[codes[r]], year=int(years[r]),
                                  month=int(calendar_months[r]), close=float(closes[r])))
                for r in np.flatnonzero(mask).tolist()]

    _fail_hard("prices", line_nos, [
        (SchemaMismatch, widths),
        (SchemaMismatch, failing(_empty_id(series_ids, codes), "empty series_id")),
        *((SchemaMismatch, why) for why in reasons[1:]),
        (SchemaMismatch, failing((years < -_MAX_YEAR) | (years > _MAX_YEAR),
                                 "year {year} out of range")),
        (SchemaMismatch, failing((calendar_months < 1) | (calendar_months > 12),
                                 "month {month} outside 1..12")),
        (NonPositivePrice, failing(closes <= 0, "close {close!r} not positive")),
        (DuplicateMonth, failing(duplicate, "duplicate month ({id}, {year}, {month})")),
    ])
    codes, months, closes = codes[order], months[order], closes[order]
    _read_only(codes, months, closes)
    return PriceTable(series_ids=series_ids, codes=codes, months=months, closes=closes)


def parse_riskfree(csv_text: str) -> MappingProxyType:
    """Parse riskfree.csv into a read-only {(market_id, year): rate} mapping.

    Rows may arrive in any order; the mapping is in (market, year) order.
    Rows whose cells are all blank are skipped. The first offending row
    fails hard, naming its 1-based file line: a wrong field count, an empty
    id, a year or rate that is not a number or a repeated (market, year)
    raises :class:`SchemaMismatch`, and a rate outside [0, 0.5]
    :class:`RateOutOfRange`.
    """
    line_nos, (raw_ids, years, rates), widths, reasons = _read(csv_text, "riskfree")
    market_ids, codes = id_codes(raw_ids)
    order, duplicate = key_order(codes, years)

    def failing(mask, reason):
        return [(r, reason.format(id=market_ids[codes[r]], year=int(years[r]),
                                  rate=float(rates[r])))
                for r in np.flatnonzero(mask).tolist()]

    _fail_hard("riskfree", line_nos, [
        (SchemaMismatch, widths),
        (SchemaMismatch, failing(_empty_id(market_ids, codes), "empty market_id")),
        *((SchemaMismatch, why) for why in reasons[1:]),
        (RateOutOfRange, failing(~((rates >= 0) & (rates <= 0.5)),
                                 "rate {rate!r} outside [0, 0.5]")),
        (SchemaMismatch, failing(duplicate, "duplicate (market, year) ({id}, {year})")),
    ])
    keys = zip(map(market_ids.__getitem__, codes[order].tolist()), years[order].tolist())
    return MappingProxyType(dict(zip(keys, rates[order].tolist())))


# --- serialization (round-trip partners of the parsers) -----------------------
# Numbers are written as the repr of Python floats, which round-trips doubles exactly.

def _csv_cell(text: str) -> str:
    """``text`` as one CSV cell: quoted, its quotes doubled, when it holds a comma, a
    quote, CR or LF (RFC 4180 section 2), and as is otherwise."""
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _id_cells(ids) -> list[str]:
    """Each id as a CSV cell; ValueError names the first id that the readers would not
    return as written (they refuse an empty id, strip a cell's ends and read CR as LF)."""
    unreadable = [id_ for id_ in ids if not id_ or id_ != id_.strip() or "\r" in id_]
    if unreadable:
        raise ValueError(f"id {unreadable[0]!r} would not read back: empty, outer blanks or CR")
    return list(map(_csv_cell, ids))


def _csv_text(rows) -> str:
    """The CSV text of ``rows``, the header first, each a sequence of cells made by
    ``_csv_cell``: ``,`` between cells and ``\\n`` after every line."""
    return "\n".join(map(",".join, rows)) + "\n"


def fundamentals_to_csv(table: FundamentalsTable) -> str:
    prev = table.book_value_prev.tolist()
    firm_ids, market_ids = _id_cells(table.firm_ids), _id_cells(table.market_ids)
    stakes = list(map(repr, table.stakes.tolist()))
    offsets = table.stake_offsets.tolist()
    header = FUNDAMENTALS_COLUMNS
    columns = [map(firm_ids.__getitem__, table.firm.tolist()),
               map(market_ids.__getitem__, table.market.tolist()),
               map(str, table.year.tolist()),
               *(map(repr, getattr(table, name).tolist()) for name in FUNDAMENTALS_COLUMNS[3:11]),
               map(str, table.establishment_year.tolist()),
               (";".join(stakes[a:b]) for a, b in zip(offsets, offsets[1:]))]
    if not all(map(math.isnan, prev)):
        header += (OPTIONAL_FUNDAMENTALS_COLUMN,)
        columns.append("" if math.isnan(v) else repr(v) for v in prev)
    return _csv_text(chain([header], zip(*columns)))


def prices_to_csv(prices: PriceTable) -> str:
    ids = _id_cells(prices.series_ids)
    axis, at = np.unique(prices.months, return_inverse=True)   # each month decoded once
    years, months = (list(map(str, column.tolist())) for column in _index_month(axis))
    at = at.tolist()
    return _csv_text(chain([PRICES_COLUMNS], zip(
        map(ids.__getitem__, prices.codes.tolist()), map(years.__getitem__, at),
        map(months.__getitem__, at), map(repr, prices.closes.tolist()))))


def riskfree_to_csv(risk_free) -> str:
    """riskfree.csv of a {(market_id, year): rate} mapping, in (market, year) order."""
    keys = sorted(risk_free)
    cells = _id_cells([market for market, _ in keys])
    # float(): a rate may be a numpy scalar, whose repr is not a number
    return _csv_text(chain([RISKFREE_COLUMNS], (
        (cell, str(key[1]), repr(float(risk_free[key]))) for cell, key in zip(cells, keys))))
