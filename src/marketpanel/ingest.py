"""CSV ingestion: fundamentals, monthly prices and risk-free rates.

The dialect is deliberately strict so the contract is bit-exact: comma
separated, UTF-8, ``.`` decimal point, integer years/months, header required.
Fundamentals rows soft-fail one by one into an :class:`IngestReport`; a
missing or renamed column means the wrong file and fails hard.
"""

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .beta import PriceTable
from .errors import (DuplicateMonth, InvariantViolation, NonPositivePrice,
                     RateOutOfRange, SchemaMismatch)
from .panel_core import FirmYearObservation, RiskFreeSeries, validate_observation

FUNDAMENTALS_COLUMNS = ("firm_id", "market_id", "year", "price", "book_value", "eps",
                        "sga", "rd", "sales", "total_assets", "total_equity",
                        "establishment_year", "stakes")
OPTIONAL_FUNDAMENTALS_COLUMN = "book_value_2009"
PRICES_COLUMNS = ("series_id", "year", "month", "close")
RISKFREE_COLUMNS = ("market_id", "year", "rate")
_PRICE_ROW = np.dtype([("series_id", object), ("year", np.int64), ("month", np.int64),
                       ("close", np.float64)])
_MAX_YEAR = np.iinfo(np.int64).max // 12 - 1   # beyond it the month index overflows


@dataclass(frozen=True)
class IngestReport:
    """Outcome of a soft-fail parse: accepted/rejected row counts."""

    rows_accepted: int
    rows_rejected: int
    rejections: tuple[tuple[int, str], ...]


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


def _parse_stakes(text: str) -> tuple[float, ...]:
    raw = text.strip()
    if not raw:
        return ()
    return tuple(_parse_float(part, "stakes") for part in raw.split(";"))


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


def parse_fundamentals(csv_text: str) -> tuple[list[FirmYearObservation], IngestReport]:
    """Parse fundamentals.csv into observations, soft-failing per row.

    Returns the accepted observations and an :class:`IngestReport` whose
    ``rejections`` carry 1-based file line numbers and reasons. A schema
    problem raises :class:`SchemaMismatch` instead.
    """
    rows = _rows(csv_text)
    if not rows:
        raise SchemaMismatch("fundamentals: empty file")
    header = _check_header(rows[0], FUNDAMENTALS_COLUMNS, "fundamentals",
                           optional=(OPTIONAL_FUNDAMENTALS_COLUMN,))
    has_prev = OPTIONAL_FUNDAMENTALS_COLUMN in header

    accepted: list[FirmYearObservation] = []
    rejections: list[tuple[int, str]] = []
    n_rows = 0
    for line_no, row in enumerate(rows[1:], start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        n_rows += 1
        try:
            if len(row) != len(header):
                raise ValueError(f"expected {len(header)} fields, got {len(row)}")
            prev = None
            if has_prev and row[-1].strip():
                prev = _parse_float(row[-1], OPTIONAL_FUNDAMENTALS_COLUMN)
            obs = FirmYearObservation(
                firm_id=row[0].strip(),
                market_id=row[1].strip(),
                year=_parse_int(row[2], "year"),
                price=_parse_float(row[3], "price"),
                book_value=_parse_float(row[4], "book_value"),
                eps=_parse_float(row[5], "eps"),
                sga=_parse_float(row[6], "sga"),
                rd=_parse_float(row[7], "rd"),
                sales=_parse_float(row[8], "sales"),
                total_assets=_parse_float(row[9], "total_assets"),
                total_equity=_parse_float(row[10], "total_equity"),
                establishment_year=_parse_int(row[11], "establishment_year"),
                controlling_stakes=_parse_stakes(row[12]),
                book_value_prev=prev,
            )
            if not obs.firm_id or not obs.market_id:
                raise ValueError("firm_id and market_id must be non-empty")
            validate_observation(obs)
        except (ValueError, InvariantViolation) as exc:
            rejections.append((line_no, _reason(exc)))
            continue
        accepted.append(obs)

    report = IngestReport(rows_accepted=len(accepted),
                          rows_rejected=len(rejections),
                          rejections=tuple(rejections))
    assert report.rows_accepted + report.rows_rejected == n_rows
    return accepted, report


def _reason(exc: Exception) -> str:
    if isinstance(exc, InvariantViolation):
        return exc.reason
    return str(exc)


def _blank_row(line: str) -> bool:
    """Whether csv reads ``line`` as a row whose cells are all blank."""
    return not any(cell.strip() for cell in next(csv.reader([line]), []))


def _load_price_rows(lines: list[str]) -> np.ndarray:
    if not any(lines):
        return np.empty(0, dtype=_PRICE_ROW)
    return np.loadtxt(lines, dtype=_PRICE_ROW, delimiter=",", quotechar='"',
                      comments=None, ndmin=1)


def _read_price_rows(body: list[str]) -> tuple[np.ndarray, list[int], int | None]:
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
        return rows, [n for n, line in enumerate(body, start=2) if line], None
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
    does not read as id, integer year, integer month, number, a non-finite
    close or a month outside 1..12 raises :class:`SchemaMismatch`, a
    non-positive close :class:`NonPositivePrice`, and a month the series
    already has :class:`DuplicateMonth`.
    """
    if not csv_text:
        raise SchemaMismatch("prices: empty file")
    header, *body = csv_text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    _check_header(next(csv.reader([header]), []), PRICES_COLUMNS, "prices")
    rows, line_nos, unreadable = _read_price_rows(body)

    raw_ids = list(map(str.strip, rows["series_id"]))
    series_ids = sorted(dict.fromkeys(raw_ids))
    code_of = {series_id: code for code, series_id in enumerate(series_ids)}
    codes = np.fromiter(map(code_of.__getitem__, raw_ids), dtype=np.int64, count=len(raw_ids))
    years, calendar_months, closes = rows["year"], rows["month"], rows["close"]
    months = years * 12 + (calendar_months - 1)
    order = np.lexsort((months, codes))
    duplicate = np.zeros(len(rows), dtype=bool)
    # lexsort is stable: of two rows with one (series, month), the later line follows
    duplicate[order[1:][(np.diff(codes[order]) == 0) & (np.diff(months[order]) == 0)]] = True

    checks = (
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
            series_id=raw_ids[r], year=int(years[r]), month=int(calendar_months[r]),
            close=float(closes[r])))
    if unreadable is not None:
        raise SchemaMismatch(f"prices line {line_nos[unreadable]}: "
                             f"{_unreadable_reason(body[line_nos[unreadable] - 2])}")
    return PriceTable(series_ids=tuple(series_ids), codes=codes[order],
                      months=months[order], closes=closes[order])


def parse_riskfree(csv_text: str) -> list[RiskFreeSeries]:
    """Parse riskfree.csv into one :class:`RiskFreeSeries` per market."""
    rows = _rows(csv_text)
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
        try:
            year = _parse_int(row[1], "year")
            rate = _parse_float(row[2], "rate")
        except ValueError as exc:
            raise SchemaMismatch(f"riskfree line {line_no}: {exc}")
        if not 0 <= rate <= 0.5:
            raise RateOutOfRange(f"riskfree line {line_no}: rate {rate!r} outside [0, 0.5]")
        rates = by_market.setdefault(market_id, {})
        if year in rates:
            raise SchemaMismatch(f"riskfree: duplicate (market, year) ({market_id}, {year})")
        rates[year] = rate

    return [RiskFreeSeries(market_id=m, rates=dict(sorted(by_market[m].items())))
            for m in sorted(by_market)]


# --- serialization (round-trip partners of the parsers) -----------------------

def _fmt(value: float) -> str:
    # repr round-trips doubles exactly, keeping re-parsed data identical
    return repr(float(value))


def fundamentals_to_csv(observations: list[FirmYearObservation]) -> str:
    include_prev = any(o.book_value_prev is not None for o in observations)
    header = list(FUNDAMENTALS_COLUMNS)
    if include_prev:
        header.append(OPTIONAL_FUNDAMENTALS_COLUMN)
    lines = [",".join(header)]
    for o in observations:
        row = [o.firm_id, o.market_id, str(o.year), _fmt(o.price), _fmt(o.book_value),
               _fmt(o.eps), _fmt(o.sga), _fmt(o.rd), _fmt(o.sales), _fmt(o.total_assets),
               _fmt(o.total_equity), str(o.establishment_year),
               ";".join(_fmt(s) for s in o.controlling_stakes)]
        if include_prev:
            row.append(_fmt(o.book_value_prev) if o.book_value_prev is not None else "")
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


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
