"""Property tests: the columnar fundamentals path against the per-row code it replaces.

``reference_parse_fundamentals`` is the per-row parser the package used
before its fundamentals table: each line becomes one record, validated field
by field, and the first failing check is the line's rejection reason.
``reference_build_dataset`` and ``reference_derive`` are the dict-keyed
dataset and the per-row join that went with it. The table, the dataset and
the derived columns must equal them: the same rejections, the same accepted
values, the same errors, and derived columns equal bit for bit. The
reader's two passes over each of the three files (one ``loadtxt`` call and
``csv.reader``) must read alike, and a cell must read as the same number in
every file, where ``numpy.loadtxt`` reads it, or in none.
"""

import csv
import io
import math
import random
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from marketpanel import ingest, variables
from marketpanel.beta import PriceTable
from marketpanel.errors import (DuplicateKey, DuplicateMonth, MissingRiskFree, NonPositivePrice,
                               RateOutOfRange, SchemaMismatch)
from marketpanel.panel_core import STAKE_SUM_TOL, FundamentalsTable, build_dataset

from conftest import ROW_DEFAULTS, beta_column, make_row, make_table, row_order_sum, table_rows

PROPERTY = settings(max_examples=80, deadline=None)
HEADER = ",".join(ingest.FUNDAMENTALS_COLUMNS)
NUMBER_FIELDS = ("price", "book_value", "eps", "sga", "rd", "sales", "total_assets",
                 "total_equity")


# --- per-row references -----------------------------------------------------------------

class Rejected(Exception):
    pass


def _float(text, name):
    raw = text.strip()
    if raw != raw.replace(",", ""):
        raise ValueError(f"{name}: thousands separators not accepted")
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"{name}: not a finite number")
    return value


def _int(text, name):
    try:
        return int(text.strip())
    except ValueError:
        raise ValueError(f"{name}: not an integer")


def _check(condition, reason):
    if not condition:
        raise Rejected(reason)


def reference_validate(row):
    """The field invariants, in the order the per-row validator checked them."""
    _check(row["price"] > 0, "price must be positive")
    _check(row["book_value"] > 0, "book value must be positive")
    _check(row["total_assets"] > 0, "total assets must be positive")
    _check(row["sales"] > 0, "sales must be positive")
    _check(row["rd"] >= 0, "R&D must be non-negative")
    _check(row["sga"] - row["rd"] >= 0, "SG&A minus R&D negative")
    _check(row["total_equity"] >= 0, "total equity must be non-negative")
    _check(row["total_equity"] <= row["total_assets"], "total equity exceeds total assets")
    _check(row["establishment_year"] <= row["year"],
           "establishment year after observation year")
    total = 0.0
    for s in row["stakes"]:
        _check(0 < s <= 1, f"stake {s!r} outside (0, 1]")
        total += s
    _check(total <= 1 + STAKE_SUM_TOL, "stakes sum exceeds 1")
    if row["book_value_prev"] is not None:
        _check(row["book_value_prev"] > 0, "lagged book value must be positive")


def reference_parse_fundamentals(csv_text):
    """(accepted rows as ``make_row`` dicts, rejections), line by line."""
    rows = list(csv.reader(io.StringIO(csv_text)))
    header = ingest._check_header(rows[0], ingest.FUNDAMENTALS_COLUMNS, "fundamentals",
                                  optional=(ingest.OPTIONAL_FUNDAMENTALS_COLUMN,))
    has_prev = ingest.OPTIONAL_FUNDAMENTALS_COLUMN in header
    accepted, rejections = [], []
    for line_no, row in enumerate(rows[1:], start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        try:
            if len(row) != len(header):
                raise ValueError(f"expected {len(header)} fields, got {len(row)}")
            prev = None
            if has_prev and row[-1].strip():
                prev = _float(row[-1], ingest.OPTIONAL_FUNDAMENTALS_COLUMN)
            record = make_row(
                firm_id=row[0].strip(), market_id=row[1].strip(), year=_int(row[2], "year"),
                **{name: _float(row[j], name) for j, name in enumerate(NUMBER_FIELDS, start=3)},
                establishment_year=_int(row[11], "establishment_year"),
                stakes=tuple(_float(part, "stakes") for part in row[12].strip().split(";"))
                if row[12].strip() else (),
                book_value_prev=prev)
            if not record["firm_id"] or not record["market_id"]:
                raise ValueError("firm_id and market_id must be non-empty")
            reference_validate(record)
        except (ValueError, Rejected) as exc:
            rejections.append((line_no, str(exc)))
            continue
        accepted.append(record)
    return accepted, rejections


def reference_build_dataset(rows, rf):
    """{(firm, year): row} in key order, or the (error class, message) of the first bad row."""
    by_key = {}
    for row in rows:
        key = (row["firm_id"], row["year"])
        if key in by_key:
            return DuplicateKey, f"duplicate observation for firm {key[0]}, year {key[1]}"
        if (row["market_id"], row["year"]) not in rf:
            return MissingRiskFree, (f"no risk-free rate for market {row['market_id']}, "
                                     f"year {row['year']} (firm {row['firm_id']})")
        by_key[key] = row
    return {k: by_key[k] for k in sorted(by_key)}, rf


def reference_derive(by_key, rates, betas, names):
    """({column: values} for the column ``names``, exclusions, notes) from one pass
    over the rows; a column it computes outside ``names`` raises KeyError."""
    columns = {name: [] for name in names}
    exclusions, notes = [], []
    for (firm_id, year), row in by_key.items():
        prev = by_key.get((firm_id, year - 1))
        book_prev = prev["book_value"] if prev is not None else row["book_value_prev"]
        if book_prev is None:
            exclusions.append((firm_id, year, "missing lagged book value"))
            continue
        beta = betas.get((firm_id, year))
        if beta is None:
            exclusions.append((firm_id, year, "insufficient return history"))
            continue
        expense = row["sga"] - row["rd"]
        marin = expense / row["sales"]
        if marin == 0.0:
            notes.append(f"firm {firm_id}, year {year}: zero marketing expense")
        values = {
            "P": row["price"], "B": row["book_value"],
            "X": row["eps"] - rates[(row["market_id"], year)] * book_prev,
            "Marin": marin, "MarinAssets": expense / row["total_assets"],
            "MarinLog": math.log(expense) if expense > 0 else math.nan,
            "Age": float(year - row["establishment_year"]),
            "Size": math.log(row["total_assets"]),
            "Lev": row["total_equity"] / row["total_assets"], "Bet": float(beta),
            "OW": row_order_sum(s for s in row["stakes"] if s >= variables.OWNERSHIP_THRESHOLD),
            "P/B": row["price"] / row["book_value"], "TotalAssets": row["total_assets"],
        }
        for name, value in values.items():
            columns[name].append(value)
    return columns, exclusions, notes


# --- fundamentals texts -----------------------------------------------------------------

ERROR_KINDS = (
    "extra_field", "missing_field", "year_text", "number_text", "thousands", "nonfinite",
    "empty_id", "price", "book_value", "total_assets", "sales", "rd", "rd_above_sga",
    "equity_negative", "equity_above_assets", "founded_later", "stake_text", "stake_range",
    "stake_sum", "prev_text", "prev_nonpositive")
BLANK_LINES = ("", "   ", "\t", ",,,", " , ,", '"",""', ",")


def _quoted(text):
    return '"' + text.replace('"', '""') + '"'


def _cell(draw, text):
    if "," in text or '"' in text:
        return _quoted(text)
    return draw(st.sampled_from((text, text, f" {text} ", _quoted(text))))


def _number(draw, value):
    return draw(st.sampled_from((repr(value), f"{value:.6f}", f"{value:e}")))


def _break(draw, row, kind, has_prev):
    """Make ``row`` fail in the way ``kind`` names (one of ``ERROR_KINDS``)."""
    if kind == "extra_field":
        row.append("1")
    elif kind == "missing_field":
        row.pop()
    elif kind == "year_text":
        row[draw(st.sampled_from((2, 11)))] = draw(st.sampled_from(("x", "2015.0", "")))
    elif kind == "number_text":
        row[draw(st.integers(3, 10))] = draw(st.sampled_from(("abc", "", "1.5.2")))
    elif kind == "thousands":
        row[draw(st.integers(3, 10))] = "1,000.5"
    elif kind == "nonfinite":
        row[draw(st.integers(3, 10))] = draw(st.sampled_from(("nan", "inf", "-1e999")))
    elif kind == "empty_id":
        row[draw(st.integers(0, 1))] = draw(st.sampled_from(("", "  ")))
    elif kind in ("price", "book_value", "total_assets", "sales"):
        row[ingest.FUNDAMENTALS_COLUMNS.index(kind)] = draw(st.sampled_from(("0", "-1.5")))
    elif kind == "rd":
        row[7] = "-0.5"
    elif kind == "rd_above_sga":
        row[6:8] = ["1.0", "2.0"]
    elif kind == "equity_negative":
        row[10] = "-2"
    elif kind == "equity_above_assets":
        row[9:11] = ["10.0", "20.0"]
    elif kind == "founded_later":
        row[2], row[11] = "2000", "2001"
    elif kind == "stake_text":
        row[12] = draw(st.sampled_from(("0.3;x", "0.2;", ";0.1", "0.1;nan")))
    elif kind == "stake_range":
        row[12] = draw(st.sampled_from(("0.2;1.5", "0;0.3", "-0.1", "0.3;2;3")))
    elif kind == "stake_sum":
        row[12] = draw(st.sampled_from(("0.6;0.6", "0.5;0.3;0.2000001")))
    elif kind == "prev_text" and has_prev:
        row[13] = draw(st.sampled_from(("y", "inf", "1,5")))
    elif kind == "prev_nonpositive" and has_prev:
        row[13] = draw(st.sampled_from(("0", "-3.5")))


@st.composite
def fundamentals_texts(draw):
    has_prev = draw(st.booleans())
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        assets = draw(st.floats(1.0, 1e6))
        sales = draw(st.floats(0.1, 1e6))
        rd = draw(st.floats(0.0, 100.0))
        stakes = draw(st.lists(st.floats(0.001, 0.3), max_size=3))
        year = draw(st.integers(1990, 2030))
        cells = [draw(st.sampled_from(("F1", "F2", " F3", "Z9", "F10"))),
                 draw(st.sampled_from(("M1", "M2"))), str(year),
                 _number(draw, draw(st.floats(0.01, 1e3))),
                 _number(draw, draw(st.floats(0.01, 1e3))),
                 _number(draw, draw(st.floats(-10.0, 10.0))),
                 _number(draw, rd + draw(st.floats(0.0, 100.0))), _number(draw, rd),
                 _number(draw, sales), _number(draw, assets),
                 _number(draw, assets * draw(st.floats(0.0, 1.0))),
                 str(year - draw(st.integers(0, 50))),
                 ";".join(_number(draw, s) for s in stakes)]
        if has_prev:
            cells.append(draw(st.sampled_from(("", "", _number(draw, draw(st.floats(0.01, 9.0)))))))
        rows.append(cells)
    width = len(rows[0])
    for kind, at in draw(st.lists(st.tuples(st.sampled_from(ERROR_KINDS),
                                            st.integers(0, len(rows) - 1)), max_size=3)):
        row = rows[at]
        if len(row) != width:
            continue   # a row already short of or past its fields stays so
        _break(draw, row, kind, has_prev)
    lines = [",".join(_cell(draw, c) for c in row) for row in rows]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(BLANK_LINES)))
    header = HEADER + (",book_value_2009" if has_prev else "")
    newline = draw(st.sampled_from(("\n", "\r\n")))
    return newline.join([header] + lines) + draw(st.sampled_from(("", newline)))


@PROPERTY
@given(fundamentals_texts())
def test_parse_fundamentals_equals_the_per_row_parser(text):
    expected_rows, expected_rejections = reference_parse_fundamentals(text)
    table, rejections = ingest.parse_fundamentals(text)
    assert list(rejections) == expected_rejections
    assert len(expected_rows) == len(table.year)
    assert table_rows(table) == expected_rows
    assert table.firm_ids == tuple(sorted({r["firm_id"] for r in expected_rows}))


NEW_DIGITS_REASON = "digit separators and non-ASCII digits not accepted"


@pytest.mark.parametrize("cell, reason", [
    ("99999999999999999999", "year: out of range"),
    ("-99999999999999999999", "year: out of range"),
    ("2_015", f"year: {NEW_DIGITS_REASON}"),
    (" +2015 ", None),
])
def test_integers_beyond_int64_are_rejected(cell, reason):
    # the per-row parser took any integer; the table's years are int64
    row = f"F1,M1,{cell},2.0,1.5,0.2,12.0,2.0,40.0,100.0,55.0,1900,0.3"
    table, rejections = ingest.parse_fundamentals(f"{HEADER}\n{row}\n")
    assert list(rejections) == ([(2, reason)] if reason else [])
    assert table.year.tolist() == ([] if reason else [2015])


# --- the one-call reader against the csv reader -----------------------------------------

PRICES_HEADER = ",".join(ingest.PRICES_COLUMNS)
RISKFREE_HEADER = ",".join(ingest.RISKFREE_COLUMNS)
# ASCII whitespace that numpy's parser and str.strip() both strip
CLEAN_PADDING = ("", "", " ", "  ", "\t", "\x0b", "\x0c", "\x1c", "\x1f")
CHECK_FAILURES = ("price", "book_value", "total_assets", "sales", "rd", "rd_above_sga",
                  "equity_negative", "equity_above_assets", "founded_later", "stake_range",
                  "stake_sum", "prev_nonpositive", "empty_id", "nonfinite")


def _padded(draw, text):
    return draw(st.sampled_from(CLEAN_PADDING)) + text + draw(st.sampled_from(CLEAN_PADDING))


def _integer(draw, value):
    return draw(st.sampled_from((str(value), str(value), f"+{value}", f"0{value}")))


def _text(draw, rows):
    """``rows`` as lines, with empty lines between them and maybe a final newline."""
    lines = [",".join(row) for row in rows]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), "")
    return "\n".join(lines) + draw(st.sampled_from(("", "\n")))


@st.composite
def clean_fundamentals_texts(draw):
    """ASCII files with no quote and no carriage return whose cells all read:
    the one-call reader takes them. Some rows fail a column check."""
    has_prev = draw(st.booleans())
    rows = []
    for _ in range(draw(st.integers(1, 10))):
        assets = draw(st.floats(1.0, 1e6))
        rd = draw(st.floats(0.0, 100.0))
        year = draw(st.integers(1990, 2030))
        money = [draw(st.floats(0.01, 1e3)), draw(st.floats(0.01, 1e3)),
                 draw(st.floats(-10.0, 10.0)), rd + draw(st.floats(0.0, 100.0)), rd,
                 draw(st.floats(0.1, 1e6)), assets, assets * draw(st.floats(0.0, 1.0))]
        stakes = draw(st.lists(st.floats(0.001, 0.3), max_size=4))
        cells = [_padded(draw, draw(st.sampled_from(("F1", "F2", "F10", "Z9", "F 1")))),
                 _padded(draw, draw(st.sampled_from(("M1", "M2")))),
                 _padded(draw, _integer(draw, year)),
                 *(_padded(draw, _number(draw, value)) for value in money),
                 _padded(draw, _integer(draw, year - draw(st.integers(0, 50)))),
                 ";".join(_padded(draw, _number(draw, s)) for s in stakes)]
        if has_prev:
            cells.append(draw(st.sampled_from(
                ("", " ", _padded(draw, _number(draw, draw(st.floats(0.01, 9.0))))))))
        rows.append(cells)
    for kind, at in draw(st.lists(st.tuples(st.sampled_from(CHECK_FAILURES),
                                            st.integers(0, len(rows) - 1)), max_size=3)):
        _break(draw, rows[at], kind, has_prev)
    header = HEADER + (",book_value_2009" if has_prev else "")
    return header + "\n" + _text(draw, rows)


@st.composite
def clean_price_texts(draw):
    """Clean prices files, as ``clean_fundamentals_texts``; some rows fail a check."""
    rows = []
    for _ in range(draw(st.integers(1, 12))):
        close = draw(st.one_of(st.floats(-1.0, 1e5).map(repr),
                               st.sampled_from(("0", "nan", "inf", "-1e999"))))
        rows.append([_padded(draw, draw(st.sampled_from(("F1", "F2", "M1", "x.y", "")))),
                     _padded(draw, _integer(draw, draw(st.integers(2014, 2016)))),
                     _padded(draw, _integer(draw, draw(st.integers(0, 13)))),
                     _padded(draw, close)])
    return PRICES_HEADER + "\n" + _text(draw, rows)


@st.composite
def clean_riskfree_texts(draw):
    """Clean risk-free files, as ``clean_fundamentals_texts``; some rows fail a check."""
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        rate = draw(st.one_of(st.floats(-0.1, 0.7).map(repr), st.sampled_from(("nan", "0"))))
        rows.append([_padded(draw, draw(st.sampled_from(("M1", "M2", "")))),
                     _padded(draw, _integer(draw, draw(st.integers(2010, 2014)))),
                     _padded(draw, rate)])
    return RISKFREE_HEADER + "\n" + _text(draw, rows)


def passes(what, text):
    """The body of the ``what`` file ``text`` read by the loadtxt pass and by the csv pass."""
    body, names, kinds = ingest._split(text, what)
    return (ingest._loadtxt_pass(body, names, kinds),
            ingest._csv_pass(body, what, names, kinds))


def assert_same_read(got, want):
    """Equal pass results: line numbers, widths and reasons, and columns equal in dtype
    and in value (numbers bit for bit)."""
    (got_lines, got_columns, got_widths, got_reasons) = got
    (want_lines, want_columns, want_widths, want_reasons) = want
    assert list(got_lines) == list(want_lines)
    assert (got_widths, got_reasons) == (want_widths, want_reasons)
    assert len(got_columns) == len(want_columns)
    for got_column, want_column in zip(got_columns, want_columns):
        assert got_column.dtype == want_column.dtype
        if got_column.dtype == object:
            assert got_column.tolist() == want_column.tolist()
        else:
            assert got_column.tobytes() == want_column.tobytes()


def assert_same_result(got, want):
    """Equal parser results: records (tables) of one type field by
    field, then tuples and lists item by item, arrays in dtype and bytes,
    anything else by ``==``. Records are tuples too, so they are told apart first."""
    if isinstance(want, (FundamentalsTable, PriceTable)):
        assert type(got) is type(want)
        for name, value in zip(want._fields, want):
            assert_same_result(getattr(got, name), value)
    elif isinstance(want, (tuple, list)):
        assert type(got) is type(want) and len(got) == len(want)
        for got_item, want_item in zip(got, want):
            assert_same_result(got_item, want_item)
    elif isinstance(want, np.ndarray):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    else:
        assert got == want


@PROPERTY
@given(st.one_of(clean_fundamentals_texts().map(lambda text: ("fundamentals", text)),
                 clean_price_texts().map(lambda text: ("prices", text)),
                 clean_riskfree_texts().map(lambda text: ("riskfree", text))))
def test_one_loadtxt_call_reads_what_the_csv_reader_reads(case):
    loaded, read = passes(*case)
    assert loaded is not None
    assert_same_read(loaded, read)


GOOD_ROW = "F1,M1,2015,2.0,1.5,0.2,12.0,2.0,40.0,100.0,55.0,2000,0.3;0.1"
GOOD_LINES = {"fundamentals": f"{HEADER}\n{GOOD_ROW}", "prices": f"{PRICES_HEADER}\nF1,2015,1,10.0",
              "riskfree": f"{RISKFREE_HEADER}\nM1,2014,0.03"}


def _row_with(column, cell):
    cells = GOOD_ROW.split(",")
    cells[ingest.FUNDAMENTALS_COLUMNS.index(column)] = cell
    return ",".join(cells)


PARSERS = {"fundamentals": ingest.parse_fundamentals, "prices": ingest.parse_prices,
           "riskfree": ingest.parse_riskfree}


def parsed(what, text):
    """What the ``what`` parser returns, or the input error it raises as (class, message)."""
    try:
        return PARSERS[what](text)
    except (SchemaMismatch, NonPositivePrice, RateOutOfRange, DuplicateMonth) as exc:
        return type(exc), str(exc)


# (file, line 3 of it, the fundamentals rejections or the error, None if the file
# parses); the csv reader reads these
HANDED_OVER = {
    "digit underscores in a money cell": (
        "fundamentals", _row_with("price", "1_000"), [(3, f"price: {NEW_DIGITS_REASON}")]),
    "Arabic-Indic digits in a money cell": (
        "fundamentals", _row_with("sales", "٤٠"), [(3, f"sales: {NEW_DIGITS_REASON}")]),
    "Arabic-Indic digits in a year": (
        "fundamentals", _row_with("year", "٢٠١٠"), [(3, f"year: {NEW_DIGITS_REASON}")]),
    # numpy's int parser reads this letter as a digit: "Ǿ15" as 46215
    "a non-ASCII letter in a year": (
        "fundamentals", _row_with("year", "Ǿ15"), [(3, "year: not an integer")]),
    "a decimal year": ("fundamentals", _row_with("year", "2010.0"),
                       [(3, "year: not an integer")]),
    "digit underscores in a year": (
        "fundamentals", _row_with("establishment_year", "1_990"),
        [(3, f"establishment_year: {NEW_DIGITS_REASON}")]),
    "a year beyond int64": ("fundamentals", _row_with("year", "99999999999999999999"),
                            [(3, "year: out of range")]),
    "a year of 2**63": ("fundamentals", _row_with("year", str(2**63)),
                        [(3, "year: out of range")]),
    "a year of -2**63 - 1": ("fundamentals", _row_with("year", str(-2**63 - 1)),
                             [(3, "year: out of range")]),
    "a quoted cell holding a comma": (
        "fundamentals", _row_with("sales", '"1,000.5"'),
        [(3, "sales: thousands separators not accepted")]),
    "a quoted cell spanning two lines": ("fundamentals", _row_with("firm_id", '"F\n1"'), []),
    # lines 3 and 4 hold one row, line 5 is blank and line 6 fails
    "a bad row after a quoted cell spanning two lines": (
        "fundamentals", _row_with("firm_id", '"F\n1"') + "\n\n" + _row_with("price", "-2"),
        [(6, "price must be positive")]),
    "a line of only commas": ("fundamentals", "," * 12, []),
    "a line of only blanks": ("fundamentals", "  \t", []),
    "a row of the wrong width": ("fundamentals", GOOD_ROW.rsplit(",", 1)[0],
                                 [(3, "expected 13 fields, got 12")]),
    "a quoted close": ("prices", 'F1,2015,2,"11.5"', None),
    "digit underscores in a close": (
        "prices", "F1,2015,2,1_000.5",
        (SchemaMismatch, f"prices line 3: close: {NEW_DIGITS_REASON}")),
    "a decimal month": ("prices", "F1,2015,2.0,1.5",
                        (SchemaMismatch, "prices line 3: month: not an integer")),
    "a prices line of only commas": ("prices", ",,,", None),
    "a bad prices row after a quoted cell spanning two lines": (
        "prices", '"F\n1",2015,1,10.0\n\nF1,2015,1,11.0',
        (DuplicateMonth, "prices line 6: duplicate month (F1, 2015, 1)")),
    "a short prices row": ("prices", "F1,2015,2",
                           (SchemaMismatch, "prices line 3: expected 4 fields, got 3")),
    "digit underscores in a rate year": (
        "riskfree", "M1,2_015,0.03",
        (SchemaMismatch, f"riskfree line 3: year: {NEW_DIGITS_REASON}")),
    "Arabic-Indic digits in a rate": (
        "riskfree", "M1,2015,٠.٠٣",
        (SchemaMismatch, f"riskfree line 3: rate: {NEW_DIGITS_REASON}")),
    "a quoted rate": ("riskfree", 'M1,2015,"0.03"', None),
    "a bad riskfree row after a quoted cell spanning two lines": (
        "riskfree", '"M\n1",2015,0.03\n\nM1,2015,0.9',
        (RateOutOfRange, "riskfree line 6: rate 0.9 outside [0, 0.5]")),
    "a short riskfree row": ("riskfree", "M1,2015",
                             (SchemaMismatch, "riskfree line 3: expected 3 fields, got 2")),
}
# the one loadtxt call reads these
READ_IN_ONE_CALL = {
    "inf in a money cell": ("fundamentals", _row_with("eps", "inf"),
                            [(3, "eps: not a finite number")]),
    "nan in a money cell": ("fundamentals", _row_with("rd", "nan"),
                            [(3, "rd: not a finite number")]),
    "1e400 in a money cell": ("fundamentals", _row_with("total_assets", "1e400"),
                              [(3, "total_assets: not a finite number")]),
    "twenty digits in a money cell": (
        "fundamentals", _row_with("total_assets", "99999999999999999999"), []),
    "a file separator padding a money cell": ("fundamentals", _row_with("sga", "\x1c12.0"), []),
    "a signed year with a leading zero": ("fundamentals", _row_with("year", "+02015"), []),
    "a non-finite close": ("prices", "F1,2015,2,inf",
                           (SchemaMismatch, "prices line 3: close: not a finite number")),
    "the first year in range": ("prices", f"F1,{-ingest._MAX_YEAR},2,1.5", None),
    "the last year in range": ("prices", f"F1,{ingest._MAX_YEAR},2,1.5", None),
    "a month out of range": ("prices", "F1,2015,13,1.5",
                             (SchemaMismatch, "prices line 3: month 13 outside 1..12")),
    "a repeated month": ("prices", " F1 ,2015,01,2.5",
                         (DuplicateMonth, "prices line 3: duplicate month (F1, 2015, 1)")),
    "a NaN rate": ("riskfree", "M1,2015,nan",
                   (SchemaMismatch, "riskfree line 3: rate: not a finite number")),
    "a rate out of range": ("riskfree", "M1,2015,0.7",
                            (RateOutOfRange, "riskfree line 3: rate 0.7 outside [0, 0.5]")),
    "a repeated year": ("riskfree", "M1,2014,0.04",
                        (SchemaMismatch, "riskfree line 3: duplicate (market, year) (M1, 2014)")),
}


@pytest.mark.parametrize("case", [*HANDED_OVER, *READ_IN_ONE_CALL])
def test_what_the_csv_reader_must_read_keeps_its_reasons(case):
    what, body, want = HANDED_OVER.get(case) or READ_IN_ONE_CALL[case]
    text = f"{GOOD_LINES[what]}\n{body}\n"
    loaded, read = passes(what, text)
    assert (loaded is None) == (case in HANDED_OVER)
    if loaded is not None:
        assert_same_read(loaded, read)
    got = parsed(what, text)
    if what == "fundamentals":
        assert list(got[1]) == want
    else:   # the table, or the error as (class, message)
        assert (None if isinstance(got, (PriceTable, MappingProxyType)) else got) == want


# one text per parser (and per fundamentals reader), its lines ending in "\n"
NEWLINE_TEXTS = {
    "fundamentals in one loadtxt call": (ingest.parse_fundamentals, "\n".join(
        [HEADER, GOOD_ROW, "", _row_with("price", "-1"), _row_with("year", "2016"), ""])),
    "fundamentals through the csv reader": (ingest.parse_fundamentals, "\n".join(
        [HEADER, GOOD_ROW, "", _row_with("sales", '"1,000.5"'), _row_with("year", "2016")])),
    "prices": (ingest.parse_prices, "\n".join(
        ["series_id,year,month,close", "F1,2015,2,11.5", "", "M1,2015,1,100.0",
         "F1,2015,1,10.0", ""])),
    "riskfree": (ingest.parse_riskfree, "\n".join(
        ["market_id,year,rate", "M2,2016,0.031", "", "M1,2015,0.03", ""])),
}


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["CRLF", "lone CR"])
@pytest.mark.parametrize("text", NEWLINE_TEXTS)
def test_each_parser_reads_carriage_returns_as_newlines(text, newline):
    parse, lf_text = NEWLINE_TEXTS[text]
    assert_same_result(parse(lf_text.replace("\n", newline)), parse(lf_text))


def loadtxt_number(cell, kind):
    """``cell`` as ``numpy.loadtxt`` reads it, quoted, into a column of ``kind``; None if it
    does not read, or reads as a float that is not finite. A cell that is not ASCII once
    stripped is no int: numpy's int parser reads some non-ASCII characters as digits
    ("२" as 2360), which is why the loadtxt pass reads ASCII texts only."""
    if kind is int and not cell.strip().isascii():
        return None
    try:
        [value] = np.loadtxt([_quoted(cell)], dtype=np.float64 if kind is float else np.int64,
                             delimiter=",", quotechar='"', comments=None, ndmin=1).tolist()
    except (ValueError, OverflowError):
        return None
    return value if kind is int or math.isfinite(value) else None


DIGITS = ("0123456789", "0123456789",
          "".join(map(chr, range(0x0660, 0x066A))),            # Arabic-Indic
          "".join(map(chr, range(0xFF10, 0xFF1A))),            # fullwidth
          "0123" + "".join(map(chr, range(0x0966, 0x096A))))   # with Devanagari
PADDING = ("", "", " ", "  ", "\t", "\n", " ", " ", "\x1c")
ODD_CELLS = ("", " ", "inf", "-inf", " nan ", "Infinity", "1e400", "-1e400", "1e-400",
             "9" * 20, "-9223372036854775809", "9223372036854775808", "9223372036854775807",
             "1,000.5", "1,5", ",", "_1", "1__0", "1_", "1._5", "0x10", "1.5.2", "abc",
             "5\x00", "+", "-", ".", "e5", "1e", "--1", "½", "⅕")


@st.composite
def number_cells(draw, kind):
    """A cell, most likely one that ``float()`` or ``int()`` reads as ``kind``."""
    if draw(st.integers(0, 5)) == 0:
        return draw(st.sampled_from(ODD_CELLS))
    digits = st.text(draw(st.sampled_from(DIGITS)), min_size=1, max_size=3)
    body = "_".join(draw(st.lists(digits, min_size=1, max_size=3)))   # digit groups
    if kind is float:
        body += draw(st.sampled_from(("", "", ".", ".5", "." + draw(digits))))
        if draw(st.booleans()):
            body += draw(st.sampled_from(("e", "E-", "e+"))) + draw(digits)
    sign = draw(st.sampled_from(("", "", "-", "+")))
    return draw(st.sampled_from(PADDING)) + sign + body + draw(st.sampled_from(PADDING))


@st.composite
def number_columns(draw):
    """A number kind and a column of cells, most of them readable as that kind."""
    kind = draw(st.sampled_from((float, int)))
    return kind, draw(st.lists(number_cells(kind), max_size=8))


@settings(max_examples=300, deadline=None)
@given(number_columns())
@example((float, [" ١_2.5e+1\t", "-0", "1e-400"]))
@example((float, ["5\x00", "1"]))      # numpy's own str dtype would drop the NUL
@example((int, [" 2_015 ", "9" * 20, "२"]))
def test_bulk_numbers_equal_what_loadtxt_reads(column):
    kind, cells = column
    got, reasons = ingest._numbers(cells, "x", kind)
    want = [loadtxt_number(cell, kind) for cell in cells]
    assert [r for r, _ in reasons] == [r for r, value in enumerate(want) if value is None]
    values = np.array([0 if value is None else value for value in want],
                      dtype=np.float64 if kind is float else np.int64)
    assert got.dtype == values.dtype and got.tobytes() == values.tobytes()   # -0.0 too


def _in_file(cell):
    """``cell`` as a csv writer puts it in a file."""
    return _quoted(cell) if any(c in cell for c in '",\n') else cell


@settings(max_examples=300, deadline=None)
@given(st.sampled_from((float, int)).flatmap(
    lambda kind: st.tuples(st.just(kind), number_cells(kind))))
@example((float, "1_000"))
@example((float, " 1,000.5 "))
@example((int, "2_010"))
@example((int, "٢٠١٠"))
@example((int, "२"))   # numpy's int parser reads it as 2360
@example((int, "9223372036854775807"))
def test_a_number_is_a_number_in_every_file_or_in_none(case):
    """A cell reads as the same number in a float column of each file (a fundamentals
    money cell, a close, a rate) and in an int column (the year), or in none; and it
    reads where ``numpy.loadtxt`` reads it."""
    kind, cell = case
    value = loadtxt_number(cell, kind)
    c = _in_file(cell)
    if kind is float:
        texts = (f"{HEADER}\n{_row_with('eps', c)}\n", f"{PRICES_HEADER}\nF1,2015,1,{c}\n",
                 f"{RISKFREE_HEADER}\nM1,2015,{c}\n")
    else:   # the establishment year too, so that it is not after the year
        row = GOOD_ROW.split(",")
        row[2] = row[11] = c
        texts = (f"{HEADER}\n{','.join(row)}\n", f"{PRICES_HEADER}\nF1,{c},1,10.0\n",
                 f"{RISKFREE_HEADER}\nM1,{c},0.03\n")
    table, rejections = ingest.parse_fundamentals(texts[0])
    prices, riskfree = parsed("prices", texts[1]), parsed("riskfree", texts[2])
    if value is None:
        [(line, reason)] = rejections
        assert line == 2 and reason and len(table.year) == 0
        assert prices[0] is SchemaMismatch and prices[1].startswith("prices line 2: ")
        assert riskfree[0] is SchemaMismatch and riskfree[1].startswith("riskfree line 2: ")
        return
    assert rejections == ()
    if kind is float:
        assert repr(table.eps.tolist()[0]) == repr(value)
        if value > 0:
            assert repr(prices.closes.tolist()[0]) == repr(value)
        else:
            assert prices[0] is NonPositivePrice
        if 0 <= value <= 0.5:
            assert repr(riskfree["M1", 2015]) == repr(value)
        else:
            assert riskfree[0] is RateOutOfRange
    else:
        assert table.year.tolist() == table.establishment_year.tolist() == [value]
        if abs(value) <= ingest._MAX_YEAR:
            assert prices.months.tolist() == [value * 12]
        else:   # its month index would overflow
            assert prices[0] is SchemaMismatch
        assert riskfree == {("M1", value): 0.03}


# --- dataset and derived columns --------------------------------------------------------

@st.composite
def panels(draw):
    """Rows with gaps, repeats, missing carry-ins and rates, zero marketing; and betas."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for firm in rng.sample(["F1", "F2", "F10", "A", "Z9"], rng.randint(1, 5)):
        market = rng.choice(["M1", "M2"])
        years = sorted(rng.sample(range(2000, 2012), rng.randint(1, 8)))
        for year in years:
            sga = rng.uniform(1.0, 50.0)
            rows.append(make_row(
                firm_id=firm, market_id=market, year=year, price=rng.uniform(0.1, 9.0),
                book_value=rng.uniform(0.1, 5.0), eps=rng.uniform(-1.0, 1.0), sga=sga,
                rd=sga if rng.random() < 0.2 else rng.uniform(0.0, sga),
                sales=rng.uniform(1.0, 100.0), total_assets=10.0 ** rng.uniform(0, 6),
                total_equity=0.0, establishment_year=year - rng.randint(0, 40),
                stakes=tuple(rng.uniform(0.001, 0.3) for _ in range(rng.randint(0, 4))),
                book_value_prev=rng.uniform(0.1, 5.0) if rng.random() < 0.6 else None))
            rows[-1]["total_equity"] = rows[-1]["total_assets"] * rng.random()
    if rng.random() < 0.2:
        rows.insert(rng.randint(0, len(rows)), dict(rng.choice(rows)))
    rng.shuffle(rows)
    rf = {(m, y): rng.uniform(0.0, 0.5) for m in ("M1", "M2") for y in range(2000, 2012)
          if rng.random() < 0.97}
    betas = {(r["firm_id"], r["year"]): rng.uniform(-1.0, 3.0) for r in rows
             if rng.random() < 0.9}
    return rows, rf, betas


@PROPERTY
@given(panels())
def test_dataset_and_derived_columns_equal_the_per_row_join(panel):
    rows, rf, betas = panel
    by_key, rates = reference_build_dataset(rows, rf)
    if isinstance(by_key, type):
        with pytest.raises(by_key) as err:
            build_dataset(make_table(rows), rf)
        assert str(err.value) == rates
        return
    ds = build_dataset(make_table(rows), rf)
    assert table_rows(ds.table) == list(by_key.values())
    assert ds.codes.firm_ids == tuple(sorted({f for f, _ in by_key}))
    derived = variables.derive_all(ds, beta_column(ds, betas))
    columns, exclusions, notes = reference_derive(by_key, rates, betas, derived.columns)
    assert derived.exclusions == exclusions
    assert derived.notes == notes
    for name, values in columns.items():
        assert np.array_equal(derived.columns[name], np.array(values, dtype=float),
                              equal_nan=True), name
    kept = [k for k in by_key if (k[0], k[1]) not in {(f, y) for f, y, _ in exclusions}]
    codes = derived.codes
    assert [(codes.firm_ids[f], int(codes.years[p]))
            for f, p in zip(codes.firm.tolist(), codes.period.tolist())] == kept


def test_fundamentals_csv_is_byte_stable():
    rows = [make_row(firm_id="F2", stakes=(0.1, 1 / 3)),
            make_row(firm_id="F1", year=2016, stakes=(), book_value_prev=1.25),
            make_row(eps=-0.0, price=1e-7)]
    text = ingest.fundamentals_to_csv(make_table(rows))
    assert text.splitlines() == [
        HEADER + ",book_value_2009",
        "F2,M1,2015,2.0,1.5,0.2,12.0,2.0,40.0,100.0,55.0,2000,0.1;0.3333333333333333,",
        "F1,M1,2016,2.0,1.5,0.2,12.0,2.0,40.0,100.0,55.0,2000,,1.25",
        "F1,M1,2015,1e-07,1.5,-0.0,12.0,2.0,40.0,100.0,55.0,2000,0.3;0.1,"]
    assert ingest.fundamentals_to_csv(make_table([ROW_DEFAULTS])).splitlines()[0] == HEADER
