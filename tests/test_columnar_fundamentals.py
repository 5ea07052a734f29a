"""Property tests: the columnar fundamentals path against the per-row code it replaces.

``reference_parse_fundamentals`` is the per-row parser the package used
before its fundamentals table: each line becomes one record, validated field
by field, and the first failing check is the line's rejection reason.
``reference_build_dataset`` and ``reference_derive`` are the dict-keyed
dataset and the per-row join that went with it. The table, the dataset and
the derived columns must equal them: the same rejections, the same accepted
values, the same errors, and derived columns equal bit for bit.
"""

import csv
import dataclasses
import io
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from marketpanel import ingest, variables
from marketpanel.errors import DuplicateKey, MissingRiskFree
from marketpanel.panel_core import STAKE_SUM_TOL, RiskFreeSeries, build_dataset

from conftest import ROW_DEFAULTS, make_row, make_table, table_rows

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
    rates = {(s.market_id, year): rate for s in rf for year, rate in s.rates.items()}
    by_key = {}
    for row in rows:
        key = (row["firm_id"], row["year"])
        if key in by_key:
            return DuplicateKey, f"duplicate observation for firm {key[0]}, year {key[1]}"
        if (row["market_id"], row["year"]) not in rates:
            return MissingRiskFree, (f"no risk-free rate for market {row['market_id']}, "
                                     f"year {row['year']} (firm {row['firm_id']})")
        by_key[key] = row
    return {k: by_key[k] for k in sorted(by_key)}, rates


def reference_derive(by_key, rates, betas):
    """({column: values}, exclusions, notes) from one pass over the rows."""
    columns = {name: [] for name in variables.COLUMNS}
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
            "OW": float(sum(s for s in row["stakes"] if s >= variables.OWNERSHIP_THRESHOLD)),
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
    table, report = ingest.parse_fundamentals(text)
    assert list(report.rejections) == expected_rejections
    assert report.rows_accepted == len(expected_rows) == len(table)
    assert table_rows(table) == expected_rows
    assert table.firm_ids == tuple(sorted({r["firm_id"] for r in expected_rows}))


@pytest.mark.parametrize("cell, reason", [
    ("99999999999999999999", "year: out of range"),
    ("-99999999999999999999", "year: out of range"),
    ("2_015", None),
    (" +2015 ", None),
])
def test_integers_beyond_int64_are_rejected(cell, reason):
    # the per-row parser took any integer; the table's years are int64
    row = f"F1,M1,{cell},2.0,1.5,0.2,12.0,2.0,40.0,100.0,55.0,1900,0.3"
    table, report = ingest.parse_fundamentals(f"{HEADER}\n{row}\n")
    assert list(report.rejections) == ([(2, reason)] if reason else [])
    assert table.year.tolist() == ([] if reason else [2015])


# --- the one-call reader against the csv reader -----------------------------------------

# whitespace that numpy's parser and str.strip() both strip
CLEAN_PADDING = ("", "", " ", "  ", "\t", "\x0b", "\x0c", "\x1c", "\x1f", "\x85",
                 "\u00a0", "\u2003", "\u2028", "\u3000")
CHECK_FAILURES = ("price", "book_value", "total_assets", "sales", "rd", "rd_above_sga",
                  "equity_negative", "equity_above_assets", "founded_later", "stake_range",
                  "stake_sum", "prev_nonpositive", "empty_id")


def _padded(draw, text):
    return draw(st.sampled_from(CLEAN_PADDING)) + text + draw(st.sampled_from(CLEAN_PADDING))


@st.composite
def clean_fundamentals_texts(draw):
    """Files with no quote and no carriage return whose money cells all read as finite
    numbers: the one-call reader takes them. Some rows fail a column check."""
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
        cells = [_padded(draw, draw(st.sampled_from(("F1", "F2", "F10", "Z9", "ش1")))),
                 _padded(draw, draw(st.sampled_from(("M1", "M2")))),
                 _padded(draw, str(year)),
                 *(_padded(draw, _number(draw, value)) for value in money),
                 _padded(draw, str(year - draw(st.integers(0, 50)))),
                 ";".join(_padded(draw, _number(draw, s)) for s in stakes)]
        if has_prev:
            cells.append(draw(st.sampled_from(
                ("", " ", _padded(draw, _number(draw, draw(st.floats(0.01, 9.0))))))))
        rows.append(cells)
    for kind, at in draw(st.lists(st.tuples(st.sampled_from(CHECK_FAILURES),
                                            st.integers(0, len(rows) - 1)), max_size=3)):
        _break(draw, rows[at], kind, has_prev)
    lines = [",".join(row) for row in rows]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), "")
    header = HEADER + (",book_value_2009" if has_prev else "")
    return "\n".join([header] + lines) + draw(st.sampled_from(("", "\n")))


def assert_same_result(got, want):
    """Equal parser results: tuples item by item, dataclasses (tables, reports)
    field by field, arrays in dtype and bytes, anything else by ``==``."""
    if isinstance(want, tuple):
        assert len(got) == len(want)
        for got_item, want_item in zip(got, want):
            assert_same_result(got_item, want_item)
    elif dataclasses.is_dataclass(want):
        assert type(got) is type(want)
        for name, value in vars(want).items():
            assert_same_result(getattr(got, name), value)
    elif isinstance(want, np.ndarray):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    else:
        assert got == want


@PROPERTY
@given(clean_fundamentals_texts())
def test_one_loadtxt_call_reads_what_the_csv_reader_reads(text):
    cells = ingest._loadtxt_cells(text)
    assert cells is not None
    got = ingest._fundamentals(*cells)
    assert_same_result(got, ingest._fundamentals(*ingest._csv_cells(text)))
    assert_same_result(ingest.parse_fundamentals(text), got)


GOOD_ROW = "F1,M1,2015,2.0,1.5,0.2,12.0,2.0,40.0,100.0,55.0,2000,0.3;0.1"


def _row_with(column, cell):
    cells = GOOD_ROW.split(",")
    cells[ingest.FUNDAMENTALS_COLUMNS.index(column)] = cell
    return ",".join(cells)


HANDED_OVER = {
    "digit underscores in a money cell": _row_with("price", "1_000"),
    "Arabic-Indic digits in a money cell": _row_with("sales", "٤٠"),
    "inf in a money cell": _row_with("eps", "inf"),
    "nan in a money cell": _row_with("rd", "nan"),
    "1e400 in a money cell": _row_with("total_assets", "1e400"),
    "a quoted cell holding a comma": _row_with("sales", '"1,000.5"'),
    "a quoted cell spanning two lines": _row_with("firm_id", '"F\n1"'),
    "a line of only commas": GOOD_ROW + "\n" + "," * 12,
    "a line of only blanks": GOOD_ROW + "\n  \t",
    "a row of the wrong width": GOOD_ROW + "\n" + GOOD_ROW.rsplit(",", 1)[0],
}
# year cells are text to both readers, so these read alike without a hand-over
READ_IN_ONE_CALL = {
    "Arabic-Indic digits in a year": _row_with("year", "٢٠١٠"),
    "a decimal year": _row_with("year", "2010.0"),
    "digit underscores in a year": _row_with("establishment_year", "1_990"),
    "a year beyond int64": _row_with("year", "99999999999999999999"),
    "twenty digits in a money cell": _row_with("total_assets", "99999999999999999999"),
    "a file separator padding a money cell": _row_with("sga", "\x1c12.0"),
}


@pytest.mark.parametrize("body", [*HANDED_OVER.values(), *READ_IN_ONE_CALL.values()],
                         ids=[*HANDED_OVER, *READ_IN_ONE_CALL])
def test_what_the_csv_reader_must_read_keeps_its_reasons(body):
    text = f"{HEADER}\n{GOOD_ROW}\n{body}\n"
    assert (ingest._loadtxt_cells(text) is None) == (body in HANDED_OVER.values())
    want = ingest._fundamentals(*ingest._csv_cells(text))
    assert_same_result(ingest.parse_fundamentals(text), want)


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


def loop_numbers(cells, name, kind):
    """``ingest._numbers`` as it was: one ``float()``/``int()`` call per cell."""
    parse = _float if kind is float else _int
    values = np.zeros(len(cells), dtype=np.float64 if kind is float else np.int64)
    reasons = {}
    for i, cell in enumerate(cells):
        try:
            values[i] = parse(cell, name)
        except ValueError as exc:
            reasons[i] = str(exc)
        except OverflowError:
            reasons[i] = f"{name}: out of range"
    return values, reasons


DIGITS = ("0123456789", "0123456789",
          "".join(map(chr, range(0x0660, 0x066A))),            # Arabic-Indic
          "".join(map(chr, range(0xFF10, 0xFF1A))),            # fullwidth
          "0123" + "".join(map(chr, range(0x0966, 0x096A))))   # with Devanagari
PADDING = ("", "", " ", "  ", "\t", "\n", "\u00a0", "\u2003", "\x1c")
ODD_CELLS = ("", " ", "inf", "-inf", " nan ", "Infinity", "1e400", "-1e400", "1e-400",
             "9" * 20, "-9223372036854775809", "9223372036854775808", "9223372036854775807",
             "1,000.5", "1,5", ",", "_1", "1__0", "1_", "1._5", "0x10", "1.5.2", "abc",
             "5\x00", "+", "-", ".", "e5", "1e", "--1", "\u00bd", "\u2155")


@st.composite
def number_columns(draw):
    """A number kind and a column of cells, most of them readable as that kind."""
    kind = draw(st.sampled_from((float, int)))
    cells = []
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.integers(0, 5)) == 0:
            cells.append(draw(st.sampled_from(ODD_CELLS)))
            continue
        digits = st.text(draw(st.sampled_from(DIGITS)), min_size=1, max_size=3)
        body = "_".join(draw(st.lists(digits, min_size=1, max_size=3)))   # digit groups
        if kind is float:
            body += draw(st.sampled_from(("", "", ".", ".5", "." + draw(digits))))
            if draw(st.booleans()):
                body += draw(st.sampled_from(("e", "E-", "e+"))) + draw(digits)
        sign = draw(st.sampled_from(("", "", "-", "+")))
        cells.append(draw(st.sampled_from(PADDING)) + sign + body
                     + draw(st.sampled_from(PADDING)))
    return kind, cells


@settings(max_examples=300, deadline=None)
@given(number_columns())
@example((float, [" \u0661_2.5e+1\t", "-0", "1e-400"]))
@example((float, ["5\x00", "1"]))      # numpy's own str dtype would drop the NUL
@example((int, ["\u00a02_015 ", "9" * 20]))
def test_bulk_numbers_equal_the_per_cell_loop(column):
    kind, cells = column
    got, got_reasons = ingest._numbers(cells, "x", kind)
    want, want_reasons = loop_numbers(cells, "x", kind)
    assert got_reasons == want_reasons
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()   # -0.0 and NaN too


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
    rf = [RiskFreeSeries(m, {y: rng.uniform(0.0, 0.5) for y in range(2000, 2012)
                             if rng.random() < 0.97})
          for m in ("M1", "M2")]
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
    assert ds.firms == tuple(sorted({f for f, _ in by_key}))
    derived = variables.derive_all(ds, betas)
    columns, exclusions, notes = reference_derive(by_key, rates, betas)
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
