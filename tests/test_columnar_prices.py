"""Property tests: the columnar price table and the batched betas against the
per-row code they replace.

``reference_parse_prices`` is the per-row csv parser the package used before
its price table, with the table's two error fixes (a malformed number raises
``SchemaMismatch`` naming its line, and a duplicate month names its line).
``reference_returns`` and ``reference_beta`` are the per-series return loop
and the month-map window estimate that went with it. A loop of the textbook
``beta_for_year`` must equal them, and each beta of the batched ``all_betas``
must equal that loop's bit for bit.
"""

import csv
import io
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from marketpanel import beta, ingest
from marketpanel.errors import (DuplicateMonth, InsufficientWindow, NonPositivePrice,
                                SchemaMismatch, ZeroMarketVariance)

PROPERTY = settings(max_examples=80, deadline=None)
HEADER = "series_id,year,month,close"
INPUT_ERRORS = (SchemaMismatch, NonPositivePrice, DuplicateMonth)


# --- per-row references -----------------------------------------------------------------

def _number(text, kind, line_no):
    raw = text.strip()
    try:
        if kind is float and raw != raw.replace(",", ""):
            raise ValueError("thousands separators not accepted")
        value = kind(raw)
    except ValueError as exc:
        raise SchemaMismatch(f"prices line {line_no}: {exc}")
    if not math.isfinite(value):
        raise SchemaMismatch(f"prices line {line_no}: not a finite number")
    return value


def reference_parse_prices(csv_text):
    """{series_id: [(year, month, close), ...]} in id and month order, row by row."""
    rows = list(csv.reader(io.StringIO(csv_text)))
    if not rows:
        raise SchemaMismatch("prices: empty file")
    ingest._check_header(rows[0], ingest.PRICES_COLUMNS, "prices")
    by_series = {}
    for line_no, row in enumerate(rows[1:], start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != 4:
            raise SchemaMismatch(f"prices line {line_no}: expected 4 fields")
        series_id = row[0].strip()
        year = _number(row[1], int, line_no)
        month = _number(row[2], int, line_no)
        close = _number(row[3], float, line_no)
        if not 1 <= month <= 12:
            raise SchemaMismatch(f"prices line {line_no}: month {month} outside 1..12")
        if close <= 0:
            raise NonPositivePrice(f"prices line {line_no}: close {close!r} not positive")
        points = by_series.setdefault(series_id, {})
        if (year, month) in points:
            raise DuplicateMonth(f"prices line {line_no}: duplicate month")
        points[(year, month)] = close
    return {s: sorted((y, m, c) for (y, m), c in by_series[s].items())
            for s in sorted(by_series)}


def reference_returns(points):
    """{month index: return} of one series' sorted (year, month, close) points."""
    out, prev = {}, None
    for year, month, close in points:
        index = year * 12 + month - 1
        if prev is not None and index == prev[0] + 1:
            out[index] = close / prev[1] - 1.0
        prev = (index, close)
    return out


def reference_beta(firm_map, market_map, year, window_months, min_months):
    """The month-map window estimate: (beta, paired months, first month) or None."""
    end = year * 12 + 11
    paired = [i for i in range(end - window_months + 1, end + 1)
              if i in firm_map and i in market_map]
    if len(paired) < min_months:
        return None
    ri = np.array([firm_map[i] for i in paired], dtype=float)
    rm = np.array([market_map[i] for i in paired], dtype=float)
    rm_centered = rm - rm.mean()
    var_m = float(rm_centered @ rm_centered)
    if var_m <= 1e-24 * max(float(rm @ rm), 1e-300):
        return None
    beta_value = float(rm_centered @ (ri - ri.mean())) / var_m
    return beta_value, len(paired), (paired[0] // 12, paired[0] % 12 + 1)


def loop_all_betas(returns, firms, years, firm_market, window_months, min_months):
    """``beta_for_year`` once per firm-year, in the order ``all_betas`` reports."""
    estimates, exclusions = {}, []
    for firm_id in sorted(firms):
        for year in years:
            try:
                estimates[(firm_id, year)] = beta.beta_for_year(
                    returns, firm_id, firm_market[firm_id], year, window_months, min_months)
            except (InsufficientWindow, ZeroMarketVariance):
                exclusions.append((firm_id, year, "insufficient return history"))
    return estimates, exclusions


def table_points(table):
    """A PriceTable in the reference parser's form."""
    out = {}
    for code, month, close in zip(table.codes.tolist(), table.months.tolist(),
                                  table.closes.tolist()):
        out.setdefault(table.series_ids[code], []).append((month // 12, month % 12 + 1, close))
    return out


def outcome(parse, text):
    """The parse result, or (error class, first line number in its message)."""
    try:
        return parse(text)
    except INPUT_ERRORS as exc:
        found = re.search(r"line (\d+)", str(exc))
        return type(exc), int(found.group(1)) if found else None


# --- parse_prices -----------------------------------------------------------------------

ID_CHARS = "ABFMxz019 _-.#,'\""
BLANK_LINES = ("", "   ", "\t", ",,,", " , ,", '"",""', ",")
ERROR_KINDS = ("extra_field", "missing_field", "year_text", "month_text", "close_text",
               "close_thousands", "close_nonfinite", "month_range", "close_nonpositive",
               "duplicate")


def _quoted(text):
    return '"' + text.replace('"', '""') + '"'


@st.composite
def cells(draw, text):
    """One cell as a writer might have put it: padded, quoted or plain."""
    if ("," in text or '"' in text) and text.strip() == text:
        return _quoted(text)
    style = draw(st.sampled_from(("plain", "plain", "spaced", "tabbed", "quoted")))
    if style == "spaced":
        return f" {text}  "
    if style == "tabbed":
        return f"\t{text}"
    if style == "quoted":
        return _quoted(text)
    return text.replace(",", "").replace('"', "")


@st.composite
def price_texts(draw):
    ids = draw(st.lists(st.text(ID_CHARS, min_size=1, max_size=4).filter(str.strip),
                        min_size=1, max_size=4, unique_by=str.strip))
    rows = []
    for series_id in ids:
        for m in draw(st.lists(st.integers(0, 40), min_size=1, max_size=10, unique=True)):
            close = draw(st.floats(1e-3, 1e5))
            text = draw(st.sampled_from((repr(close), f"{close:.3f}", f"{close:e}")))
            year = draw(st.sampled_from((str(2010 + m // 12), f"+{2010 + m // 12}")))
            month = draw(st.sampled_from((str(m % 12 + 1), f"0{m % 12 + 1}")))
            rows.append([series_id, year, month, text])
    rows = draw(st.permutations(rows))
    for kind, at in draw(st.lists(st.tuples(st.sampled_from(ERROR_KINDS),
                                            st.integers(0, len(rows) - 1)), max_size=2)):
        row = list(rows[at])
        if len(row) != 4 and kind != "extra_field":
            continue   # a row already short of or past its fields stays so
        if kind == "extra_field":
            row.append("1")
        elif kind == "missing_field":
            row.pop()
        elif kind == "year_text":
            row[1] = draw(st.sampled_from(("x", "2015.5", "", "1e3")))
        elif kind == "month_text":
            row[2] = draw(st.sampled_from(("m", "", "1.0")))
        elif kind == "close_text":
            row[3] = draw(st.sampled_from(("abc", "", "1.5.2", "0x10")))
        elif kind == "close_thousands":
            row[3] = "1,000.5"
        elif kind == "close_nonfinite":
            row[3] = draw(st.sampled_from(("nan", "inf", "-inf", "1e999")))
        elif kind == "month_range":
            row[2] = draw(st.sampled_from(("0", "13", "-3")))
        elif kind == "close_nonpositive":
            row[3] = draw(st.sampled_from(("0", "-2.5", "-0.0")))
        if kind == "duplicate":
            rows.insert(draw(st.integers(at + 1, len(rows))), row[:3] + ["7.5"])
        else:
            rows[at] = row
    lines = [",".join(draw(cells(c)) for c in row) for row in rows]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(BLANK_LINES)))
    newline = draw(st.sampled_from(("\n", "\r\n")))
    return newline.join([HEADER] + lines) + draw(st.sampled_from(("", newline)))


@PROPERTY
@given(price_texts())
def test_parse_prices_equals_the_per_row_parser(text):
    expected = outcome(reference_parse_prices, text)
    got = outcome(lambda t: table_points(ingest.parse_prices(t)), text)
    assert got == expected


@pytest.mark.parametrize("blank", ["", " , "])
@pytest.mark.parametrize("bad, error", [
    ("F1,2015,2", SchemaMismatch),          # a field short
    ("F1,2015,x,1.0", SchemaMismatch),      # month not an integer
    ("F1,2015,2,abc", SchemaMismatch),      # close not a number
    ("F1,2015,2,inf", SchemaMismatch),      # close not finite
    ("F1,2015,13,1.0", SchemaMismatch),     # month out of range
    ("F1,2015,2,-1.0", NonPositivePrice),
    ("F1,2015,1,2.0", DuplicateMonth),      # line 2 has (F1, 2015, 1)
])
def test_each_check_names_the_first_offending_line(bad, error, blank):
    text = f"{HEADER}\nF1,2015,1,1.0\n{blank}\nM1,2015,1,1.0\n{bad}\nF1,2015,3,0\n"
    assert outcome(reference_parse_prices, text) == (error, 5)
    with pytest.raises(error, match="prices line 5:"):
        ingest.parse_prices(text)


def test_parsed_table_is_sorted_and_read_only():
    text = f"{HEADER}\nM1,2015,2,51\nF1,2015,3,103\nM1,2015,1,50\n F1 ,2015,1,101\n"
    table = ingest.parse_prices(text)
    assert table.series_ids == ("F1", "M1")
    assert table.codes.tolist() == [0, 0, 1, 1]
    assert table.months.tolist() == [2015 * 12, 2015 * 12 + 2, 2015 * 12, 2015 * 12 + 1]
    assert table.closes.tolist() == [101.0, 103.0, 50.0, 51.0]
    for column in (table.codes, table.months, table.closes):
        with pytest.raises(ValueError):
            column[0] = 0


@pytest.mark.parametrize("row", ["F1,2015,1,1_000.5", "F1,2_015,1,1.5", "F1,2015,1_0,1.5"])
def test_underscored_numbers_are_rejected_with_their_line(row):
    # int() and float() accept digit-group underscores; the table reads numbers strictly
    with pytest.raises(SchemaMismatch, match="prices line 3"):
        ingest.parse_prices(f"{HEADER}\nF1,2014,12,1.0\n{row}\n")


def test_header_only_and_blank_bodies_give_an_empty_table():
    for text in (f"{HEADER}\n", f"{HEADER}\n\n , ,\n", HEADER):
        table = ingest.parse_prices(text)
        assert table.series_ids == () and len(table.closes) == 0


# --- returns and betas ------------------------------------------------------------------

@st.composite
def price_panels(draw):
    """Seeded monthly prices: gaps, late listings, short series, flat market stretches."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_markets, n_firms = draw(st.integers(1, 2)), draw(st.integers(1, 8))
    span = draw(st.integers(2, 100))
    gap = draw(st.sampled_from((0.0, 0.03, 0.3)))
    window = draw(st.integers(12, 60))
    min_months = draw(st.integers(12, window))
    rows, firm_market = [], {}
    for s in range(n_markets + n_firms):
        series_id = f"M{s}" if s < n_markets else f"F{s}"
        start, end = 0, span
        if s >= n_markets and rng.random() < 0.5:
            start = int(rng.integers(0, span))
        if s >= n_markets and rng.random() < 0.3:
            end = int(rng.integers(start, span)) + 1
        months = [m for m in range(start, end) if rng.random() >= gap]
        returns = rng.normal(0.01, 0.05, len(months))
        if s < n_markets and draw(st.booleans()):
            # a flat stretch: zero returns, or a constant rate the closes round
            flat = int(rng.integers(0, span))
            returns[flat:flat + int(rng.integers(12, 70))] = draw(st.sampled_from((0.0, 0.01)))
        closes = 100.0 * np.cumprod(1.0 + returns)
        rows += [(series_id, 2000 + m // 12, m % 12 + 1, repr(float(c)))
                 for m, c in zip(months, closes)]
        if s >= n_markets:
            firm_market[series_id] = f"M{int(rng.integers(0, n_markets))}"
    order = rng.permutation(len(rows))
    text = "\n".join([HEADER] + [",".join(map(str, rows[i])) for i in order]) + "\n"
    years = range(2000, 2000 + span // 12 + 2)
    return text, firm_market, years, window, min_months


@PROPERTY
@given(price_panels())
def test_batched_betas_equal_the_window_loops(panel):
    text, firm_market, years, window, min_months = panel
    points = reference_parse_prices(text)
    maps = {s: reference_returns(p) for s, p in points.items() if len(p) >= 2}
    returns = beta.monthly_returns(ingest.parse_prices(text))

    assert returns.series_ids == tuple(maps)
    for series_id, row in zip(returns.series_ids, returns.values):
        have = ~np.isnan(row)
        assert dict(zip(returns.months[have].tolist(), row[have].tolist())) == maps[series_id]

    markets = {m for m in firm_market.values()}
    if not markets <= set(maps):
        return   # a market without returns fails the run; covered in test_beta
    firms = [f for f in firm_market if f in maps]
    estimates, exclusions = beta.all_betas(returns, list(reversed(firms)), years,
                                           firm_market, window, min_months)
    loop, loop_exclusions = loop_all_betas(returns, firms, years, firm_market, window,
                                           min_months)
    assert list(estimates.items()) == [(key, est.beta) for key, est in loop.items()]
    assert exclusions == loop_exclusions

    for firm_id in sorted(firms):
        for year in years:
            ref = reference_beta(maps[firm_id], maps[firm_market[firm_id]], year,
                                 window, min_months)
            est = loop.get((firm_id, year))
            assert (ref is None) == (est is None)
            if est is not None:
                assert (est.beta, est.n_months, est.window_start) == ref


def test_flat_market_windows_are_excluded():
    # a constant 1% market return, as the closes round it: variance is rounding residue
    months = [(2010 + i // 12, i % 12 + 1) for i in range(72)]
    lines = [HEADER] + [f"M1,{y},{m},{100 * 1.01 ** i!r}" for i, (y, m) in enumerate(months)]
    lines += [f"F1,{y},{m},{100 + i % 5}" for i, (y, m) in enumerate(months)]
    returns = beta.monthly_returns(ingest.parse_prices("\n".join(lines)))
    estimates, exclusions = beta.all_betas(returns, ["F1"], [2014, 2015], {"F1": "M1"})
    assert estimates == {}
    assert exclusions == [("F1", 2014, "insufficient return history"),
                          ("F1", 2015, "insufficient return history")]
