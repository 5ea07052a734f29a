"""Tests for CSV parsing, soft-fail reporting and round-trip serialization."""

import csv
import io

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from marketpanel import ingest
from marketpanel.errors import (DuplicateMonth, NonPositivePrice, RateOutOfRange,
                                SchemaMismatch)
from marketpanel.panel_core import build_dataset

from conftest import make_panel, make_row, make_table, price_table, table_rows

PROPERTY = settings(max_examples=80, deadline=None)
# ids holding the cells a writer must quote: commas, quotes, CR and LF, and blanks.
# The readers strip whitespace at either end of a cell and read CR as LF, so the
# writers refuse an id that starts or ends with whitespace or holds CR.
QUOTED_IDS = st.lists(st.text(alphabet='Ab9 ,"\r\n\t_\u00e9', min_size=1, max_size=6),
                      min_size=1, max_size=4, unique=True)


def round_trips(ids, write):
    """Whether every id reads back as written; if not, ``write()`` must refuse the
    first one that would not, naming it."""
    unsafe = [i for i in ids if i != i.strip() or "\r" in i or not i]
    if unsafe:
        with pytest.raises(ValueError, match="would not read back") as err:
            write()
        assert repr(unsafe[0]) in str(err.value)
    return not unsafe

HEADER = ("firm_id,market_id,year,price,book_value,eps,sga,rd,sales,"
          "total_assets,total_equity,establishment_year,stakes")
ROW = "F1,M1,2015,2.0,1.5,0.2,12.0,2.0,40.0,100.0,55.0,2000,0.22;0.10;0.07"


class TestParseFundamentals:
    def test_single_valid_row(self):
        table, rejections = ingest.parse_fundamentals(f"{HEADER}\n{ROW}\n")
        assert len(table.year) == 1
        assert rejections == ()
        assert table.stakes.tolist() == [0.22, 0.10, 0.07]
        assert table_rows(table) == [make_row(stakes=(0.22, 0.10, 0.07))]

    def test_zero_sales_rejected(self):
        row = ROW.replace(",40.0,", ",0.0,")
        table, rejections = ingest.parse_fundamentals(f"{HEADER}\n{row}\n")
        assert len(table.year) == 0 and table.firm_ids == ()
        assert len(rejections) == 1
        line_no, reason = rejections[0]
        assert line_no == 2
        assert "sales must be positive" in reason

    def test_rd_above_sga_rejected(self):
        row = "F1,M1,2015,2.0,1.5,0.2,5.0,6.0,40.0,100.0,55.0,2000,"
        _, rejections = ingest.parse_fundamentals(f"{HEADER}\n{row}\n")
        assert len(rejections) == 1
        assert "SG&A minus R&D negative" in rejections[0][1]

    def test_missing_column_is_fatal(self):
        bad = HEADER.replace(",sales", "")
        with pytest.raises(SchemaMismatch):
            ingest.parse_fundamentals(f"{bad}\nF1,M1,2015,2,1.5,0.2,12,2,100,55,2000,\n")

    def test_renamed_column_is_fatal(self):
        bad = HEADER.replace("price", "close")
        with pytest.raises(SchemaMismatch):
            ingest.parse_fundamentals(f"{bad}\n{ROW}\n")

    def test_unknown_extra_column_is_fatal(self):
        with pytest.raises(SchemaMismatch):
            ingest.parse_fundamentals(f"{HEADER},bonus\n{ROW},1\n")

    def test_optional_lagged_book_value_column(self):
        text = f"{HEADER},book_value_2009\n{ROW},1.25\n"
        table, rejections = ingest.parse_fundamentals(text)
        assert rejections == ()
        assert table.book_value_prev.tolist() == [1.25]

    def test_repeated_optional_column_is_fatal(self):
        """A second book_value_2009 column is refused, not read over the first."""
        text = f"{HEADER},book_value_2009,book_value_2009\n{ROW},0.8,0.9\n"
        with pytest.raises(SchemaMismatch, match="repeated column 'book_value_2009'"):
            ingest.parse_fundamentals(text)

    def test_count_invariant_on_mixed_input(self):
        rows = [ROW,
                ROW.replace("F1", "F2").replace(",40.0,", ",0.0,"),
                ROW.replace("F1", "F3"),
                "F4,M1,not_a_year,2.0,1.5,0.2,12,2,40,100,55,2000,"]
        table, rejections = ingest.parse_fundamentals(HEADER + "\n" + "\n".join(rows) + "\n")
        assert len(table.year) + len(rejections) == 4
        assert len(table.year) == 2

    def test_thousands_separator_rejected(self):
        row = ROW.replace("100.0", '"1,000.0"')
        _, rejections = ingest.parse_fundamentals(f"{HEADER}\n{row}\n")
        assert len(rejections) == 1

    def test_empty_stakes_allowed(self):
        row = ROW.rsplit(",", 1)[0] + ","
        table, rejections = ingest.parse_fundamentals(f"{HEADER}\n{row}\n")
        assert len(table.year) == 1 and rejections == ()
        assert table.stakes.tolist() == [] and table.stake_offsets.tolist() == [0, 0]


class TestRowChecks:
    """Each field invariant rejects its row with the reason it names."""

    @staticmethod
    def _reasons(*rows):
        _, rejections = ingest.parse_fundamentals(ingest.fundamentals_to_csv(make_table(rows)))
        return list(rejections)

    @pytest.mark.parametrize("field,value,fragment", [
        ("price", 0.0, "price"),
        ("price", -1.0, "price"),
        ("book_value", 0.0, "book value"),
        ("total_assets", 0.0, "total assets"),
        ("sales", 0.0, "sales must be positive"),
        ("rd", -0.5, "non-negative"),
        ("eps", float("nan"), "finite"),
        ("total_equity", -1.0, "total equity must be non-negative"),
        ("book_value_prev", 0.0, "lagged book value must be positive"),
    ])
    def test_field_violations(self, field, value, fragment):
        [(line_no, reason)] = self._reasons(make_row(**{field: value}))
        assert line_no == 2 and fragment in reason

    def test_rd_exceeding_sga(self):
        assert self._reasons(make_row(sga=5.0, rd=6.0)) == [(2, "SG&A minus R&D negative")]

    def test_establishment_after_observation_year(self):
        assert self._reasons(make_row(year=2015, establishment_year=2016)) == [
            (2, "establishment year after observation year")]

    def test_equity_above_assets(self):
        assert self._reasons(make_row(total_assets=50.0, total_equity=60.0)) == [
            (2, "total equity exceeds total assets")]

    def test_stake_bounds(self):
        assert self._reasons(make_row(stakes=(0.3, 1.2, 1.5))) == [
            (2, "stake 1.2 outside (0, 1]")]
        assert self._reasons(make_row(stakes=(0.6, 0.6))) == [(2, "stakes sum exceeds 1")]
        assert self._reasons(make_row(stakes=(0.5, 0.5 + 5e-10))) == []

    def test_unreadable_stake_names_its_row(self):
        text = ingest.fundamentals_to_csv(make_table([make_row(stakes=(0.1, 0.2, 0.3)),
                                                      make_row(firm_id="F2")]))
        lines = text.splitlines()
        lines[2] = lines[2].replace("0.3;0.1", "0.3;x;2")
        lines.append(lines[1].replace("F1", "F3").replace("0.1;0.2;0.3", "0.1;;0.3"))
        _, rejections = ingest.parse_fundamentals("\n".join(lines))
        assert list(rejections) == [(3, "could not convert string to float: 'x'"),
                                           (4, "could not convert string to float: ''")]

    def test_first_reason_of_a_row_wins(self):
        assert self._reasons(make_row(price=0.0, sales=0.0, stakes=(2.0,))) == [
            (2, "price must be positive")]

    def test_rejection_names_the_line(self):
        rows = [make_row(firm_id="F8"), make_row(firm_id="F9", year=2013, sales=0.0)]
        assert self._reasons(*rows) == [(3, "sales must be positive")]

    def test_valid_row_passes(self):
        assert self._reasons(make_row()) == []


class TestRoundTrip:
    def test_fundamentals_round_trip(self):
        """Serializing an accepted table and re-parsing is the identity."""
        ds = make_panel(n_firms=5, n_years=4, seed=11)
        text = ingest.fundamentals_to_csv(ds.table)
        parsed, rejections = ingest.parse_fundamentals(text)
        assert rejections == ()
        assert table_rows(parsed) == table_rows(ds.table)
        assert ingest.fundamentals_to_csv(parsed) == text

    def test_prices_round_trip(self):
        table = price_table({"F1": [(2015, m, 100.0 + m / 7.0) for m in range(1, 13)]})
        parsed = ingest.parse_prices(ingest.prices_to_csv(table))
        assert parsed.series_ids == table.series_ids
        for column in ("codes", "months", "closes"):
            assert np.array_equal(getattr(parsed, column), getattr(table, column))

    def test_riskfree_round_trip(self):
        rates = {("M2", 2015): 0.04, ("M1", 2016): 0.0287, ("M1", 2015): 0.031}
        text = ingest.riskfree_to_csv(rates)
        # written in (market, year) order, whatever the mapping's order
        assert text == "market_id,year,rate\nM1,2015,0.031\nM1,2016,0.0287\nM2,2015,0.04\n"
        assert ingest.parse_riskfree(text) == rates

    @PROPERTY
    @given(QUOTED_IDS)
    @example(["A,B"])
    @example([" A"])
    @example(["B\rC"])
    def test_prices_round_trip_ids_that_need_quotes(self, ids):
        table = price_table({id_: [(2015, m, 100.0 + m / 7.0) for m in range(1, 4)]
                             for id_ in sorted(ids)})
        if not round_trips(table.series_ids, lambda: ingest.prices_to_csv(table)):
            return
        parsed = ingest.parse_prices(ingest.prices_to_csv(table))
        assert parsed.series_ids == table.series_ids
        for column in ("codes", "months", "closes"):
            assert np.array_equal(getattr(parsed, column), getattr(table, column))

    @PROPERTY
    @given(QUOTED_IDS)
    @example(["M,1"])
    @example(["M1", "M2\t"])
    def test_riskfree_round_trip_ids_that_need_quotes(self, ids):
        rates = {(m, year): rate for m in ids for year, rate in ((2015, 0.031), (2016, 0.0287))}
        if not round_trips(sorted(ids), lambda: ingest.riskfree_to_csv(rates)):
            return
        assert ingest.parse_riskfree(ingest.riskfree_to_csv(rates)) == rates

    @PROPERTY
    @given(QUOTED_IDS, QUOTED_IDS)
    @example(["F0,01"], ["M1"])
    @example(["F1"], ["M\r1 "])
    @example(["F1"], [" "])   # a blank id reads as the empty id, which no reader accepts
    def test_fundamentals_round_trip_ids_that_need_quotes(self, firms, markets):
        table = make_table([make_row(firm_id=firm, market_id=markets[i % len(markets)])
                            for i, firm in enumerate(firms)])
        if not round_trips(table.firm_ids + table.market_ids,
                           lambda: ingest.fundamentals_to_csv(table)):
            return
        parsed, rejections = ingest.parse_fundamentals(ingest.fundamentals_to_csv(table))
        assert rejections == ()
        assert table_rows(parsed) == table_rows(table)


def csv_rows(alphabet):
    """Rows of text cells over ``alphabet``, empty cells among them."""
    return st.lists(st.lists(st.text(alphabet=alphabet, max_size=5), min_size=2, max_size=4),
                    min_size=1, max_size=5)


def writer_text(rows):
    return ingest._csv_text([list(map(ingest._csv_cell, row)) for row in rows])


class TestCsvWriter:
    @PROPERTY
    @given(csv_rows('ab ,"\r\n'))
    def test_csv_reader_reads_back_the_rows(self, rows):
        # two cells a row at least: a row of one empty cell is an empty line, which
        # csv.reader skips
        assert list(csv.reader(io.StringIO(writer_text(rows), newline=""))) == rows

    @PROPERTY
    @given(csv_rows('ab ,"\n'))
    def test_text_equals_csv_writer_without_cr(self, rows):
        # csv.writer quotes a lone CR on Python 3.13 but, with lineterminator="\n",
        # not on 3.10-3.12, so cells holding CR have no reference to compare with
        reference = io.StringIO()
        csv.writer(reference, lineterminator="\n").writerows(rows)
        assert writer_text(rows) == reference.getvalue()


class TestParsePrices:
    def test_ten_years_of_months(self):
        lines = ["series_id,year,month,close"]
        for year in range(2010, 2020):
            for month in range(1, 13):
                lines.append(f"F1,{year},{month},{100 + month}")
        table = ingest.parse_prices("\n".join(lines) + "\n")
        assert table.series_ids == ("F1",)
        assert len(table.closes) == 120

    def test_duplicate_month(self):
        text = "series_id,year,month,close\nF1,2015,3,100\nF1,2015,3,101\n"
        with pytest.raises(DuplicateMonth):
            ingest.parse_prices(text)

    def test_out_of_order_months_sorted(self):
        text = ("series_id,year,month,close\n"
                "F1,2015,3,103\nF1,2015,1,101\nF1,2015,2,102\n")
        table = ingest.parse_prices(text)
        assert [m % 12 + 1 for m in table.months.tolist()] == [1, 2, 3]

    def test_non_positive_close(self):
        with pytest.raises(NonPositivePrice):
            ingest.parse_prices("series_id,year,month,close\nF1,2015,1,0\n")

    def test_interleaved_series_split(self):
        text = ("series_id,year,month,close\n"
                "F1,2015,1,100\nM1,2015,1,50\nF1,2015,2,101\nM1,2015,2,51\n")
        table = ingest.parse_prices(text)
        assert table.series_ids == ("F1", "M1")


def test_an_id_with_a_trailing_nul_is_its_own_id_in_every_file():
    """One rule codes the ids of every file: stripped of whitespace at their ends,
    nothing else dropped, so F1 and F1 followed by NUL are two firms and two series."""
    fundamentals = "\n".join([HEADER, ROW, ROW.replace("F1,", "F1\x00,", 1)]) + "\n"
    table, rejections = ingest.parse_fundamentals(fundamentals)
    assert rejections == ()
    assert table.firm_ids == ("F1", "F1\x00")
    assert build_dataset(table, {("M1", 2015): 0.03}).codes.firm_ids == ("F1", "F1\x00")
    prices = ingest.parse_prices("series_id,year,month,close\nF1,2015,1,10.0\n"
                                 "F1\x00,2015,1,11.0\n")
    assert prices.series_ids == ("F1", "F1\x00")
    assert prices.codes.tolist() == [0, 1]


class TestParseRiskfree:
    def test_single_rate(self):
        assert ingest.parse_riskfree("market_id,year,rate\nQA,2015,0.032\n") == {
            ("QA", 2015): 0.032}

    def test_negative_rate(self):
        with pytest.raises(RateOutOfRange):
            ingest.parse_riskfree("market_id,year,rate\nQA,2015,-0.01\n")

    def test_duplicate_market_year_names_its_line(self):
        text = "market_id,year,rate\nQA,2015,0.03\n\nKW,2015,0.02\nQA,2015,0.031\n"
        with pytest.raises(SchemaMismatch,
                           match=r"riskfree line 5: duplicate \(market, year\) \(QA, 2015\)"):
            ingest.parse_riskfree(text)

    def test_two_markets_interleaved(self):
        text = ("market_id,year,rate\n"
                "QA,2015,0.03\nKW,2015,0.028\nQA,2016,0.031\nKW,2016,0.029\n")
        rates = ingest.parse_riskfree(text)
        assert list(rates.items()) == [(("KW", 2015), 0.028), (("KW", 2016), 0.029),
                                       (("QA", 2015), 0.03), (("QA", 2016), 0.031)]
        with pytest.raises(TypeError):   # read-only
            rates["KW", 2017] = 0.03
