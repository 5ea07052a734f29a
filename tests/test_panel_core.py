"""Tests for the domain types and dataset construction."""

import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from marketpanel.errors import DuplicateKey, EmptyInput, MissingRiskFree
from marketpanel.panel_core import PanelCodes, build_dataset, id_codes, key_order, row_sums

from conftest import make_panel, make_row, make_table, row_order_sum, table_rows


class TestBuildDataset:
    def test_full_panel_has_all_observations(self):
        """20 firms x 10 years of valid rows come through untouched."""
        ds = make_panel(n_firms=20, n_years=10)
        assert len(ds.table.year) == 200
        assert len(ds.codes.firm_ids) == 20
        assert ds.codes.years.tolist() == list(range(2011, 2021))

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            build_dataset(make_table([]), {("M1", 2015): 0.03})

    def test_duplicate_firm_year(self):
        rows = [make_row(), make_row()]
        rf = {("M1", 2015): 0.03}
        with pytest.raises(DuplicateKey):
            build_dataset(make_table(rows), rf)

    def test_missing_risk_free_rate(self):
        rows = [make_row(year=2015)]
        rf = {("M1", 2014): 0.03}
        with pytest.raises(MissingRiskFree):
            build_dataset(make_table(rows), rf)

    @pytest.mark.parametrize("rows, error, message", [
        # the first faulty row in table order decides, a repeat before a missing rate
        ([("F2", 2016), ("F1", 2015), ("F2", 2016), ("F3", 2019)], DuplicateKey,
         "firm F2, year 2016"),
        ([("F2", 2016), ("F3", 2019), ("F2", 2016)], MissingRiskFree,
         "market M1, year 2019 (firm F3)"),
        ([("F1", 2015), ("F1", 2015), ("F1", 2015), ("F0", 2016), ("F0", 2016)],
         DuplicateKey, "firm F1, year 2015"),
    ])
    def test_first_faulty_row_raises(self, rows, error, message):
        table = make_table([make_row(firm_id=f, year=y) for f, y in rows])
        rf = {("M1", 2015): 0.03, ("M1", 2016): 0.03}
        with pytest.raises(error, match=message.replace("(", r"\(").replace(")", r"\)")):
            build_dataset(table, rf)

    def test_order_independence(self):
        """Permuting input rows yields an identical dataset."""
        ds_a = make_panel(n_firms=5, n_years=4, seed=3)
        rows = table_rows(ds_a.table)
        random.Random(1).shuffle(rows)
        ds_b = build_dataset(make_table(rows), ds_a.risk_free)
        assert table_rows(ds_a.table) == table_rows(ds_b.table)
        assert ds_a.codes.firm.tolist() == ds_b.codes.firm.tolist()
        assert ds_a.row_rates.tolist() == ds_b.row_rates.tolist()

    def test_rows_sorted_by_firm_then_year(self):
        rows = [make_row(firm_id=f, year=y) for f, y in
                [("F2", 2016), ("F10", 2015), ("F2", 2015), ("F10", 2016)]]
        ds = build_dataset(make_table(rows), {("M1", 2015): 0.03, ("M1", 2016): 0.04})
        assert [(r["firm_id"], r["year"]) for r in table_rows(ds.table)] == [
            ("F10", 2015), ("F10", 2016), ("F2", 2015), ("F2", 2016)]
        assert ds.codes.firm_ids == ("F10", "F2")
        assert ds.codes.firm.tolist() == [0, 0, 1, 1]
        assert ds.row_rates.tolist() == [0.03, 0.04, 0.03, 0.04]

    def test_unbalanced_panel_recorded(self):
        ds = make_panel(n_firms=3, n_years=3)
        rows = [r for r in table_rows(ds.table) if (r["firm_id"], r["year"]) != ("F1", 2011)]
        ds2 = build_dataset(make_table(rows), ds.risk_free)
        assert len(ds2.table.year) == 8

    def test_firm_markets_from_the_last_year(self):
        rows = [make_row(firm_id="F1", market_id="M2", year=2015),
                make_row(firm_id="F1", market_id="M1", year=2016),
                make_row(firm_id="F2", market_id="M2", year=2015)]
        rf = {(m, y): 0.03 for m in ("M1", "M2") for y in (2015, 2016)}
        ds = build_dataset(make_table(rows), rf)
        assert ds.firm_markets() == ["M1", "M2"]


class TestTable:
    def test_take_reorders_rows_with_their_stakes(self):
        rows = [make_row(firm_id="A", stakes=(0.5,)), make_row(firm_id="B", stakes=()),
                make_row(firm_id="C", stakes=(0.2, 0.1, 0.3))]
        table = make_table(rows)
        assert table_rows(table.take([2, 0])) == [rows[2], rows[0]]
        assert table.take([2, 0]).firm_ids == ("A", "C")
        assert table_rows(table.take([1])) == [rows[1]]

    def test_columns_are_read_only(self):
        table = make_table([make_row()])
        with pytest.raises(ValueError):
            table.price[0] = 1.0
        with pytest.raises(ValueError):
            table.stakes[0] = 1.0


class TestPanelCodes:
    def test_select_drops_firms_and_reorders_periods(self):
        codes = PanelCodes.from_codes(("A", "B", "C", "D"), [0, 0, 1, 1, 2],
                                      [2001, 2002, 2000, 2001, 2002])
        assert codes.firm_ids == ("A", "B", "C")
        sub = codes.select(np.array([False, True, True, False, True]))
        assert sub.firm_ids == ("A", "B", "C")
        assert sub.years.tolist() == [2000, 2002]
        assert sub.period.tolist() == [1, 0, 1]
        sub = codes.select(np.array([True, True, False, False, True]))
        assert sub.firm_ids == ("A", "C")
        assert sub.firm.tolist() == [0, 0, 1]
        assert sub.firm_sizes.tolist() == [2, 1]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(1990, 2030)), min_size=1,
                    max_size=30))
    def test_periods_are_coded_in_year_order(self, rows):
        firm, year = (np.array(column) for column in zip(*rows))
        codes = PanelCodes.from_codes(("A", "B", "C", "D"), firm, year)
        assert codes.years.tolist() == sorted(set(year.tolist()))
        assert codes.years[codes.period].tolist() == year.tolist()

    def test_select_of_every_row_reuses_the_codes(self):
        codes = make_panel(n_firms=5, n_years=4).codes
        assert codes.select(np.ones(len(codes.firm), dtype=bool)) is codes
        rng = np.random.default_rng(0)
        for mask in (rng.random(len(codes.firm)) < 0.7, np.arange(len(codes.firm)) % 4 != 1):
            want = PanelCodes.from_codes(codes.firm_ids, codes.firm[mask],
                                         codes.years[codes.period[mask]])
            got = codes.select(mask)
            assert got is not codes
            assert (got.firm_ids, got.years.tolist()) == (want.firm_ids, want.years.tolist())
            for name in ("firm", "firm_sizes", "period"):
                assert getattr(got, name).tolist() == getattr(want, name).tolist()


def test_row_sums_add_left_to_right():
    values = np.array([0.1, 0.2, 0.3, 1e16, 1.0, -1e16, 5.0])
    offsets = np.array([0, 3, 3, 6, 7])
    expected = [row_order_sum(values[a:b].tolist()) for a, b in zip(offsets[:-1], offsets[1:])]
    assert row_sums(values, offsets).tolist() == expected
    assert row_sums(np.array([]), np.array([0, 0])).tolist() == [0.0]


# raw id cells: outer blanks around a core that may be empty or hold NUL characters,
# each repeated in a run of rows
RAW_ID_RUNS = st.lists(st.tuples(st.text(alphabet=" \t\n", max_size=2),
                                 st.text(alphabet="F1 \x00\u00e9", max_size=4),
                                 st.text(alphabet=" \t\n", max_size=2),
                                 st.integers(1, 3)), max_size=12)


@settings(max_examples=200, deadline=None)
@given(RAW_ID_RUNS)
@example([("", "F1", "", 1), ("", "F1\x00", "", 1), (" ", "F1", "\t", 2)])
def test_id_codes_code_stripped_ids_as_np_unique_does(runs):
    raw = [head + core + tail for head, core, tail, n in runs for _ in range(n)]
    # an object array, so that numpy keeps trailing NUL characters
    want_ids, want_codes = np.unique(np.array([r.strip() for r in raw], dtype=object),
                                     return_inverse=True)
    ids, codes = id_codes(raw)
    assert ids == tuple(want_ids.tolist())
    assert codes.dtype == np.int64 and codes.tolist() == want_codes.tolist()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(-2, 2)), max_size=30))
def test_key_order_keeps_the_first_row_of_each_key(rows):
    codes = np.array([c for c, _ in rows], dtype=np.int64)
    keys = np.array([k for _, k in rows], dtype=np.int64)
    order, repeat = key_order(codes, keys)
    seen, want = set(), []
    for row in rows:
        want.append(row in seen)
        seen.add(row)
    assert repeat.tolist() == want
    assert order.tolist() == sorted(range(len(rows)), key=lambda r: (rows[r], r))
