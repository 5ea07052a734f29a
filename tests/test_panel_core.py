"""Tests for the domain types and dataset construction."""

import random

import numpy as np
import pytest

from marketpanel.errors import DuplicateKey, EmptyInput, InvariantViolation, MissingRiskFree
from marketpanel.panel_core import PanelCodes, RiskFreeSeries, build_dataset, row_sums

from conftest import make_panel, make_row, make_table, table_rows


class TestBuildDataset:
    def test_full_panel_has_all_observations(self):
        """20 firms x 10 years of valid rows come through untouched."""
        ds = make_panel(n_firms=20, n_years=10)
        assert len(ds) == 200
        assert ds.is_balanced
        assert len(ds.firms) == 20
        assert ds.years == tuple(range(2011, 2021))

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            build_dataset(make_table([]), [RiskFreeSeries("M1", {2015: 0.03})])

    def test_duplicate_firm_year(self):
        rows = [make_row(), make_row()]
        rf = [RiskFreeSeries("M1", {2015: 0.03})]
        with pytest.raises(DuplicateKey):
            build_dataset(make_table(rows), rf)

    def test_missing_risk_free_rate(self):
        rows = [make_row(year=2015)]
        rf = [RiskFreeSeries("M1", {2014: 0.03})]
        with pytest.raises(MissingRiskFree):
            build_dataset(make_table(rows), rf)

    def test_rate_out_of_range(self):
        with pytest.raises(InvariantViolation, match="rate"):
            build_dataset(make_table([make_row()]), [RiskFreeSeries("M1", {2015: 0.7})])

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
        rf = [RiskFreeSeries("M1", {2015: 0.03, 2016: 0.03})]
        with pytest.raises(error, match=message.replace("(", r"\(").replace(")", r"\)")):
            build_dataset(table, rf)

    def test_order_independence(self):
        """Permuting input rows yields an identical dataset."""
        ds_a = make_panel(n_firms=5, n_years=4, seed=3)
        rows = table_rows(ds_a.table)
        random.Random(1).shuffle(rows)
        ds_b = build_dataset(make_table(rows), list(ds_a.risk_free))
        assert table_rows(ds_a.table) == table_rows(ds_b.table)
        assert ds_a.codes.firm.tolist() == ds_b.codes.firm.tolist()
        assert ds_a.row_rates.tolist() == ds_b.row_rates.tolist()

    def test_rows_sorted_by_firm_then_year(self):
        rows = [make_row(firm_id=f, year=y) for f, y in
                [("F2", 2016), ("F10", 2015), ("F2", 2015), ("F10", 2016)]]
        ds = build_dataset(make_table(rows), [RiskFreeSeries("M1", {2015: 0.03, 2016: 0.04})])
        assert [(r["firm_id"], r["year"]) for r in table_rows(ds.table)] == [
            ("F10", 2015), ("F10", 2016), ("F2", 2015), ("F2", 2016)]
        assert ds.firms == ("F10", "F2")
        assert ds.codes.firm.tolist() == [0, 0, 1, 1]
        assert ds.row_rates.tolist() == [0.03, 0.04, 0.03, 0.04]

    def test_unbalanced_panel_recorded(self):
        ds = make_panel(n_firms=3, n_years=3)
        rows = [r for r in table_rows(ds.table) if (r["firm_id"], r["year"]) != ("F1", 2011)]
        ds2 = build_dataset(make_table(rows), list(ds.risk_free))
        assert not ds2.is_balanced
        assert len(ds2) == 8

    def test_firm_markets_from_the_last_year(self):
        rows = [make_row(firm_id="F1", market_id="M2", year=2015),
                make_row(firm_id="F1", market_id="M1", year=2016),
                make_row(firm_id="F2", market_id="M2", year=2015)]
        rf = [RiskFreeSeries(m, {2015: 0.03, 2016: 0.03}) for m in ("M1", "M2")]
        ds = build_dataset(make_table(rows), rf)
        assert ds.firm_markets() == {"F1": "M1", "F2": "M2"}


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
        assert sub.years.tolist() == [2002, 2000]
        assert sub.period.tolist() == [0, 1, 0]
        sub = codes.select(np.array([True, True, False, False, True]))
        assert sub.firm_ids == ("A", "C")
        assert sub.firm.tolist() == [0, 0, 1]
        assert sub.firm_sizes.tolist() == [2, 1]


def test_row_sums_add_left_to_right():
    values = np.array([0.1, 0.2, 0.3, 1e16, 1.0, -1e16, 5.0])
    offsets = np.array([0, 3, 3, 6, 7])
    expected = [sum(values[a:b].tolist()) for a, b in zip(offsets[:-1], offsets[1:])]
    assert row_sums(values, offsets).tolist() == expected
    assert row_sums(np.array([]), np.array([0, 0])).tolist() == [0.0]
