"""Tests for table emission and golden comparison."""

import json
import math
import os
import shutil
import struct
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from marketpanel import diagnostics, models, report, synth, variables
from marketpanel.errors import SchemaMismatch
from marketpanel.report import ReportBundle, compare_tables, emit, golden_compare

from conftest import beta_column

# the committed seed-9 tree that tests/test_golden.py pins
GOLDEN = Path(__file__).resolve().parent / "golden" / "balanced"


@pytest.fixture(scope="module")
def bundle():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = synth.generate_panel(synth.DGPConfig(seed=3))
        panel = variables.derive_all(result.dataset,
                                     beta_column(result.dataset, result.truth.betas_true))
        desc_cols = variables.panel_columns(panel, variables.DESCRIPTIVES_ORDER)
        corr_cols = variables.panel_columns(panel, variables.CORRELATION_ORDER)
        stationarity = diagnostics.panel_stationarity(
            variables.panel_columns(panel, variables.STATIONARITY_ORDER), panel.codes)
        estimates = models.estimate_plan(panel)
    return ReportBundle(
        descriptives_table=diagnostics.descriptives(desc_cols),
        correlation_table=diagnostics.correlation_matrix(corr_cols),
        stationarity_table=stationarity,
        estimates=estimates,
        metadata={"run_id": "test", "config_hash": "0" * 64, "timestamp": None})


def builder_texts(kind, table):
    """File name -> text of one table of ``kind``, by its json, csv and markdown builders."""
    return {f"{kind}.{ext}": build(table)
            for ext, build in zip(("json", "csv", "md"), report._BUILDERS[kind])}


def md_table_rows(text):
    rows = []
    for line in text.splitlines():
        if line.startswith("|") and not set(line) <= {"|", "-", " "}:
            cells = [c.strip() for c in line.strip("|").split("|")]
            rows.append(cells[0])
    return rows[1:]  # drop the header row


class TestEmit:
    def test_file_set(self, bundle, tmp_path):
        emit(bundle, str(tmp_path))
        names = sorted(os.listdir(tmp_path))
        expected_stems = ["correlations", "descriptives", "risk_direct",
                          "risk_moderated", "robustness_risk_assets",
                          "robustness_risk_log", "robustness_value_assets",
                          "robustness_value_log", "stationarity", "value_direct",
                          "value_moderated"]
        for stem in expected_stems:
            for ext in ("json", "csv", "md"):
                assert f"{stem}.{ext}" in names
        assert "manifest.json" in names

    def test_moderated_tables_pair_with_their_direct_model(self, bundle, tmp_path):
        emit(bundle, str(tmp_path))
        paired = "| Variable | Direct Model Coefficient | Direct Model Prob. |"
        for stem in ("value_moderated", "risk_moderated"):
            assert (tmp_path / f"{stem}.md").read_text().splitlines()[2].startswith(paired)
        # no direct model is estimated under the alternative marketing measures
        for stem in ("value_direct", "risk_direct", "robustness_value_assets",
                     "robustness_value_log", "robustness_risk_assets", "robustness_risk_log"):
            assert (tmp_path / f"{stem}.md").read_text().splitlines()[2] == \
                "| Variable | Coefficient | Prob. |"

    def test_value_table_rows_match_layout(self, bundle, tmp_path):
        """The value-model table carries exactly the published row set."""
        emit(bundle, str(tmp_path))
        text = (tmp_path / "value_moderated.md").read_text()
        rows = md_table_rows(text)
        assert rows == ["C", "X", "Marin", "AGE", "Size", "Lev", "OW",
                        "OW*Marin", "R-squared"]

    def test_risk_table_rows_match_layout(self, bundle, tmp_path):
        emit(bundle, str(tmp_path))
        rows = md_table_rows((tmp_path / "risk_moderated.md").read_text())
        assert rows == ["C", "Marin", "AGE", "SIZ", "LEVR", "OW", "OW*Marin",
                        "R-squared"]

    def test_json_and_csv_numbers_identical(self, bundle, tmp_path):
        emit(bundle, str(tmp_path))
        payload = json.loads((tmp_path / "value_direct.json").read_text())
        csv_lines = (tmp_path / "value_direct.csv").read_text().splitlines()
        by_var = {}
        for line in csv_lines[1:]:
            cells = line.split(",")
            if cells[0] != "R-squared":
                by_var[cells[0]] = (float(cells[1]), float(cells[2]), float(cells[3]))
        for row in payload["rows"]:
            coefficient, std_error, prob = by_var[row["variable"]]
            assert row["coefficient"] == coefficient
            assert row["std_error"] == std_error
            assert row["prob"] == prob

    def test_emission_deterministic(self, bundle, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        emit(bundle, str(a))
        emit(bundle, str(b))
        for name in os.listdir(a):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_robustness_reports_labeled(self, bundle, tmp_path):
        emit(bundle, str(tmp_path))
        seen = []
        for stem in ("robustness_value_assets", "robustness_value_log",
                     "robustness_risk_assets", "robustness_risk_log"):
            payload = json.loads((tmp_path / f"{stem}.json").read_text())
            seen.append((payload["model_id"], payload["marin_variant"]))
        assert seen == [("value_moderated", "assets_ratio"),
                        ("value_moderated", "log_level"),
                        ("risk_moderated", "assets_ratio"),
                        ("risk_moderated", "log_level")]

    def test_markdown_four_decimals(self, bundle, tmp_path):
        emit(bundle, str(tmp_path))
        text = (tmp_path / "descriptives.md").read_text()
        data_line = [l for l in text.splitlines() if l.startswith("| P ")][0]
        cells = [c.strip() for c in data_line.strip("|").split("|")][2:]
        for cell in cells:
            assert len(cell.split(".")[1]) == 4

    def test_a_column_without_finite_values(self):
        """It is a "no observations" row: null in json, empty in csv, blank in markdown."""
        rows = diagnostics.descriptives({"v": np.array([np.nan, np.inf, -np.inf])})
        (row,) = rows
        assert (row.name, row.n, row.std, row.flag) == ("v", 0, None, "no observations")
        assert all(math.isnan(x) for x in (row.minimum, row.maximum, row.mean))
        texts = builder_texts("descriptives", rows)
        assert json.loads(texts["descriptives.json"])["rows"] == [
            {"variable": "v", "n": 0, "minimum": None, "maximum": None, "mean": None,
             "std": None, "flag": "no observations"}]
        assert texts["descriptives.csv"].splitlines()[1] == "v,0,,,,"
        assert texts["descriptives.md"].splitlines()[4] == "| v | 0 |  |  |  |  |"

    def test_a_pair_with_fewer_than_three_complete_rows(self):
        """Its r and p are NaN and its n the count of complete rows: null in json,
        empty in csv, blank in markdown."""
        c = diagnostics.correlation_matrix({"x": np.array([1.0, 2.0, np.nan, 4.0, 5.0]),
                                            "y": np.array([2.0, np.nan, 3.0, np.nan, 6.0])})
        assert math.isnan(c.r[0, 1]) and math.isnan(c.p[0, 1])
        assert c.n.tolist() == [[4, 2], [2, 3]]
        texts = builder_texts("correlations", c)
        payload = json.loads(texts["correlations.json"])
        assert (payload["r"], payload["p"]) == ([[1.0, None], [None, 1.0]],
                                                [[0.0, None], [None, 0.0]])
        assert payload["n"] == [[4, 2], [2, 3]]
        assert texts["correlations.csv"].splitlines()[2] == "y,x,,,2"
        assert texts["correlations.md"].splitlines()[6:8] == ["| y |  | 1.0000 |",
                                                             "|  |  | 0.0000 |"]


class TestGoldenCompare:
    def test_identical_sets_empty_diff(self, bundle, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        emit(bundle, str(a))
        emit(bundle, str(b))
        assert golden_compare(str(a), str(b), rel_tol=0.0) == []

    def test_single_perturbed_cell_single_diff(self, bundle, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        emit(bundle, str(a))
        emit(bundle, str(b))
        path = b / "value_direct.json"
        payload = json.loads(path.read_text())
        payload["rows"][1]["coefficient"] *= 1.5
        path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")
        diff = golden_compare(str(a), str(b), rel_tol=0.1)
        assert len(diff) == 1
        assert "value_direct.json" in diff[0]
        assert "coefficient" in diff[0]

    def test_tolerance_respected(self, bundle, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        emit(bundle, str(a))
        emit(bundle, str(b))
        path = b / "descriptives.json"
        payload = json.loads(path.read_text())
        payload["rows"][0]["mean"] *= 1.0 + 1e-9
        path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")
        assert golden_compare(str(a), str(b), rel_tol=1e-6) == []
        assert golden_compare(str(a), str(b), rel_tol=1e-12) != []

    def test_schema_version_mismatch(self, bundle, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        emit(bundle, str(a))
        emit(bundle, str(b))
        path = b / "descriptives.json"
        payload = json.loads(path.read_text())
        payload["schema_version"] = "999"
        path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")
        with pytest.raises(SchemaMismatch):
            golden_compare(str(a), str(b))

    def test_float_serialization_round_trips(self):
        """Doubles survive json re-serialization bit for bit."""
        rng = np.random.default_rng(0)
        raw = rng.uniform(-1e12, 1e12, 900).tolist()
        raw += (rng.standard_normal(100) * 1e-300).tolist()
        for x in raw:
            y = json.loads(json.dumps(x))
            assert struct.pack("<d", x) == struct.pack("<d", y)

    def test_missing_file_reported(self, bundle, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        emit(bundle, str(a))
        emit(bundle, str(b))
        os.remove(b / "stationarity.csv")
        diff = golden_compare(str(a), str(b))
        assert any("stationarity.csv" in line for line in diff)


def _edited(tmp_path, name, edit):
    """A copy of the golden tree whose json table ``name`` went through ``edit``."""
    tree = tmp_path / "edited"
    shutil.copytree(GOLDEN, tree)
    path = tree / name
    table = json.loads(path.read_text())
    edit(table)
    path.write_text(json.dumps(table))
    return tree


def _row(table, variable):
    return next(r for r in table["rows"] if r["variable"] == variable)


def _scaled(variable, cell, factor):
    def edit(table):
        _row(table, variable)[cell] *= factor
    return edit


# a (coefficient, prob) pair of table cells
_CELL = st.tuples(st.floats(allow_nan=False, allow_infinity=False), st.floats(0.0, 1.0))


def _table_texts(cells):
    """A json and a csv table text of ``cells``, (coefficient, prob) per variable."""
    rows = [{"variable": f"v{i}", "coefficient": c, "prob": p} for i, (c, p) in enumerate(cells)]
    csv_text = "variable,coefficient,prob\n" + "".join(
        f"{r['variable']},{r['coefficient']!r},{r['prob']!r}\n" for r in rows)
    return {"t.json": json.dumps({"schema_version": "1", "rows": rows}), "t.csv": csv_text}


def _json_edit(edit):
    """A text edit that applies ``edit`` to the parsed json table."""
    def text_edit(text):
        table = json.loads(text)
        edit(table)
        return json.dumps(table)
    return text_edit


def _csv_edit(edit):
    """A text edit that applies ``edit`` to the csv table's lines, split into cells."""
    def text_edit(text):
        rows = [line.split(",") for line in text.split("\n")]
        edit(rows)
        return "\n".join(map(",".join, rows))
    return text_edit


# the lines of a golden csv table (the last is empty) and the line of its Marin row
_CSV_LINES = (GOLDEN / "value_moderated.csv").read_text().split("\n")
_MARIN = next(i for i, line in enumerate(_CSV_LINES) if line.startswith("Marin,"))


class TestComparisonRule:
    def test_argument_order_does_not_matter(self):
        one, two = _table_texts([(1.0, 0.5)]), _table_texts([(2.0, 0.5)])
        assert compare_tables(one, two, 0.6) == [] and compare_tables(two, one, 0.6) == []
        # |1 - 2| is exactly 0.5 times the larger magnitude: the bound is inclusive
        assert compare_tables(one, two, 0.5) == []
        assert compare_tables(one, two, 0.4) != []
        assert compare_tables(two, one, 0.4) != []

    @given(st.lists(st.tuples(_CELL, _CELL), min_size=1, max_size=4),
           st.sampled_from([0.0, 1e-12, 1e-6, 0.6, 2.0]))
    def test_swapping_the_trees_never_changes_the_result(self, pairs, rel_tol):
        a, b = _table_texts([pa for pa, _ in pairs]), _table_texts([pb for _, pb in pairs])
        forward, backward = compare_tables(a, b, rel_tol), compare_tables(b, a, rel_tol)
        assert len(forward) == len(backward)

    def test_huge_values_compare_by_their_difference(self):
        """Their sum overflows; their difference is 1e-15 of them."""
        big = 1.5e308
        assert compare_tables(_table_texts([(big, 0.5)]),
                              _table_texts([(big * (1 + 1e-15), 0.5)]), 1e-12) == []

    @pytest.mark.parametrize("p, widening", [(0.9, 1.0), (math.exp(-20.0), 40.0)])
    @pytest.mark.parametrize("factor", [0.99, 1.01])
    def test_p_bound_widening_from_both_sides(self, p, widening, factor):
        """A p cell's bound is rel_tol max(1, 2|ln p|): 1 at p = 0.9, 40 at e^-20.
        A p moved by ``factor`` times that passes just below it and fails just above."""
        rel_tol = 1e-6
        moved = p * (1 + factor * widening * rel_tol)
        diff = compare_tables(_table_texts([(1.0, p)]), _table_texts([(1.0, moved)]), rel_tol)
        assert (diff == []) is (factor < 1)

    def test_mid_range_p_moved_1e_10_fails(self, tmp_path):
        edit = _scaled("C", "prob", 1 + 1e-10)
        table = json.loads((GOLDEN / "risk_moderated.json").read_text())
        assert 0.28 < _row(table, "C")["prob"] < 0.31
        diff = golden_compare(str(GOLDEN), str(_edited(tmp_path, "risk_moderated.json", edit)),
                              rel_tol=1e-12)
        assert diff and diff[0].startswith("risk_moderated.json:/rows[C]/prob:")

    def test_far_tail_p_moved_1e_10_passes(self, tmp_path):
        table = json.loads((GOLDEN / "value_direct.json").read_text())
        assert _row(table, "X")["prob"] == pytest.approx(8.97e-51, rel=1e-3)
        tree = _edited(tmp_path, "value_direct.json", _scaled("X", "prob", 1 + 1e-10))
        assert golden_compare(str(GOLDEN), str(tree), rel_tol=1e-12) == []
        assert golden_compare(str(GOLDEN), str(tree), rel_tol=0) != []

    @pytest.mark.parametrize("factor, passes", [(1 + 5e-11, True), (1 + 5e-10, False)])
    def test_hausman_statistic_is_compared_1e2_looser(self, tmp_path, factor, passes):
        def edit(table):
            table["diagnostics"]["hausman"]["statistic"] *= factor
        tree = _edited(tmp_path, "risk_moderated.json", edit)
        assert (golden_compare(str(GOLDEN), str(tree), rel_tol=1e-12) == []) is passes
        diff = golden_compare(str(GOLDEN), str(tree), rel_tol=0)
        assert [line.split(": ")[0] for line in diff] == \
            ["risk_moderated.json:/diagnostics/hausman/statistic"]

    def test_nudged_golden_coefficient_names_its_cell(self, tmp_path):
        tree = _edited(tmp_path, "value_moderated.json", _scaled("Marin", "coefficient", 1 + 1e-9))
        diff = golden_compare(str(GOLDEN), str(tree), rel_tol=1e-12)
        assert len(diff) == 1
        assert diff[0].startswith("value_moderated.json:/rows[Marin]/coefficient:")

    @pytest.mark.parametrize("name, edit, line", [
        ("value_moderated.json", _json_edit(lambda t: t.update(extra=1)),
         "value_moderated.json:/extra: present on one side only"),
        ("value_moderated.json", _json_edit(lambda t: t["rows"].pop()),
         "value_moderated.json:/rows: length 9 vs 8"),
        ("value_moderated.json", _json_edit(lambda t: t.update(hausman_decision="reject")),
         "value_moderated.json:/hausman_decision: 'fail_to_reject' vs 'reject'"),
        ("value_moderated.csv", _csv_edit(lambda rows: rows.pop(_MARIN)),
         f"value_moderated.csv: row count {len(_CSV_LINES) - 1} vs {len(_CSV_LINES) - 2}"),
        ("value_moderated.csv", _csv_edit(lambda rows: rows[_MARIN].append("0")),
         "value_moderated.csv:[Marin]: cell count 4 vs 5"),
        ("value_moderated.csv", _csv_edit(lambda rows: rows[_MARIN].__setitem__(1, "abc")),
         f"value_moderated.csv:[Marin]/coefficient: "
         f"{_CSV_LINES[_MARIN].split(',')[1]!r} vs 'abc'"),
    ], ids=["json-key", "json-list-length", "json-string", "csv-row-dropped",
            "csv-extra-cell", "csv-text-in-number"])
    def test_each_structural_tamper_is_one_line(self, tmp_path, name, edit, line):
        """A key on one side only, a list of another length, a changed string, a
        dropped csv row, an extra csv cell or text in a number cell: one line,
        naming the file and where in it."""
        tree = tmp_path / "edited"
        shutil.copytree(GOLDEN, tree)
        (tree / name).write_text(edit((tree / name).read_text()))
        assert golden_compare(str(GOLDEN), str(tree), rel_tol=1e-12) == [line]

    def test_csv_and_markdown_differences_name_the_cell(self):
        texts = {name: (GOLDEN / name).read_text()
                 for name in ("risk_direct.csv", "correlations.csv", "value_moderated.md")}
        edited = dict(texts)
        edited["risk_direct.csv"] = texts["risk_direct.csv"].replace("\nMarin,", "\nMarin,9", 1)
        lines = texts["correlations.csv"].split("\n")
        lines[4] = lines[4].replace(",0.", ",1.", 1)
        edited["correlations.csv"] = "\n".join(lines)
        edited["value_moderated.md"] = texts["value_moderated.md"].replace("| X |", "| X | 9", 1)
        diff = compare_tables(texts, edited, rel_tol=1e-12)
        a, b = texts["correlations.csv"].split("\n")[4].split(",")[:2]
        assert [line.split(": ")[0] for line in diff] == [
            f"correlations.csv:[{a},{b}]/r", "risk_direct.csv:[Marin]/coefficient",
            "value_moderated.md:line 6"]
