"""Tests for table emission and golden comparison."""

import json
import os
import shutil
import struct
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from marketpanel import diagnostics, models, synth, variables
from marketpanel.errors import SchemaMismatch
from marketpanel.report import ReportBundle, compare_tables, emit, golden_compare

# the committed seed-9 tree that tests/test_golden.py pins
GOLDEN = Path(__file__).resolve().parent / "golden" / "balanced"


@pytest.fixture(scope="module")
def bundle():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = synth.generate_panel(synth.DGPConfig(seed=3))
        panel = variables.derive_all(result.dataset, result.truth.betas_true)
        desc_cols = variables.panel_columns(panel, variables.DESCRIPTIVES_ORDER)
        corr_cols = variables.panel_columns(panel, variables.CORRELATION_ORDER)
        stationarity = diagnostics.panel_stationarity(
            variables.panel_columns(panel, variables.STATIONARITY_ORDER), panel.codes)
        estimates = [models.estimate(panel, models.spec_for(m)) for m in models.MODEL_IDS]
        estimates += models.robustness_suite(panel)
    return ReportBundle(
        descriptives_table=diagnostics.descriptives(desc_cols),
        correlation_table=diagnostics.correlation_matrix(corr_cols),
        stationarity_table=stationarity,
        estimates=estimates,
        metadata={"run_id": "test", "config_hash": "0" * 64, "timestamp": None})


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


class TestComparisonRule:
    def test_argument_order_does_not_matter(self):
        one, two = _table_texts([(1.0, 0.5)]), _table_texts([(2.0, 0.5)])
        assert compare_tables(one, two, 0.6) == [] and compare_tables(two, one, 0.6) == []
        assert compare_tables(one, two, 0.4) != []
        assert compare_tables(two, one, 0.4) != []

    @given(st.lists(st.tuples(_CELL, _CELL), min_size=1, max_size=4),
           st.sampled_from([0.0, 1e-12, 1e-6, 0.6, 2.0]))
    def test_swapping_the_trees_never_changes_the_result(self, pairs, rel_tol):
        a, b = _table_texts([pa for pa, _ in pairs]), _table_texts([pb for _, pb in pairs])
        forward, backward = compare_tables(a, b, rel_tol), compare_tables(b, a, rel_tol)
        assert len(forward) == len(backward)

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
