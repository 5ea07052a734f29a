"""Tests for table emission and golden comparison."""

import json
import os
import struct
import warnings

import numpy as np
import pytest

from marketpanel import diagnostics, models, synth, variables
from marketpanel.errors import SchemaMismatch
from marketpanel.report import ReportBundle, emit, golden_compare, write_manifest


@pytest.fixture(scope="module")
def bundle():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = synth.generate_panel(synth.DGPConfig(seed=3))
        panel = variables.derive_all(result.dataset, result.truth.betas_true)
        desc_cols = variables.panel_columns(panel, variables.DESCRIPTIVES_ORDER)
        corr_cols = variables.panel_columns(panel, variables.CORRELATION_ORDER)
        stationarity = diagnostics.panel_stationarity(
            variables.panel_columns(panel, variables.STATIONARITY_ORDER), panel.codes.firm)
        estimation = [models.estimate(panel, models.spec_for(m))
                      for m in models.MODEL_IDS]
        robustness = models.robustness_suite(panel)
    return ReportBundle(
        descriptives_table=diagnostics.descriptives(desc_cols),
        correlation_table=diagnostics.correlation_matrix(corr_cols,
                                                         variables.CORRELATION_ORDER),
        stationarity_table=stationarity,
        estimation_tables=estimation,
        robustness_tables=robustness,
        metadata={"run_id": "test", "config_hash": "0" * 64, "timestamp": None})


def emit_all(bundle, path):
    files = []
    for fmt in ("json", "csv", "markdown"):
        files += emit(bundle, fmt, str(path))
    write_manifest(bundle, str(path))
    return files


def md_table_rows(text):
    rows = []
    for line in text.splitlines():
        if line.startswith("|") and not set(line) <= {"|", "-", " "}:
            cells = [c.strip() for c in line.strip("|").split("|")]
            rows.append(cells[0])
    return rows[1:]  # drop the header row


class TestEmit:
    def test_file_set(self, bundle, tmp_path):
        emit_all(bundle, tmp_path)
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
        emit_all(bundle, tmp_path)
        paired = "| Variable | Direct Model Coefficient | Direct Model Prob. |"
        for stem in ("value_moderated", "risk_moderated", "robustness_value_assets",
                     "robustness_value_log", "robustness_risk_assets",
                     "robustness_risk_log"):
            assert (tmp_path / f"{stem}.md").read_text().splitlines()[2].startswith(paired)
        for stem in ("value_direct", "risk_direct"):
            assert (tmp_path / f"{stem}.md").read_text().splitlines()[2] == \
                "| Variable | Coefficient | Prob. |"

    def test_value_table_rows_match_layout(self, bundle, tmp_path):
        """The value-model table carries exactly the published row set."""
        emit_all(bundle, tmp_path)
        text = (tmp_path / "value_moderated.md").read_text()
        rows = md_table_rows(text)
        assert rows == ["C", "X", "Marin", "AGE", "Size", "Lev", "OW",
                        "OW*Marin", "R-squared"]

    def test_risk_table_rows_match_layout(self, bundle, tmp_path):
        emit_all(bundle, tmp_path)
        rows = md_table_rows((tmp_path / "risk_moderated.md").read_text())
        assert rows == ["C", "Marin", "AGE", "SIZ", "LEVR", "OW", "OW*Marin",
                        "R-squared"]

    def test_json_and_csv_numbers_identical(self, bundle, tmp_path):
        emit_all(bundle, tmp_path)
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
        emit_all(bundle, a)
        emit_all(bundle, b)
        for name in os.listdir(a):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_robustness_reports_labeled(self, bundle, tmp_path):
        emit_all(bundle, tmp_path)
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
        emit_all(bundle, tmp_path)
        text = (tmp_path / "descriptives.md").read_text()
        data_line = [l for l in text.splitlines() if l.startswith("| P ")][0]
        cells = [c.strip() for c in data_line.strip("|").split("|")][2:]
        for cell in cells:
            assert len(cell.split(".")[1]) == 4


class TestGoldenCompare:
    def test_identical_sets_empty_diff(self, bundle, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        emit_all(bundle, a)
        emit_all(bundle, b)
        diff = golden_compare(str(a), str(b), rel_tol=0.0)
        assert diff.passed
        assert diff.lines == []

    def test_single_perturbed_cell_single_diff(self, bundle, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        emit_all(bundle, a)
        emit_all(bundle, b)
        path = b / "value_direct.json"
        payload = json.loads(path.read_text())
        payload["rows"][1]["coefficient"] *= 1.5
        path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")
        diff = golden_compare(str(a), str(b), rel_tol=0.1)
        assert not diff.passed
        assert len(diff.lines) == 1
        assert "value_direct.json" in diff.lines[0]
        assert "coefficient" in diff.lines[0]

    def test_tolerance_respected(self, bundle, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        emit_all(bundle, a)
        emit_all(bundle, b)
        path = b / "descriptives.json"
        payload = json.loads(path.read_text())
        payload["rows"][0]["mean"] *= 1.0 + 1e-9
        path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")
        assert golden_compare(str(a), str(b), rel_tol=1e-6).passed
        assert not golden_compare(str(a), str(b), rel_tol=1e-12).passed

    def test_schema_version_mismatch(self, bundle, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        emit_all(bundle, a)
        emit_all(bundle, b)
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
        emit_all(bundle, a)
        emit_all(bundle, b)
        os.remove(b / "stationarity.csv")
        diff = golden_compare(str(a), str(b))
        assert not diff.passed
        assert any("stationarity.csv" in line for line in diff.lines)
