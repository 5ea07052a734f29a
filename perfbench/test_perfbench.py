"""Tests of the benchmark itself: output check (a), the tracer's call counts,
the metric names in BENCHMARK.json, and the refusal to run without sources."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

# the benchmark's modules sit beside this file, whatever pytest's import mode
sys.path.insert(0, str(Path(__file__).resolve().parent))

import marketpanel  # noqa: E402
import oracle  # noqa: E402
import run as bench  # noqa: E402
import tracing  # noqa: E402
from marketpanel import cli, diagnostics, models, synth  # noqa: E402

PAPER = bench.WORKLOADS["paper_cli_20x10"]


@pytest.fixture(scope="module")
def paper_data(tmp_path_factory):
    data = tmp_path_factory.mktemp("paper") / "data"
    cfg = synth.DGPConfig(seed=9, n_firms=PAPER.n_firms, n_years=PAPER.n_years)
    bench.write_inputs(synth.generate_panel(cfg), data)
    return data


def _operation(data, out):
    return bench.run_operation(bench.InProcessCli(cli), PAPER, data, out)


def test_check_a_rejects_a_nudged_coefficient(paper_data, tmp_path, monkeypatch):
    monkeypatch.chdir(bench.ROOT)
    op = _operation(paper_data, tmp_path / "out")
    expected = oracle.expected_slopes(paper_data)
    assert op.problems == [] and oracle.check_tree(op.tree, expected) == []

    nudged = tmp_path / "nudged"
    shutil.copytree(op.tree, nudged)
    path = nudged / "value_moderated.json"
    table = json.loads(path.read_text())
    row = next(r for r in table["rows"] if r["variable"] == "Marin")
    row["coefficient"] *= 1 + 1e-6
    path.write_text(json.dumps(table))
    failures = oracle.check_tree(nudged, expected)
    assert len(failures) == 1 and failures[0].startswith("value_moderated/Marin:")


def test_within_slopes_equal_explicit_firm_dummies(paper_data):
    codes, columns = oracle.derive_panel(paper_data)
    for dependent, regressors in oracle.BASE_MODELS.values():
        X = np.column_stack([columns[name] for name in regressors])
        np.testing.assert_allclose(oracle.within_slopes(X, columns[dependent], codes),
                                   oracle.dummy_slopes(X, columns[dependent], codes),
                                   rtol=1e-9)


def test_traced_paper_operation_counts(paper_data, tmp_path, monkeypatch):
    monkeypatch.chdir(bench.ROOT)
    original = models.estimate
    tracer = tracing.Tracer(marketpanel)
    tracer.install()
    try:
        # a name imported from another module is wrapped too
        assert models.hausman_test.__wrapped__ is diagnostics.hausman_test.__wrapped__
        op = _operation(paper_data, tmp_path / "out")
    finally:
        tracer.uninstall()
    assert op.problems == []
    assert tracer.calls["models.estimate"] == 8
    assert tracer.calls["regress.fe_fit"] == 16
    assert tracer.calls["regress.within_transform"] == 32
    assert models.estimate is original and models.hausman_test is diagnostics.hausman_test
    assert all(s is not None and s[1] <= s[2] for s in tracer.spans)


def test_benchmark_json_names_what_the_harness_reports():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER_UNITS


def test_refuses_to_run_without_the_program_sources(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", PAPER.name, "--seed", "9",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "no marketpanel sources" in proc.stderr
