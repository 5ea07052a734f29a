"""End-to-end invariances of ``run``: transformations of the inputs whose effect
on every table is known in advance."""

import csv
import io
import json
import os
import re

import numpy as np
import pytest

from marketpanel import report
from marketpanel.cli import main

INPUTS = ("fundamentals.csv", "prices.csv", "riskfree.csv")


def run_tree(data, out):
    """The files of the one run of ``run --data data --out out``: name -> text."""
    assert main(["run", "--data", str(data), "--out", str(out)]) == 0
    (run_id,) = os.listdir(out)
    return {name: (out / run_id / name).read_text() for name in os.listdir(out / run_id)}


def shuffled_rows(texts):
    """Each file's rows in another order, the header kept first."""
    rng = np.random.default_rng(20)
    out = {}
    for name, text in texts.items():
        header, *rows = text.splitlines()
        order = rng.permutation(len(rows))
        assert (order != np.arange(len(rows))).any()
        out[name] = "\n".join([header] + [rows[i] for i in order]) + "\n"
    return out


def renamed_ids(texts):
    """Firm ids F### renamed G### and market ids M# renamed N#, in every file:
    each id keeps its place in the sort order."""
    out = {name: re.sub(r"\bM(\d+)\b", r"N\1", re.sub(r"\bF(\d{3})\b", r"G\1", text))
           for name, text in texts.items()}
    assert all(out[name] != texts[name] for name in texts)
    return out


@pytest.mark.parametrize("transform", [shuffled_rows, renamed_ids])
def test_input_transformation_moves_no_table_byte(tmp_path, transform):
    """All three CSVs transformed: every table file is byte-identical, and the
    manifest differs only where it records the inputs."""
    data, moved_data = tmp_path / "data", tmp_path / "moved_data"
    assert main(["synth", "--seed", "9", "--out", str(data)]) == 0
    moved_data.mkdir()
    for name, text in transform({name: (data / name).read_text() for name in INPUTS}).items():
        (moved_data / name).write_text(text)

    tree = run_tree(data, tmp_path / "out")
    moved = run_tree(moved_data, tmp_path / "moved")
    manifest = json.loads(tree.pop("manifest.json"))
    moved_manifest = json.loads(moved.pop("manifest.json"))
    assert len(tree) == 33
    assert moved == tree
    recorded = ("inputs", "config_hash", "run_id")
    assert {k: v for k, v in moved_manifest.items() if k not in recorded} == {
        k: v for k, v in manifest.items() if k not in recorded}
    assert all(moved_manifest[k] != manifest[k] for k in recorded)


PER_SHARE = ("price", "book_value", "eps", "book_value_2009")
VALUE_TABLES = ("value_direct", "value_moderated", "robustness_value_assets",
                "robustness_value_log")
UNSCALED_TABLES = ("risk_direct", "risk_moderated", "robustness_risk_assets",
                   "robustness_risk_log", "correlations", "stationarity")
# relative; a p cell's bound is widened as report-diff widens it
SCALING_TOL = 1e-11


def per_share_scaled(text, c):
    """fundamentals.csv with its per-share cells (price, book value, eps and the
    lagged book value where given) multiplied by ``c``."""
    header, *rows = csv.reader(io.StringIO(text))
    columns = [header.index(name) for name in PER_SHARE]
    for row in rows:
        for j in columns:
            if row[j]:
                row[j] = repr(float(row[j]) * c)
    return "".join(",".join(row) + "\n" for row in [header, *rows])


@pytest.fixture(scope="module")
def seed_9(tmp_path_factory):
    """The inputs of synth seed 9 at 20x10 and the tables of their run."""
    tmp = tmp_path_factory.mktemp("seed_9")
    assert main(["synth", "--seed", "9", "--out", str(tmp / "data")]) == 0
    return tmp / "data", run_tree(tmp / "data", tmp / "out")


def assert_close(got, want, what, is_p=False):
    assert report._close(got, want, SCALING_TOL, is_p), (what, got, want)


@pytest.mark.parametrize("c", [1e3, 2**10])
def test_per_share_unit_scales_what_the_model_says(seed_9, tmp_path, c):
    """P, B, eps and the lagged book value all multiplied by c, so X = eps - r*B(t-1)
    is too. In P = C + b_B*B + b_X*X + the per-firm controls, b_B, b_X, every
    statistic and p-value stay; the other coefficients and their SEs scale by c.
    The risk models, the correlations and the stationarity tests do not move, and
    the descriptives of P, B and X scale by c while P/B stays.

    Hausman is left out: its rank tolerance is absolute in the fits' units, so at
    c = 1e5 its df falls from 8 to 6 (ROADMAP item 8)."""
    data, tree = seed_9
    scaled_data = tmp_path / "data"
    scaled_data.mkdir()
    for name in INPUTS:
        text = (data / name).read_text()
        (scaled_data / name).write_text(per_share_scaled(text, c)
                                        if name == "fundamentals.csv" else text)
    scaled = run_tree(scaled_data, tmp_path / "out")

    for name in VALUE_TABLES:
        got, want = json.loads(scaled[f"{name}.json"]), json.loads(tree[f"{name}.json"])
        for got_row, want_row in zip(got["rows"], want["rows"], strict=True):
            assert got_row["variable"] == want_row["variable"]
            scale = 1.0 if want_row["variable"] in ("B", "X") else c
            for key in ("coefficient", "std_error"):
                assert_close(got_row[key], scale * want_row[key], (name, want_row, key))
            assert_close(got_row["prob"], want_row["prob"], (name, want_row), is_p=True)
        for key in ("r_squared", "f_statistic"):
            assert_close(got[key], want[key], (name, key))
        assert_close(got["f_pvalue"], want["f_pvalue"], (name, "f_pvalue"), is_p=True)
        got_lr = got["diagnostics"]["lr_heteroskedasticity"]
        want_lr = want["diagnostics"]["lr_heteroskedasticity"]
        assert_close(got_lr.pop("statistic"), want_lr.pop("statistic"), (name, "LR"))
        assert_close(got_lr.pop("p_value"), want_lr.pop("p_value"), (name, "LR p"), is_p=True)
        assert got_lr == want_lr
        compared = ("rows", "r_squared", "f_statistic", "f_pvalue", "diagnostics",
                    "hausman_decision")
        assert {k: v for k, v in got.items() if k not in compared} == {
            k: v for k, v in want.items() if k not in compared}

    unscaled = [f"{name}.{ext}" for name in UNSCALED_TABLES for ext in ("json", "csv", "md")]
    assert report.compare_tables({n: scaled[n] for n in unscaled},
                                 {n: tree[n] for n in unscaled}, SCALING_TOL) == []

    got, want = (json.loads(t["descriptives.json"])["rows"] for t in (scaled, tree))
    for got_row, want_row in zip(got, want, strict=True):
        assert (got_row["variable"], got_row["n"], got_row["flag"]) == (
            want_row["variable"], want_row["n"], want_row["flag"])
        scale = c if want_row["variable"] in ("P", "B", "X") else 1.0
        for key in ("minimum", "maximum", "mean", "std"):
            assert_close(got_row[key], scale * want_row[key], (want_row, key))
