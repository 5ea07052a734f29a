"""End-to-end invariances of ``run``: transformations of the inputs whose effect
on every table is known in advance."""

import csv
import io
import json
import math
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
MONEY = ("sga", "rd", "sales", "total_assets", "total_equity")
VALUE_TABLES = ("value_direct", "value_moderated", "robustness_value_assets",
                "robustness_value_log")
RISK_TABLES = ("risk_direct", "risk_moderated", "robustness_risk_assets",
               "robustness_risk_log")
UNSCALED_TABLES = RISK_TABLES + ("correlations", "stationarity")
# relative; a p cell's bound is widened as report-diff widens it
SCALING_TOL = 1e-11


def scaled_run(data, out, columns, c):
    """The run tree of ``data`` with the fundamentals.csv cells of ``columns``
    multiplied by ``c`` where given; the scaled inputs are written under ``out``."""
    (out / "data").mkdir()
    for name in INPUTS:
        text = (data / name).read_text()
        if name == "fundamentals.csv":
            header, *rows = csv.reader(io.StringIO(text))
            for row in rows:
                for j in map(header.index, columns):
                    if row[j]:
                        row[j] = repr(float(row[j]) * c)
            text = "".join(",".join(row) + "\n" for row in [header, *rows])
        (out / "data" / name).write_text(text)
    return run_tree(out / "data", out / "out")


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
    scaled = scaled_run(data, tmp_path, PER_SHARE, c)

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


def test_money_unit_shifts_what_the_model_says(seed_9, tmp_path):
    """SG&A, R&D, sales, total assets and total equity all multiplied by c = 1e3.
    Marin, MarinAssets and Lev are ratios and stay; Size = ln(total assets) and, in
    the log tables, Marin = ln(SG&A - R&D) move by ln c. The firm effects absorb a
    shift, so every slope with its SE and p, R², F, LR and Hausman stay, and the
    average effect C = ybar - xbar'b moves by -ln c (b_Size + b_Marin), b_Marin in
    the log tables only. There OW*Marin moves by ln c * OW, so OW moves by
    -ln c * b_OW*Marin. The SE and p of a moved coefficient are left out: the
    xbar behind them moves. The correlations and the stationarity tests do not
    move, and of the descriptives only TotalAssets does, scaled by c."""
    c = 1e3
    data, tree = seed_9
    scaled = scaled_run(data, tmp_path, MONEY, c)

    for name in VALUE_TABLES + RISK_TABLES:
        got, want = json.loads(scaled[f"{name}.json"]), json.loads(tree[f"{name}.json"])
        slope = {row["variable"]: row["coefficient"] for row in want["rows"]}
        shift = {"C": -math.log(c) * slope["Size"]}
        if name.endswith("_log"):
            shift = {"C": -math.log(c) * (slope["Size"] + slope["Marin"]),
                     "OW": -math.log(c) * slope["OW*Marin"]}
        for got_row, want_row in zip(got["rows"], want["rows"], strict=True):
            if want_row["variable"] in shift:
                want_row["coefficient"] += shift[want_row["variable"]]
                got_row.update(std_error=want_row["std_error"], prob=want_row["prob"])
        # every other cell at SCALING_TOL, Hausman at compare_tables' wider bound
        file = f"{name}.json"
        assert report.compare_tables({file: json.dumps(got)}, {file: json.dumps(want)},
                                     SCALING_TOL) == []

    unscaled = [f"{name}.{ext}" for name in ("correlations", "stationarity")
                for ext in ("json", "csv", "md")]
    assert report.compare_tables({n: scaled[n] for n in unscaled},
                                 {n: tree[n] for n in unscaled}, SCALING_TOL) == []

    got, want = (json.loads(t["descriptives.json"])["rows"] for t in (scaled, tree))
    for got_row, want_row in zip(got, want, strict=True):
        assert (got_row["variable"], got_row["n"], got_row["flag"]) == (
            want_row["variable"], want_row["n"], want_row["flag"])
        scale = c if want_row["variable"] == "TotalAssets" else 1.0
        for key in ("minimum", "maximum", "mean", "std"):
            assert_close(got_row[key], scale * want_row[key], (want_row, key))
