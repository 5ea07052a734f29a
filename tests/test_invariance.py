"""End-to-end invariances of ``run``: transformations of the inputs whose effect
on every table is known in advance."""

import json
import os

import numpy as np

from marketpanel.cli import main

INPUTS = ("fundamentals.csv", "prices.csv", "riskfree.csv")


def run_tree(data, out):
    """The files of the one run of ``run --data data --out out``: name -> text."""
    assert main(["run", "--data", str(data), "--out", str(out)]) == 0
    (run_id,) = os.listdir(out)
    return {name: (out / run_id / name).read_text() for name in os.listdir(out / run_id)}


def test_row_order_moves_no_table_byte(tmp_path):
    """Shuffled rows in all three CSVs, the header kept first: every table file is
    byte-identical, and the manifest differs only where it records the inputs."""
    data, shuffled = tmp_path / "data", tmp_path / "shuffled"
    assert main(["synth", "--seed", "9", "--out", str(data)]) == 0
    shuffled.mkdir()
    rng = np.random.default_rng(20)
    for name in INPUTS:
        header, *rows = (data / name).read_text().splitlines()
        order = rng.permutation(len(rows))
        assert (order != np.arange(len(rows))).any()
        (shuffled / name).write_text("\n".join([header] + [rows[i] for i in order]) + "\n")

    tree = run_tree(data, tmp_path / "out")
    moved = run_tree(shuffled, tmp_path / "moved")
    manifest = json.loads(tree.pop("manifest.json"))
    moved_manifest = json.loads(moved.pop("manifest.json"))
    assert len(tree) == 33
    assert moved == tree
    recorded = ("inputs", "config_hash", "run_id")
    assert {k: v for k, v in moved_manifest.items() if k not in recorded} == {
        k: v for k, v in manifest.items() if k not in recorded}
    assert all(moved_manifest[k] != manifest[k] for k in recorded)
