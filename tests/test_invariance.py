"""End-to-end invariances of ``run``: transformations of the inputs whose effect
on every table is known in advance."""

import json
import os
import re

import numpy as np
import pytest

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
