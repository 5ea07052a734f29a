"""The committed golden trees: ``run`` on the committed inputs reproduces the
committed tables through ``report.golden_compare`` at 1e-12.

The inputs under ``golden/inputs`` came from an earlier ``marketpanel synth
--seed 9`` at 20 firms x 10 years. They stay committed as fixed inputs, not
regenerated when the generator's bytes move, so that the trees move only with
the pipeline. Two cases are pinned: the inputs as generated
(``golden/balanced``), and an unbalanced panel derived from them here, F001
without its first 12 monthly closes and run with ``--beta-min 60``, which
excludes one beta and leaves 199 rows (``golden/unbalanced``).

A change that moves the tables on purpose regenerates both trees with

    PYTHONPATH=src python tests/test_golden.py

and commits them; ``git diff tests/golden`` is then its table diff. Only
files that move by more than 1e-12 are rewritten, so digits that depend on
the host's BLAS kernel or SIMD path do not churn the trees.
"""

import json
import shutil
import tempfile
from pathlib import Path

import pytest

from marketpanel.cli import main
from marketpanel.errors import SchemaMismatch
from marketpanel.report import compare_tables, golden_compare

GOLDEN = Path(__file__).resolve().parent / "golden"
REL_TOL = 1e-12
# case -> extra run flags, and the (derived rows, beta exclusions) its manifest records
CASES = {"balanced": ([], (200, 0)), "unbalanced": (["--beta-min", "60"], (199, 1))}


def case_inputs(case: str, work: Path) -> Path:
    """The input directory of ``case``; the unbalanced one is derived under ``work``."""
    if case == "balanced":
        return GOLDEN / "inputs"
    data = work / f"{case}-inputs"
    shutil.copytree(GOLDEN / "inputs", data)
    lines = (data / "prices.csv").read_text().split("\n")
    dropped = [i for i, line in enumerate(lines) if line.startswith("F001,")][:12]
    (data / "prices.csv").write_text(
        "\n".join(line for i, line in enumerate(lines) if i not in dropped))
    return data


def run_case(case: str, work: Path) -> Path:
    """The run tree of ``case``, written under ``work``."""
    out = work / f"{case}-out"
    flags, _ = CASES[case]
    assert main(["run", "--data", str(case_inputs(case, work)), "--out", str(out),
                 "--run-id", case, *flags]) == 0
    return out / case


@pytest.mark.parametrize("case", CASES)
def test_run_reproduces_the_golden_tables(case, tmp_path):
    tree = run_case(case, tmp_path)
    manifest = json.loads((tree / "manifest.json").read_text())
    assert (manifest["n_derived_rows"], manifest["beta_exclusions"]) == CASES[case][1]
    assert golden_compare(str(GOLDEN / case), str(tree), rel_tol=REL_TOL) == []


def moved(name: str, old: str, new: str) -> bool:
    """Whether table file ``name`` moved from ``old`` to ``new`` beyond REL_TOL."""
    try:
        return bool(compare_tables({name: old}, {name: new}, REL_TOL))
    except SchemaMismatch:
        return True


def regenerate(root: Path = GOLDEN) -> None:
    """Bring the trees under ``root`` to a fresh ``run`` of each case: rewrite
    the files that moved beyond REL_TOL, delete those no longer emitted and
    add new ones; every other file keeps its bytes."""
    work = Path(tempfile.mkdtemp())
    try:
        for case in CASES:
            tree, golden = run_case(case, work), root / case
            emitted = {p.name: p for p in tree.iterdir() if p.name != "manifest.json"}
            golden.mkdir(exist_ok=True)
            for path in golden.iterdir():
                if path.name not in emitted:
                    path.unlink()
            for name, path in emitted.items():
                kept = golden / name
                if not kept.exists() or moved(name, kept.read_text(), path.read_text()):
                    shutil.copyfile(path, kept)
    finally:
        shutil.rmtree(work)


def test_regeneration_rewrites_only_what_moved(tmp_path):
    root = tmp_path / "golden"
    for case in CASES:
        shutil.copytree(GOLDEN / case, root / case)
    table = root / "balanced" / "value_direct.json"
    payload = json.loads(table.read_text())
    payload["diagnostics"]["hausman"]["statistic"] += 1.0
    table.write_text(json.dumps(payload))
    (root / "unbalanced" / "descriptives.md").unlink()
    (root / "unbalanced" / "old_table.csv").write_text("x\n1\n")

    regenerate(root)
    for case in CASES:
        assert sorted(p.name for p in (root / case).iterdir()) == sorted(
            p.name for p in (GOLDEN / case).iterdir())
        for path in (GOLDEN / case).iterdir():
            if (case, path.name) != ("balanced", "value_direct.json"):
                assert (root / case / path.name).read_bytes() == path.read_bytes(), path
        assert golden_compare(str(GOLDEN / case), str(root / case), rel_tol=REL_TOL) == []


if __name__ == "__main__":
    regenerate()
