"""The committed golden trees: ``run`` on the committed inputs reproduces the
committed tables through ``report.golden_compare`` at 1e-12.

The inputs under ``golden/inputs`` are ``marketpanel synth --seed 9`` at 20
firms x 10 years, committed so that the trees do not move with the random
generator's library. Two cases are pinned: the inputs as generated
(``golden/balanced``), and an unbalanced panel derived from them here, F001
without its first 12 monthly closes and run with ``--beta-min 60``, which
excludes one beta and leaves 199 rows (``golden/unbalanced``).

A change that moves the tables on purpose regenerates both trees with

    PYTHONPATH=src python tests/test_golden.py

and commits them; ``git diff tests/golden`` is then its table diff.
"""

import json
import shutil
import tempfile
from pathlib import Path

import pytest

from marketpanel.cli import main
from marketpanel.report import golden_compare

GOLDEN = Path(__file__).resolve().parent / "golden"
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
    assert golden_compare(str(GOLDEN / case), str(tree), rel_tol=1e-12) == []


def regenerate() -> None:
    """Rewrite both golden trees from a fresh ``run`` of each case."""
    work = Path(tempfile.mkdtemp())
    try:
        for case in CASES:
            tree = run_case(case, work)
            shutil.rmtree(GOLDEN / case, ignore_errors=True)
            shutil.copytree(tree, GOLDEN / case, ignore=shutil.ignore_patterns("manifest.json"))
    finally:
        shutil.rmtree(work)


if __name__ == "__main__":
    regenerate()
