"""Sampled mutation pass over one module of the package (not collected by pytest).

    python tests/mutate.py MODULE[.FUNCTION] N SEED [TEST ...]

Sites are taken in ``ast.walk`` order over the module, or over one of its
top-level functions: each ``BinOp`` with + - * / (swapped to - + / *), each
single-operator ``Compare`` with < <= > >= (swapped to <= < >= >), and each
int or float ``Constant`` (an int becomes value + 1, a float doubles, and 0.0
becomes 1e-300). ``random.Random(SEED).sample(range(len(sites)), N)`` picks N
sites. Each mutant is the ``ast.unparse`` of the module with one site changed,
written into a copy of ``src/`` and ``tests/`` in a temporary directory (the
checkout is not touched) and run with ``pytest -x --hypothesis-seed=0`` on the
TEST files, by default the thirteen files of :data:`TESTS`. The unmutated,
unparsed module must pass them first.

One line per mutant gives its pick number, ``file:line``, the change, the
verdict (``killed``, ``timeout`` or ``survived``) and the original source line;
a last line counts the verdicts. A survivor is a test gap, dead code, or an
equivalent mutant, which only reading the code can tell apart.
"""

import ast
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "marketpanel"
TESTS = tuple(f"tests/test_{name}.py" for name in (
    "regress", "models", "diagnostics", "golden", "acceptance", "invariance",
    "segment_reductions", "tall_qr", "columnar_stationarity", "pvalue_kernels", "report",
    "cli", "variables"))
_SWAP = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
         ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt}
_SYMBOL = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/",
           ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">="}


class Site(NamedTuple):
    """One mutable node: its place in the site list, its line, and the change."""

    index: int
    line: int
    change: str


def _bumped(value):
    if type(value) is int:
        return value + 1
    return 2.0 * value if value else 1e-300


def _nodes(tree: ast.Module, function: str | None) -> list[ast.AST]:
    if function is not None:
        tree = next(node for node in tree.body
                    if isinstance(node, ast.FunctionDef) and node.name == function)
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and type(node.op) in _SWAP:
            out.append(node)
        elif (isinstance(node, ast.Compare) and len(node.ops) == 1
              and type(node.ops[0]) in _SWAP):
            out.append(node)
        elif isinstance(node, ast.Constant) and type(node.value) in (int, float):
            out.append(node)
    return out


def _parse(target: str) -> tuple[Path, ast.Module, list[ast.AST]]:
    module, _, function = target.partition(".")
    path = PACKAGE / f"{module}.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return path, tree, _nodes(tree, function or None)


def _change(node: ast.AST) -> str:
    if isinstance(node, ast.Constant):
        return f"{node.value!r} -> {_bumped(node.value)!r}"
    op = type(node.op) if isinstance(node, ast.BinOp) else type(node.ops[0])
    return f"{_SYMBOL[op]} -> {_SYMBOL[_SWAP[op]]}"


def sites(target: str) -> list[Site]:
    """Every mutable site of ``target`` (``module`` or ``module.function``), in walk order."""
    return [Site(i, node.lineno, _change(node)) for i, node in enumerate(_parse(target)[2])]


def sample(target: str, n: int, seed: int) -> list[Site]:
    """The ``n`` sites that ``seed`` picks, in pick order."""
    every = sites(target)
    return [every[i] for i in random.Random(seed).sample(range(len(every)), n)]


def mutant(target: str, index: int | None) -> tuple[Path, str]:
    """The module's path and its source unparsed with site ``index`` changed
    (``None``: unchanged)."""
    path, tree, nodes = _parse(target)
    if index is not None:
        node = nodes[index]
        if isinstance(node, ast.Constant):
            node.value = _bumped(node.value)
        elif isinstance(node, ast.BinOp):
            node.op = _SWAP[type(node.op)]()
        else:
            node.ops = [_SWAP[type(node.ops[0])]()]
    return path, ast.unparse(tree) + "\n"


def copy_checkout(dst: Path) -> None:
    """``src/``, ``tests/`` and ``pyproject.toml`` into ``dst``, without caches."""
    ignore = shutil.ignore_patterns("__pycache__", "*.egg-info")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dst / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dst / "pyproject.toml")


def run_tests(root: Path, tests, timeout: float | None = None) -> str:
    """Run ``tests`` in the copy at ``root``: "passed", "killed" or "timeout"."""
    shutil.rmtree(root / ".hypothesis", ignore_errors=True)
    # no bytecode: a mutant of the same size written within a second of the
    # last would otherwise run the last one's cached code
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           "--hypothesis-seed=0", *tests]
    with subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL, start_new_session=True) as proc:
        try:
            code = proc.wait(timeout)
        except subprocess.TimeoutExpired:
            code = None
        finally:   # on a timeout or an interrupt, end the tests' whole process group
            if proc.returncode is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
    return "timeout" if code is None else "passed" if code == 0 else "killed"


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) < 3:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    target, n, seed, tests = args[0], int(args[1]), int(args[2]), args[3:] or TESTS
    picks = sample(target, n, seed)
    lines = _parse(target)[0].read_text(encoding="utf-8").splitlines()
    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        root = Path(tmp)
        copy_checkout(root)
        path, source = mutant(target, None)
        copy = root / path.relative_to(ROOT)
        copy.write_text(source, encoding="utf-8")
        start = time.perf_counter()
        if run_tests(root, tests) != "passed":
            print(f"{target}: the unmutated module fails the tests", file=sys.stderr)
            return 2
        timeout = 3 * (time.perf_counter() - start) + 30
        counts = {"killed": 0, "timeout": 0, "survived": 0}
        for k, site in enumerate(picks, start=1):
            copy.write_text(mutant(target, site.index)[1], encoding="utf-8")
            verdict = run_tests(root, tests, timeout)
            verdict = "survived" if verdict == "passed" else verdict
            counts[verdict] += 1
            print(f"{k:3d}/{n}  {path.name}:{site.line}  site {site.index}  {site.change}  "
                  f"{verdict}  {lines[site.line - 1].strip()}", flush=True)
    print(f"{target}: {n} of {len(sites(target))} sites, seed {seed}: "
          + ", ".join(f"{v} {k}" for k, v in counts.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
