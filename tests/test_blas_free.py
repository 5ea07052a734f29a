"""The betas, the generator and the descriptive, correlation and unit-root
diagnostics sum with numpy's own reductions: none of them reaches BLAS, so no
OpenBLAS kernel moves their bytes (README, "Determinism")."""

import ast
import inspect

import pytest

from marketpanel import beta, diagnostics, synth

# a matrix product, numpy's BLAS-backed names and the whole of np.linalg
BLAS_NAMES = {"matmul", "dot", "inner", "einsum", "corrcoef", "cov", "linalg"}

DIAGNOSTICS = ("descriptives", "correlation_matrix", "panel_stationarity", "_harris_tzavalis",
               "_lag0_adf_stats", "_fisher_combination")


def blas_uses(tree):
    """Each ``@``, and each BLAS name read as an attribute or imported, with its line."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(("@", node.lineno))
        elif isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES:
            found.append((node.attr, node.lineno))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
            found += [(alias.name, node.lineno) for alias in node.names
                      if alias.name in BLAS_NAMES or "linalg" in node.module]
        elif isinstance(node, ast.Import):
            found += [(alias.name, node.lineno) for alias in node.names
                      if "linalg" in alias.name]
    return found


@pytest.mark.parametrize("source", [
    *(inspect.getsource(module) for module in (beta, synth)),
    *(inspect.getsource(getattr(diagnostics, name)) for name in DIAGNOSTICS)],
    ids=["beta.py", "synth.py", *DIAGNOSTICS])
def test_no_blas_call(source):
    assert blas_uses(ast.parse(source)) == []


@pytest.mark.parametrize("code", ["a @ b", "a @= b", "np.dot(a, b)", "a.dot(b)",
                                  "np.corrcoef(a, b)", "np.linalg.norm(a)",
                                  "from numpy.linalg import norm", "import numpy.linalg",
                                  "from numpy import einsum"])
def test_each_blas_use_is_found(code):
    assert blas_uses(ast.parse(code))
