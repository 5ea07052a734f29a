"""The blocked least-squares kernel: ``regress._tall_r`` and the one pivoted
Householder pass on the tall factor's triangle built on it.

``reference_pivoted_qr`` is the full-matrix factorization the package used
before: ``scipy.linalg.qr(values, pivoting=True)`` on all n rows with the rank
tolerance 1e-10 ||X||_F. The blocked kernel must reproduce its pivot order,
rank and ``RankDeficient`` names, and the package's own pivoted QR
(``_kernels._pivoted_qr``) must pick the pivots, rank and |diag R| that
LAPACK's does. ``_tall_r`` is the solve's only LAPACK QR. The shape guard
checks that no QR or norm call of an estimate sees all n rows, that only
k x k arrays reach the kernels, and that the unit-root battery factors
nothing.
"""

import types
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from marketpanel import _kernels, diagnostics, models, regress, variables
from marketpanel.errors import RankDeficient
from marketpanel.panel_core import PanelCodes

from conftest import derived_column_names, firm_codes

PROPERTY = settings(max_examples=100, deadline=None)
SCIPY_QR = scipy.linalg.qr


def block_rows(k):
    return max(2 * k, regress._BLOCK_ELEMENTS // k)


def reference_pivoted_qr(values, y, names):
    """Pivot order, rank, dependent names, and (beta, xtx_inv) when of full rank,
    from the full-matrix pivoted QR."""
    q, r, piv = SCIPY_QR(values, mode="economic", pivoting=True)
    tol = regress.RANK_TOL_FACTOR * np.linalg.norm(values)
    rank = int(np.sum(np.abs(np.diag(r)) > tol))
    solution = None
    if rank == len(names):
        beta, r_inv = np.empty(rank), scipy.linalg.solve_triangular(r, np.eye(rank))
        beta[piv] = scipy.linalg.solve_triangular(r, q.T @ y)
        xtx_inv = np.empty((rank, rank))
        xtx_inv[np.ix_(piv, piv)] = r_inv @ r_inv.T
        solution = beta, xtx_inv
    return piv.tolist(), rank, tuple(names[j] for j in piv[rank:]), solution


def signed_rows(r):
    """``r`` with each row scaled so its diagonal entry is non-negative."""
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return signs[:, None] * r


@st.composite
def tall_matrices(draw):
    k = draw(st.integers(1, 45))
    rows = block_rows(k)
    blocks = draw(st.integers(0, 3))
    n = max(1, blocks * rows + draw(st.integers(0, rows - 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scales = 10.0 ** rng.uniform(-3, 3, size=k)
    return rng.standard_normal((n, k)) * scales


@PROPERTY
@given(tall_matrices())
def test_tall_r_equals_the_full_r_up_to_row_signs(a):
    r = regress._tall_r(a)
    full = np.linalg.qr(a, mode="r")
    assert r.shape == full.shape
    assert np.all(np.tril(r, -1) == 0.0)
    assert np.max(np.abs(signed_rows(r) - signed_rows(full))) <= 1e-12 * np.linalg.norm(a)


@st.composite
def collinear_designs(draw):
    """A random design, optionally with an exactly dependent and a near-collinear column."""
    k = draw(st.integers(2, 9))
    n = draw(st.sampled_from([k + 3, 60, block_rows(k + 3) + 7, 3 * block_rows(k + 3) + 11]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.standard_normal((n, k)) * 10.0 ** rng.uniform(-2, 2, size=k)
    extra = []
    if draw(st.booleans()):
        i, j = rng.choice(k, size=2, replace=False)
        # unequal weights: equal ones would tie the residual norms of columns i and j
        extra.append(2.0 * values[:, i] - 0.5 * values[:, j])
    if draw(st.booleans()):
        i = int(rng.integers(k))
        extra.append(values[:, i] + 1e-6 * np.abs(values[:, i]).max() * rng.standard_normal(n))
    if extra:
        values = np.column_stack([values] + extra)
        order = rng.permutation(values.shape[1])
        values = values[:, order]
    y = values @ rng.standard_normal(values.shape[1]) + rng.standard_normal(n)
    return values, y, tuple(f"x{j}" for j in range(values.shape[1]))


@PROPERTY
@given(collinear_designs())
def test_pivoted_qr_solve_keeps_the_full_matrix_rank_decisions(design):
    values, y, names = design
    piv_ref, rank_ref, dependent_ref, solution = reference_pivoted_qr(values, y, names)

    seen = []
    kernel_qr = _kernels._pivoted_qr

    def recording_qr(*args):
        out = kernel_qr(*args)
        seen.append(out[0].tolist())
        return out

    with mock.patch.object(_kernels, "_pivoted_qr", recording_qr):
        try:
            beta, xtx_inv = regress._pivoted_qr_solve(values, y, names)
            dependent = ()
        except RankDeficient as exc:
            dependent = exc.columns
    assert seen == [piv_ref]
    assert dependent == dependent_ref
    assert (rank_ref == len(names)) == (not dependent)
    if solution is not None:
        for have, want in zip((beta, xtx_inv), solution):
            assert np.allclose(have, want, rtol=1e-6, atol=1e-9 * np.abs(want).max())


def rank_and_pivots(r, piv, scale):
    rank = int(np.sum(np.abs(np.diag(r)) > regress.RANK_TOL_FACTOR * scale))
    return rank, list(piv)


@PROPERTY
@given(collinear_designs())
def test_pivoted_qr_kernel_picks_lapacks_pivots_and_rank(design):
    """On the full design and on the triangle the fits hand it, the kernel's
    pivot order, rank and |diag R| are those of
    ``scipy.linalg.qr(pivoting=True)``; its R is exactly upper triangular and
    its reflections keep the norm of the right-hand side."""
    values, y, _ = design
    k = values.shape[1]
    r_xy = regress._tall_r(np.column_stack([values, y]))
    for a, b in ((values, y), (r_xy[:k, :k], r_xy[:k, k])):
        piv, r, qtb = _kernels._pivoted_qr(a, b)
        _, r_ref, piv_ref = SCIPY_QR(a, mode="economic", pivoting=True)
        scale = np.linalg.norm(a)
        assert rank_and_pivots(r, piv, scale) == rank_and_pivots(r_ref, piv_ref, scale)
        assert np.all(np.tril(r, -1) == 0.0)
        diag, diag_ref = np.abs(np.diag(r)), np.abs(np.diag(r_ref))
        assert np.max(np.abs(diag - diag_ref)) <= 1e-12 * scale
        assert np.isclose(np.linalg.norm(qtb), np.linalg.norm(b), rtol=1e-12, atol=0.0)


def test_pivoted_qr_solve_factors_with_lapack_only_in_tall_r(monkeypatch):
    """The pivoted pass on the triangle is the package's own: with ``_tall_r``
    stubbed, the solve makes no ``np.linalg.qr`` call."""
    rng = np.random.default_rng(5)
    values, y = rng.standard_normal((40, 4)), rng.standard_normal(40)
    r_xy = regress._tall_r(np.column_stack([values, y]))
    tall_calls, qr_calls = [], []
    qr = np.linalg.qr

    def counting_qr(*args, **kwargs):
        qr_calls.append(np.shape(args[0]))
        return qr(*args, **kwargs)

    monkeypatch.setattr(regress, "_tall_r", lambda a: tall_calls.append(a.shape) or r_xy)
    monkeypatch.setattr(np.linalg, "qr", counting_qr)
    beta, _ = regress._pivoted_qr_solve(values, y, ("a", "b", "c", "d"))
    assert tall_calls == [(40, 5)]
    assert qr_calls == []
    assert np.allclose(beta, np.linalg.lstsq(values, y, rcond=None)[0], rtol=1e-12, atol=0.0)


def test_solve_upper_inverts_a_triangle():
    rng = np.random.default_rng(3)
    for k in (1, 2, 5, 9):
        r = np.triu(rng.standard_normal((k, k))) + 3.0 * np.eye(k)
        b = rng.standard_normal(k)
        assert np.allclose(_kernels._solve_upper(r, b),
                           scipy.linalg.solve_triangular(r, b), rtol=1e-13, atol=1e-14)
        assert np.allclose(_kernels._solve_upper(r, np.eye(k)),
                           scipy.linalg.lapack.dtrtri(r)[0], rtol=1e-13, atol=1e-14)


# --- shape guard ----------------------------------------------------------------------

N_FIRMS, N_YEARS = 1000, 10


class ShapeSpy:
    """Stands in for a module and records the shape of every array its functions get."""

    def __init__(self, module, shapes):
        self._module, self._shapes = module, shapes

    def __getattr__(self, name):
        attr = getattr(self._module, name)
        if isinstance(attr, types.ModuleType):
            return ShapeSpy(attr, self._shapes)

        def call(*args, **kwargs):
            self._shapes.extend(np.shape(a) for a in (*args, *kwargs.values())
                                if isinstance(a, np.ndarray))
            return attr(*args, **kwargs)
        return call


@pytest.fixture
def linalg_shapes(monkeypatch):
    """Shapes passed to np.linalg.qr, np.linalg.norm and regress's kernels."""
    shapes = {"qr": [], "norm": [], "kernels": []}
    for name in ("qr", "norm"):
        original = getattr(np.linalg, name)

        def spy(a, *args, _original=original, _name=name, **kwargs):
            shapes[_name].append(np.shape(a))
            return _original(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, spy)
    monkeypatch.setattr(regress, "_kernels", ShapeSpy(_kernels, shapes["kernels"]))
    return shapes


def wide_panel(seed=0):
    rng = np.random.default_rng(seed)
    firm = np.repeat(np.arange(N_FIRMS), N_YEARS)
    years = np.tile(np.arange(2010, 2010 + N_YEARS), N_FIRMS)
    codes = PanelCodes.from_codes([f"F{i:04d}" for i in range(N_FIRMS)], firm, years)
    columns = {name: rng.standard_normal(len(firm)) for name in derived_column_names()}
    columns["P"] = columns["X"] + 0.5 * columns["B"] + rng.standard_normal(len(firm))
    return variables.DerivedPanel(codes=codes, columns=columns, exclusions=[], notes=[])


def assert_blocked_qr(shapes):
    assert shapes, "no QR ran"
    assert any(len(s) == 3 for s in shapes), "the multi-block path did not run"
    assert max(s[-2] * s[-1] for s in shapes) <= regress._BLOCK_ELEMENTS


def test_estimate_factors_no_call_over_all_rows(linalg_shapes):
    panel = wide_panel()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = models.estimate(panel, models.spec_for("value_moderated"))
    k = len(report.fit.column_names)
    assert report.fit.nobs == N_FIRMS * N_YEARS
    assert_blocked_qr(linalg_shapes["qr"])
    assert linalg_shapes["kernels"]
    assert all(max(s) <= k for s in linalg_shapes["kernels"]), linalg_shapes["kernels"]
    assert all(s[0] <= k for s in linalg_shapes["norm"]), linalg_shapes["norm"]


def test_stationarity_factors_no_call_over_all_rows(linalg_shapes):
    rng = np.random.default_rng(1)
    walk = np.cumsum(rng.standard_normal(N_FIRMS * N_YEARS))
    firm = np.repeat(np.arange(N_FIRMS), N_YEARS)
    (row,) = diagnostics.panel_stationarity({"P": walk}, firm_codes(firm))
    assert row.difference is not None   # both the level and the difference test ran
    # the Harris-Tzavalis tests and the Fisher combination use segment sums only
    assert linalg_shapes == {"qr": [], "norm": [], "kernels": []}
