"""Gauss-Seidel solver tests (the Fig. 9 workload)."""

import numpy as np
import pytest

from repro.obs import recording
from repro.solvers import (
    build_gs_chain,
    gauss_seidel,
    gauss_seidel_simulated,
    gs_split,
)
from repro.sparse import laplacian_2d


def test_gs_split_reconstructs_matrix(lap2d_nd):
    low, e = gs_split(lap2d_nd)
    # A = (D - F) - E  with our E already negated: A = low - E
    assert np.allclose(
        low.to_dense() - e.to_dense(), lap2d_nd.to_dense()
    )


def test_chain_structure(lap2d_nd):
    kernels, x_in, x_out = build_gs_chain(lap2d_nd, unroll=3)
    assert len(kernels) == 6
    assert x_in == "x0" and x_out == "x3"
    # alternating Par (SpMV) / CD (SpTRSV)
    assert [k.has_carried_dependence for k in kernels] == [False, True] * 3


def test_chain_rejects_bad_unroll(lap2d_nd):
    with pytest.raises(ValueError):
        build_gs_chain(lap2d_nd, unroll=0)


@pytest.mark.parametrize("method", ["sparse-fusion", "parsy", "joint-lbc"])
def test_gs_converges_to_solution(method, rng):
    a = laplacian_2d(8)
    b = rng.random(a.n_rows)
    x_ref = np.linalg.solve(a.to_dense(), b)
    r = gauss_seidel(a, b, tol=1e-9, max_iters=5000, unroll=2, method=method)
    assert r.converged
    assert np.allclose(r.x, x_ref, atol=1e-6)


def test_gs_iteration_equivalence(rng):
    """One unrolled-fused GS chunk equals `unroll` classic GS sweeps."""
    a = laplacian_2d(6)
    b = rng.random(a.n_rows)
    dense = a.to_dense()
    low = np.tril(dense)
    e = -(np.triu(dense, k=1))
    x = np.zeros(a.n_rows)
    for _ in range(4):
        x = np.linalg.solve(low, e @ x + b)
    r = gauss_seidel(a, b, tol=0.0, max_iters=4, unroll=4, method="sparse-fusion")
    assert np.allclose(r.x, x, atol=1e-10)


def test_gs_residuals_monotone_for_spd(rng):
    a = laplacian_2d(8)
    b = rng.random(a.n_rows)
    r = gauss_seidel(a, b, tol=1e-10, max_iters=600, unroll=1)
    arr = np.array(r.residuals)
    assert np.all(np.diff(arr) <= 1e-12)


def test_gs_respects_max_iters(rng):
    a = laplacian_2d(10)
    b = rng.random(a.n_rows)
    r = gauss_seidel(a, b, tol=1e-30, max_iters=10, unroll=2)
    assert not r.converged
    assert r.iterations == 10


def test_gs_with_initial_guess(rng):
    a = laplacian_2d(6)
    b = rng.random(a.n_rows)
    x_ref = np.linalg.solve(a.to_dense(), b)
    r = gauss_seidel(a, b, tol=1e-10, max_iters=2000, unroll=2, x0=x_ref)
    assert r.iterations <= 2  # starts converged


def test_gs_fusion_beats_parsy_simulated(lap3d_nd, rng):
    """The Fig. 9 shape: fused GS is simulated-faster than unfused, over
    the iterations the executed solve took."""
    b = rng.random(lap3d_nd.n_rows)
    solved = gauss_seidel(lap3d_nd, b, tol=1e-6, max_iters=200, unroll=4)
    assert solved.simulated_solve_seconds is None  # no pricing in a solve
    kw = dict(iterations=solved.iterations, unroll=4, n_threads=8)
    fused = gauss_seidel_simulated(lap3d_nd, b, method="sparse-fusion", **kw)
    parsy = gauss_seidel_simulated(lap3d_nd, b, method="parsy", **kw)
    assert fused.simulated_solve_seconds < parsy.simulated_solve_seconds


@pytest.mark.parametrize("x0", [None, "random"])
def test_gs_zero_iterations_returns_initial_guess(lap2d_nd, rng, x0):
    b = rng.random(lap2d_nd.n_rows)
    guess = None if x0 is None else rng.random(lap2d_nd.n_rows)
    r = gauss_seidel(lap2d_nd, b, max_iters=0, x0=guess)
    assert r.iterations == 0 and r.residuals == [] and not r.converged
    expect = np.zeros(lap2d_nd.n_rows) if guess is None else guess
    assert np.array_equal(r.x, expect)
    assert r.x is not guess


def test_gs_rejects_rectangular():
    from repro.sparse import CSRMatrix

    a = CSRMatrix.from_dense(np.ones((2, 3)))
    with pytest.raises(ValueError, match="square"):
        gauss_seidel(a, np.ones(2))


@pytest.mark.parametrize("arg", ["b", "x0"])
def test_gs_rejects_wrong_length_vector(lap2d_nd, arg):
    n = lap2d_nd.n_rows
    kwargs = {"b": np.ones(n), "x0": np.zeros(n)}
    kwargs[arg] = kwargs[arg][:-1]
    with recording() as rec, pytest.raises(
        ValueError, match=rf"{arg} must have shape \({n},\)"
    ):
        gauss_seidel(lap2d_nd, kwargs.pop("b"), **kwargs)
    assert rec.spans == []  # rejected before any inspection ran
