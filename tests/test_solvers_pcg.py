"""IC0-preconditioned CG tests."""

import numpy as np
import pytest

from repro import fuse
from repro.fusion import inspect_loops
from repro.obs import recording
from repro.runtime import execute_schedule_planned
from repro.schedule import validate_schedule
from repro.schedule.cache import SETUP_TIER
from repro.solvers import build_ic0_preconditioner, pcg_ic0
from repro.sparse import apply_ordering, laplacian_2d


def test_pcg_converges_to_direct_solution(lap2d_nd, rng):
    b = rng.random(lap2d_nd.n_rows)
    res = pcg_ic0(lap2d_nd, b, tol=1e-10, max_iters=400)
    assert res.converged
    x_ref = np.linalg.solve(lap2d_nd.to_dense(), b)
    assert np.allclose(res.x, x_ref, atol=1e-7)


def test_pcg_beats_unpreconditioned_iterations(lap3d_nd, rng):
    """IC0 preconditioning must cut the iteration count vs plain CG."""
    from scipy.sparse.linalg import cg

    b = rng.random(lap3d_nd.n_rows)
    count = {"n": 0}
    cg(
        lap3d_nd.to_scipy(),
        b,
        rtol=1e-8,
        maxiter=2000,
        callback=lambda xk: count.__setitem__("n", count["n"] + 1),
    )
    res = pcg_ic0(lap3d_nd, b, tol=1e-8, max_iters=2000)
    assert res.converged
    assert res.iterations < count["n"]


def test_pcg_preconditioner_schedulers_agree(lap2d_nd, rng, monkeypatch):
    """The level plan PCG ships and plans over fused schedules of the
    same forward/backward pair take the same iterations to one answer."""
    import repro.solvers.pcg as pcg

    b = rng.random(lap2d_nd.n_rows)
    shipped = pcg_ic0(lap2d_nd, b, tol=1e-9, max_iters=300)
    levels = pcg.level_schedule
    for scheduler in ("ico", "joint-wavefront"):

        def fused_pair(kernels, scheduler=scheduler):
            if len(kernels) == 1:  # the IC0 factorization
                return levels(kernels)
            return fuse(kernels, 8, scheduler=scheduler).schedule

        monkeypatch.setattr(pcg, "level_schedule", fused_pair)
        SETUP_TIER.clear()  # the patch acts when the set-up is built
        fused = pcg_ic0(lap2d_nd, b, tol=1e-9, max_iters=300)
        assert fused.iterations == shipped.iterations, scheduler
        assert np.allclose(fused.x, shipped.x, rtol=0, atol=1e-12), scheduler


def test_pcg_respects_max_iters(lap2d_nd, rng):
    b = rng.random(lap2d_nd.n_rows)
    res = pcg_ic0(lap2d_nd, b, tol=1e-30, max_iters=3)
    assert not res.converged
    assert res.iterations == 3


def test_pcg_with_exact_initial_guess(lap2d_nd, rng):
    b = rng.random(lap2d_nd.n_rows)
    x_ref = np.linalg.solve(lap2d_nd.to_dense(), b)
    res = pcg_ic0(lap2d_nd, b, tol=1e-8, max_iters=50, x0=x_ref)
    assert res.converged
    assert res.iterations == 0


def test_pcg_rejects_rectangular():
    from repro.sparse import CSRMatrix

    a = CSRMatrix.from_dense(np.ones((2, 3)))
    with pytest.raises(ValueError, match="square"):
        pcg_ic0(a, np.ones(2))


def test_preconditioner_builder_standalone(lap2d_nd, rng):
    kernels, schedule, state = build_ic0_preconditioner(lap2d_nd)
    dags, inter, _ = inspect_loops(kernels)
    validate_schedule(schedule, dags, inter)
    state["r"][:] = rng.random(lap2d_nd.n_rows)
    execute_schedule_planned(schedule, kernels, state)
    from repro.sparse import ic0_csc

    ld = ic0_csc(lap2d_nd).to_dense()
    expect = np.linalg.solve(ld.T, np.linalg.solve(ld, state["r"]))
    assert np.allclose(state["z"], expect, atol=1e-8)


def test_pcg_metadata(lap2d_nd, rng):
    b = rng.random(lap2d_nd.n_rows)
    res = pcg_ic0(lap2d_nd, b, tol=1e-8, max_iters=200)
    assert res.meta == {"applications": res.iterations + 1}
    assert res.setup_seconds > 0


def test_preconditioner_factor_matches_reference_bitwise(matrix_zoo):
    """The SpIC0 plan factor is the reference ic0_csc factor, bit for bit."""
    from repro.sparse import ic0_csc

    for name, a in matrix_zoo:
        _, _, state = build_ic0_preconditioner(a)
        expect = ic0_csc(a).to_csr().data
        assert np.array_equal(state["Lx"], expect), name


def test_preconditioner_factor_runs_scalar_on_deep_narrow_dag(band_small):
    """Every level of a banded DAG holds one column, so the
    factorization runs as one-iteration (scalar) steps only."""
    with recording() as rec:
        build_ic0_preconditioner(band_small)
    assert rec.counter("executor.scalar_iterations") == band_small.n_rows
    assert rec.counter("executor.level_count") == 0


def test_preconditioner_factor_batches_wide_levels(lap3d_nd):
    with recording() as rec:
        build_ic0_preconditioner(lap3d_nd)
    batched = rec.counter("executor.batched_iterations")
    scalar = rec.counter("executor.scalar_iterations")
    assert batched + scalar == lap3d_nd.n_rows
    assert batched > scalar
    assert rec.counter("executor.level_count") > 0


def test_pcg_reports_ic0_breakdown():
    from repro.sparse import CSRMatrix

    indefinite = CSRMatrix.from_dense(
        np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 2.0], [0.0, 2.0, 1.0]])
    )
    with pytest.raises(ValueError, match="IC0 breakdown"):
        pcg_ic0(indefinite, np.ones(3))


def test_pcg_leaves_caller_x0_untouched(lap2d_nd, rng):
    b = rng.random(lap2d_nd.n_rows)
    x0 = np.zeros(lap2d_nd.n_rows)
    res = pcg_ic0(lap2d_nd, b, tol=1e-8, max_iters=200, x0=x0)
    assert res.converged
    assert res.x is not x0
    assert not np.any(x0)


@pytest.mark.parametrize("arg", ["b", "x0"])
def test_pcg_rejects_wrong_length_vector(lap2d_nd, arg):
    n = lap2d_nd.n_rows
    kwargs = {"b": np.ones(n), "x0": np.zeros(n)}
    kwargs[arg] = kwargs[arg][:-1]
    with recording() as rec, pytest.raises(
        ValueError, match=rf"{arg} must have shape \({n},\)"
    ):
        pcg_ic0(lap2d_nd, kwargs.pop("b"), **kwargs)
    assert rec.spans == []  # rejected before any inspection ran
