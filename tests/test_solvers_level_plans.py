"""The solvers run level plans: one dispatch per level of the loops'
joint DAG, built without ICO, without fuse() and without the machine
model."""

import importlib

import numpy as np
import pytest

from repro import fuse
from repro.fusion.fused import inspect_loops
from repro.graph.joint import build_joint_dag
from repro.runtime import plan_for
from repro.runtime.machine import SimulatedMachine
from repro.schedule.cache import SETUP_TIER
from repro.schedule.schedule import PLAN_MEMO_KEY
from repro.solvers import build_ic0_preconditioner, gauss_seidel, pcg_ic0

# By module path: the attribute `repro.solvers.gauss_seidel` is the function.
fused_module = importlib.import_module("repro.fusion.fused")
ico_module = importlib.import_module("repro.schedule.ico")
gs_module = importlib.import_module("repro.solvers.gauss_seidel")


def _forbidden(*args, **kwargs):
    raise AssertionError("called inside a plan-executor solve")


def test_solvers_run_no_ico_fuse_or_pricing(lap3d_nd, rng, monkeypatch):
    monkeypatch.setattr(ico_module, "ico_schedule", _forbidden)
    monkeypatch.setattr(fused_module, "ico_schedule", _forbidden)
    monkeypatch.setattr(fused_module, "fuse", _forbidden)
    monkeypatch.setattr(gs_module, "fuse", _forbidden)
    monkeypatch.setattr(SimulatedMachine, "simulate", _forbidden)
    b = rng.random(lap3d_nd.n_rows)
    x_ref = np.linalg.solve(lap3d_nd.to_dense(), b)
    for res in (
        gauss_seidel(lap3d_nd, b, tol=1e-10, max_iters=2000, executor="plan"),
        pcg_ic0(lap3d_nd, b, tol=1e-10),
    ):
        assert res.converged
        assert np.allclose(res.x, x_ref, atol=1e-7)


def _assert_one_step_per_level(plan):
    """The solvers' loops are all linear-row kernels, so the plan is one
    row program: one dispatch per level of the joint DAG (intra edges
    plus ``F``), whose steps hold exactly that level's iterations of
    each loop, loop by loop, and no precomputation."""
    kernels = plan.kernels
    dags, inter, _ = inspect_loops(kernels)
    levels = build_joint_dag(dags, inter).levels()
    offsets = np.cumsum([0] + [k.n_iterations for k in kernels])
    assert plan.rows is not None
    assert plan.n_steps == int(levels.max()) + 1
    expect = [
        (k, lvl, np.flatnonzero(levels[offsets[k] : offsets[k + 1]] == lvl))
        for lvl in range(plan.n_steps)
        for k in range(len(kernels))
    ]
    expect = [(k, lvl, iters) for k, lvl, iters in expect if iters.shape[0]]
    assert len(plan.steps) == len(expect)
    for st, (k, lvl, iters) in zip(plan.steps, expect):
        assert (st.loop, st.s) == (k, lvl)
        assert np.array_equal(st.iters, iters), (k, lvl)
        assert st.precomp is None


@pytest.mark.parametrize("unroll", [1, 4])
def test_solver_plans_have_one_step_per_level(lap3d_nd, band_small, rng, unroll):
    for a in (lap3d_nd, band_small):
        res = gauss_seidel(
            a, rng.random(a.n_rows), tol=0.0, max_iters=unroll, unroll=unroll
        )
        (plan,) = res.schedule.meta[PLAN_MEMO_KEY].values()
        assert len(plan.kernels) == 2 * unroll
        _assert_one_step_per_level(plan)


def test_preconditioner_plan_has_one_step_per_level(lap3d_nd, band_small):
    for a in (lap3d_nd, band_small):
        kernels, schedule, _ = build_ic0_preconditioner(a)
        _assert_one_step_per_level(plan_for(schedule, kernels))


@pytest.mark.parametrize("unroll", [1, 2, 3])
def test_gs_level_plan_matches_fused_plan(lap2d_nd, rng, unroll, monkeypatch):
    """Bitwise equal to the plan of the ICO-fused chain, and equal to the
    per-iteration oracle on that schedule up to the association order of
    CSR row sums (a compiled row-block product that starts from the
    right-hand side, against ``np.dot``)."""
    b = rng.random(lap2d_nd.n_rows)
    kw = dict(tol=0.0, max_iters=6 * unroll, unroll=unroll)
    shipped = gauss_seidel(lap2d_nd, b, **kw)
    oracle = gauss_seidel(
        lap2d_nd, b, executor="iter", method="sparse-fusion", **kw
    )
    monkeypatch.setattr(
        gs_module, "level_schedule", lambda kernels: fuse(kernels, 8).schedule
    )
    SETUP_TIER.clear()  # the patch acts when the set-up is built
    fused = gauss_seidel(lap2d_nd, b, **kw)
    assert fused.schedule.fusion  # the patch took: an ICO schedule ran
    assert np.array_equal(shipped.x, fused.x)
    assert np.allclose(shipped.x, oracle.x, rtol=0, atol=1e-13)
