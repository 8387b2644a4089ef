"""The solvers run level plans: one step per (loop, intra-DAG level),
built without ICO, without fuse() and without the machine model."""

import importlib

import numpy as np
import pytest

from repro import fuse
from repro.runtime import plan_for
from repro.runtime.machine import SimulatedMachine
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
    """Per loop, one step per intra-DAG level, holding exactly that
    level's iterations; a precomputed level step exactly when the level
    has two or more iterations."""
    for k, kern in enumerate(plan.kernels):
        levels = kern.intra_dag().levels()
        mine = [st for st in plan.steps if st.loop == k]
        assert len(mine) == int(levels.max()) + 1, k
        for lvl, st in enumerate(mine):
            expect = np.flatnonzero(levels == lvl)
            assert np.array_equal(np.sort(st.iters), expect), (k, lvl)
            assert (st.precomp is None) == (expect.shape[0] == 1), (k, lvl)


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
    fused = gauss_seidel(lap2d_nd, b, **kw)
    assert fused.schedule.fusion  # the patch took: an ICO schedule ran
    assert np.array_equal(shipped.x, fused.x)
    assert np.allclose(shipped.x, oracle.x, rtol=0, atol=1e-13)
