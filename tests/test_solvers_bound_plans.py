"""Bound solver plans: level steps that carry the gathered values of
read-only operands (``ExecutionPlan.bind``), and the checks that keep
binding fail-closed."""

import importlib

import numpy as np
import pytest

from repro import fuse
from repro.fusion import build_combination
from repro.obs import recording
from repro.runtime import execute_schedule_planned, plan_for
from repro.runtime.executor import allocate_state
from repro.runtime.plan import ExecutionPlan, RowProgram, _plan_record
from repro.schedule.cache import ScheduleCache
from repro.schedule.schedule import PLAN_MEMO_KEY
from repro.schedule.wavefront import level_schedule
from repro.solvers import build_gs_chain, build_ic0_preconditioner, gauss_seidel, pcg_ic0

fused_module = importlib.import_module("repro.fusion.fused")
ico_module = importlib.import_module("repro.schedule.ico")
gs_module = importlib.import_module("repro.solvers.gauss_seidel")


def _gs_setup(a, rng, unroll):
    kernels, x_in, _ = build_gs_chain(a, unroll)
    state = allocate_state(kernels)
    state["Ex"][:] = kernels[0].a.data
    state["Lx"][:] = kernels[1].low.data
    state["b"][:] = rng.random(a.n_rows)
    state[x_in][:] = rng.random(a.n_rows)
    return kernels, state


def _run_both(schedule, kernels, state, bound_vars, runs):
    """Final states of the unbound and the bound plan over copies of
    *state*, each run *runs* times in a row."""
    plan = plan_for(schedule, kernels)
    plain = {k: v.copy() for k, v in state.items()}
    bound_state = {k: v.copy() for k, v in state.items()}
    bound = plan.bind(bound_state, bound_vars)
    for _ in range(runs):
        execute_schedule_planned(schedule, kernels, plain, plan=plan)
        execute_schedule_planned(schedule, kernels, bound_state, plan=bound)
    return plain, bound_state, plan, bound


@pytest.mark.parametrize("runs", [1, 4])
@pytest.mark.parametrize("unroll", [1, 2, 3])
def test_bound_gs_chain_bitwise_equal(lap3d_nd, rng, unroll, runs):
    kernels, state = _gs_setup(lap3d_nd, rng, unroll)
    plain, bound_state, plan, bound = _run_both(
        level_schedule(kernels), kernels, state, ("Ex", "Lx", "b"), runs
    )
    for var in plain:
        assert plain[var].tobytes() == bound_state[var].tobytes(), var
    assert bound.n_level_steps == plan.n_level_steps > 0
    # the chain is one row program: every dispatch carries its values
    assert plan.rows.n_bound == 0 and bound.rows.n_bound == bound.n_steps


@pytest.mark.parametrize("runs", [1, 4])
def test_bound_preconditioner_bitwise_equal(lap3d_nd, rng, runs):
    kernels, schedule, state = build_ic0_preconditioner(lap3d_nd)
    state["r"][:] = rng.random(lap3d_nd.n_rows)
    plain, bound_state, _, _ = _run_both(schedule, kernels, state, ("Lx",), runs)
    for var in plain:
        assert plain[var].tobytes() == bound_state[var].tobytes(), var


def test_solvers_bitwise_equal_without_binding(lap3d_nd, rng, monkeypatch):
    b = rng.random(lap3d_nd.n_rows)
    solves = (
        lambda: gauss_seidel(lap3d_nd, b, tol=1e-8, max_iters=2000),
        lambda: pcg_ic0(lap3d_nd, b, tol=1e-10),
    )
    shipped = [solve() for solve in solves]
    monkeypatch.setattr(ExecutionPlan, "bind", lambda self, state, variables: self)
    for res, solve in zip(shipped, solves):
        ref = solve()
        assert res.converged and res.iterations == ref.iterations
        assert res.x.tobytes() == ref.x.tobytes()


def test_binding_a_written_variable_raises(lap2d_nd, rng):
    kernels, state = _gs_setup(lap2d_nd, rng, 2)
    plan = plan_for(level_schedule(kernels), kernels)
    with pytest.raises(ValueError, match=r"'x1': loop 1 \(SpTRSV-CSR\) writes it"):
        plan.bind(state, ("Lx", "x1"))
    with pytest.raises(ValueError, match=r"'t2': loop 2 \(SpMV-CSR\) writes it"):
        plan.bind(state, ("t2",))
    kernels, _, state = build_ic0_preconditioner(lap2d_nd)
    plan = plan_for(level_schedule(kernels), kernels)
    with pytest.raises(ValueError, match="'w': loop 0"):
        plan.bind(state, ("w",))


def test_writing_a_bound_array_during_a_solve_raises(lap2d_nd, rng, monkeypatch):
    run = RowProgram.run

    def stray_write(self, state):
        state["Ex"][0] = 0.0
        run(self, state)

    monkeypatch.setattr(RowProgram, "run", stray_write)
    with pytest.raises(ValueError, match="read-only"):
        gauss_seidel(lap2d_nd, rng.random(lap2d_nd.n_rows))


def test_bound_plan_rejects_other_arrays(lap2d_nd, rng):
    kernels, state = _gs_setup(lap2d_nd, rng, 1)
    sched = level_schedule(kernels)
    bound = plan_for(sched, kernels).bind(state, ("Lx",))
    execute_schedule_planned(sched, kernels, state, plan=bound)
    other = dict(state, Lx=state["Lx"].copy())
    with pytest.raises(ValueError, match="bound to another 'Lx' array"):
        execute_schedule_planned(sched, kernels, other, plan=bound)


def test_bind_leaves_the_memoized_plan_untouched(lap2d_nd, rng):
    kernels, state = _gs_setup(lap2d_nd, rng, 2)
    sched = level_schedule(kernels)
    plan = plan_for(sched, kernels)
    before = [(st.precomp, dict(st.precomp or {})) for st in plan.steps]
    with recording() as rec:
        bound = plan.bind(state, ("Ex", "Lx", "b"))
    assert rec.counter("plan.bound_steps") == plan.n_level_steps
    assert bound is not plan and plan.bound == {}
    for st, (precomp, items) in zip(plan.steps, before):
        assert st.precomp is precomp
        assert (st.precomp or {}).keys() == items.keys()
    assert list(sched.meta[PLAN_MEMO_KEY].values()) == [plan]
    assert plan_for(sched, kernels) is plan
    # a bound plan bound again keeps what it already binds
    again = bound.bind(state, ())
    assert again.bound.keys() == {"Ex", "Lx", "b"}


def test_bound_plan_never_reaches_the_plan_store(lap3d_nd, tmp_path, monkeypatch):
    records = []
    put = ScheduleCache.put_plan

    def spy(self, key, header, arrays):
        records.append(header)
        put(self, key, header, arrays)

    monkeypatch.setattr(ScheduleCache, "put_plan", spy)
    kernels, state = build_combination(1, lap3d_nd)
    fused = fuse(kernels, 4, cache=ScheduleCache(directory=tmp_path))
    plan = plan_for(fused.schedule, fused.kernels)
    header, _ = _plan_record(plan)
    bound = plan.bind(state, (kernels[0].l_var,))
    for _ in range(2):
        execute_schedule_planned(fused.schedule, fused.kernels, state, plan=bound)
        plan_for(fused.schedule, fused.kernels)
    assert records == [header]
    with pytest.raises(TypeError, match="bound plan"):
        _plan_record(bound)


def test_solvers_solve_without_ico_or_fuse(lap3d_nd, rng, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("called inside a bound-plan solve")

    monkeypatch.setattr(ico_module, "ico_schedule", forbidden)
    monkeypatch.setattr(fused_module, "ico_schedule", forbidden)
    monkeypatch.setattr(fused_module, "fuse", forbidden)
    monkeypatch.setattr(gs_module, "fuse", forbidden)
    b = rng.random(lap3d_nd.n_rows)
    x_ref = np.linalg.solve(lap3d_nd.to_dense(), b)
    for solve in (
        lambda: gauss_seidel(lap3d_nd, b, tol=1e-10, max_iters=2000),
        lambda: pcg_ic0(lap3d_nd, b, tol=1e-10),
    ):
        with recording() as rec:
            res = solve()
        assert res.converged
        assert np.allclose(res.x, x_ref, atol=1e-7)
        assert rec.counter("plan.cache_misses") == 1
        assert rec.counter("plan.bound_steps") > 0
