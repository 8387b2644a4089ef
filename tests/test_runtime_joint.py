"""Row programs: plans of linear-row loops run by joint levels.

A plan whose loops are all linear-row kernels runs one dispatch per
level of the joint DAG (intra edges plus ``F``), each a row block of the
stacked operator over one plan-owned buffer. Every row does the
arithmetic of its per-loop row-block step, so the program is bitwise
equal to running each loop's intra levels as row-block steps, loop after
loop; it needs exactly joint-depth dispatches; and the plan sanitizer
treats a dispatch as one concurrent unit.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import fuse
from repro.baselines.unfused import parsy_schedule
from repro.fusion import build_combination
from repro.fusion.fused import inspect_loops, repack_schedule
from repro.graph.joint import build_joint_dag
from repro.kernels import SpMVCSR, SpTRSVBackwardCSR, SpTRSVCSR
from repro.obs import DependenceViolationError, sanitize_schedule
from repro.runtime import allocate_state, compile_plan, execute_schedule_planned
from repro.schedule.wavefront import level_schedule
from repro.solvers import build_gs_chain
from repro.sparse import apply_ordering, laplacian_3d, random_lower_triangular


def per_loop_row_blocks(kernels, state):
    """Each loop in program order, one row-block step per intra level
    (one-row levels included), through the kernel's own level hooks: the
    per-loop row-block plan, without a plan buffer."""
    for kern in kernels:
        for level in kern.intra_dag().wavefronts():
            precomp = kern.precompute_levels(level, [level.shape[0]])[0]
            kern.run_level_batch(level, state, precomp)
    return state


def joint_depth(kernels):
    dags, inter, _ = inspect_loops(kernels)
    return int(build_joint_dag(dags, inter).levels().max()) + 1


def _gs_state(kernels, x_in, rng):
    state = allocate_state(kernels)
    state["Ex"][:] = kernels[0].a.data
    state["Lx"][:] = kernels[1].low.data
    state["b"][:] = rng.random(state["b"].shape[0])
    state[x_in][:] = rng.random(state[x_in].shape[0])
    return state


def _assert_bitwise(got, want):
    assert got.keys() == want.keys()
    for var in want:
        assert got[var].tobytes() == want[var].tobytes(), var


@pytest.mark.parametrize("unroll", [1, 2, 3])
@pytest.mark.parametrize("matrix", ["lap3d_nd", "band_small", "rand_spd_nd"])
def test_gs_chain_bitwise_equal_to_per_loop_row_blocks(matrix, unroll, request, rng):
    a = request.getfixturevalue(matrix)
    kernels, x_in, _ = build_gs_chain(a, unroll)
    state = _gs_state(kernels, x_in, rng)
    schedule = level_schedule(kernels)
    plan = compile_plan(schedule, kernels)
    assert plan.rows is not None
    assert plan.n_steps == joint_depth(kernels)
    want = per_loop_row_blocks(kernels, {k: v.copy() for k, v in state.items()})
    got = {k: v.copy() for k, v in state.items()}
    for _ in range(2):  # a second run starts from the first's buffer
        execute_schedule_planned(schedule, kernels, got, plan=plan)
    _assert_bitwise(got, per_loop_row_blocks(kernels, want))
    bound_state = {k: v.copy() for k, v in state.items()}
    bound = plan.bind(bound_state, ("Ex", "Lx", "b"))
    execute_schedule_planned(schedule, kernels, bound_state, plan=bound)
    _assert_bitwise(
        bound_state, per_loop_row_blocks(kernels, {k: v.copy() for k, v in state.items()})
    )


def test_combo1_same_program_under_every_packing(lap3d_nd):
    """Joint levels do not depend on the schedule: the interleaved and
    separated ICO packings and the unfused ParSy schedule compile to the
    same dispatches, bitwise equal to the per-loop row blocks."""
    kernels, state = build_combination(1, lap3d_nd, seed=1)
    fl = fuse(kernels, 8)
    schedules = [
        repack_schedule(fl.schedule, fl.dags, fl.inter, "interleaved"),
        repack_schedule(fl.schedule, fl.dags, fl.inter, "separated"),
        parsy_schedule(kernels, 8),
    ]
    assert [s.packing for s in schedules] == ["interleaved", "separated", "none"]
    want = per_loop_row_blocks(kernels, {k: v.copy() for k, v in state.items()})
    steps = None
    for schedule in schedules:
        plan = compile_plan(schedule, kernels)
        sets = [(st.loop, st.s, st.iters.tobytes()) for st in plan.steps]
        assert steps is None or sets == steps
        steps = sets
        got = {k: v.copy() for k, v in state.items()}
        execute_schedule_planned(schedule, kernels, got, plan=plan)
        _assert_bitwise(got, want)


def test_step_counts():
    """The Gauss-Seidel chunk of the benchmark's ``solve`` matrix takes
    24 dispatches (30 per-loop steps), and combination 1 on ``lap3d:12``
    takes 13 (24 per-loop steps)."""
    a, _ = apply_ordering(laplacian_3d(8), "nd")
    kernels, _, _ = build_gs_chain(a, 2)
    plan = compile_plan(level_schedule(kernels), kernels)
    assert plan.n_steps == 24
    assert sum(int(k.intra_dag().levels().max()) + 1 for k in kernels) == 30

    a, _ = apply_ordering(laplacian_3d(12), "nd")
    kernels, _ = build_combination(1, a)
    plan = compile_plan(fuse(kernels, 8).schedule, kernels)
    assert plan.n_steps == 13 == plan.n_level_steps
    assert sum(int(k.intra_dag().levels().max()) + 1 for k in kernels) == 24


def _swapped_dispatches(plan):
    """*plan* with dispatches 0 and 1 trading places, phases renumbered
    so they still rise along the steps: dispatch 1 depends on 0."""
    first = [st for st in plan.steps if st.s == 0]
    second = [st for st in plan.steps if st.s == 1]
    rest = [st for st in plan.steps if st.s > 1]
    steps = [replace(st, s=0) for st in second] + [replace(st, s=1) for st in first]
    return replace(plan, steps=steps + rest)


def test_sanitizer_sees_one_dispatch_per_joint_level(lap3d_nd, rng):
    kernels, x_in, _ = build_gs_chain(lap3d_nd, 2)
    schedule = level_schedule(kernels)
    plan = compile_plan(schedule, kernels)
    report = sanitize_schedule(schedule, kernels, executor="plan", plan=plan)
    assert report.clean and report.n_pairs > 0
    swapped = _swapped_dispatches(plan)
    report = sanitize_schedule(schedule, kernels, executor="plan", plan=swapped)
    assert report.n_violations > 0
    # the steps of one dispatch are concurrent: a dispatch holding two
    # dependent joint levels is reported too
    merged = replace(
        plan, steps=[replace(st, s=max(st.s - 1, 0)) for st in plan.steps]
    )
    assert sanitize_schedule(
        schedule, kernels, executor="plan", plan=merged
    ).n_violations > 0
    state = _gs_state(kernels, x_in, rng)
    before = {k: v.copy() for k, v in state.items()}
    with pytest.raises(DependenceViolationError):
        execute_schedule_planned(schedule, kernels, state, plan=swapped, sanitize=True)
    _assert_bitwise(state, before)  # nothing ran


@st.composite
def lower_matrices(draw):
    n = draw(st.integers(min_value=1, max_value=60))
    density = draw(st.floats(min_value=1.0, max_value=6.0))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    return random_lower_triangular(n, density, seed=seed)


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(low=lower_matrices(), seed=st.integers(min_value=0, max_value=10_000))
def test_random_patterns_bitwise_equal_and_clean(low, seed):
    """Forward solve, product and backward solve chained over a random
    lower-triangular pattern: the row program is bitwise equal to the
    per-loop row blocks and clean under the plan sanitizer."""
    kernels = [
        SpTRSVCSR(low, l_var="Lx", b_var="b", x_var="x"),
        SpMVCSR(low, a_var="Lx", x_var="x", y_var="y", add_var="b"),
        SpTRSVBackwardCSR(low, l_var="Lx", b_var="y", x_var="z"),
    ]
    rng = np.random.default_rng(seed)
    state = allocate_state(kernels)
    state["Lx"][:] = low.data
    state["b"][:] = rng.uniform(-1.0, 1.0, low.n_rows)
    schedule = level_schedule(kernels)
    plan = compile_plan(schedule, kernels)
    assert plan.rows is not None and plan.n_steps == joint_depth(kernels)
    want = per_loop_row_blocks(kernels, {k: v.copy() for k, v in state.items()})
    got = execute_schedule_planned(
        schedule, kernels, {k: v.copy() for k, v in state.items()}, plan=plan
    )
    _assert_bitwise(got, want)
    assert sanitize_schedule(schedule, kernels, executor="plan", plan=plan).clean
