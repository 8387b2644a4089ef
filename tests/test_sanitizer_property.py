"""Property-based cross-check of the two schedule oracles.

The static oracle (:func:`validate_schedule`, DAG-level) and the
dynamic sanitizer (:mod:`repro.obs.memtrace`, element-level shadow
execution) are independent implementations of the same correctness
contract. On arbitrary random structures: every schedule the fusion
pipeline emits passes both, and reversing any real dependence edge is
rejected by both — under both executor models."""

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro import fuse
from repro.kernels import SpMVCSC, SpTRSVCSR, internal_var
from repro.obs import sanitize_schedule
from repro.runtime import (
    allocate_state,
    execute_schedule,
    execute_schedule_planned,
    plan_for,
)
from repro.schedule import ScheduleError, validate_schedule
from repro.sparse import random_lower_triangular

EXECUTORS = ("iter", "plan")

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def lower_matrices(draw):
    n = draw(st.integers(min_value=1, max_value=60))
    density = draw(st.floats(min_value=1.0, max_value=6.0))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    return random_lower_triangular(n, density, seed=seed)


def trsv_chain(low):
    k1 = SpTRSVCSR(low, l_var="Lx", b_var="b", x_var="x")
    k2 = SpTRSVCSR(low, l_var="Lx", b_var="x", x_var="z")
    return [k1, k2]


def dependence_edges(fl):
    """All (u_gid, v_gid) dependence edges of the fused problem."""
    edges = []
    offsets = fl.schedule.offsets
    for li, dag in enumerate(fl.dags):
        base = int(offsets[li])
        for u in range(dag.n):
            for v in dag.indices[dag.indptr[u] : dag.indptr[u + 1]]:
                edges.append((base + u, base + int(v)))
    for (la, lb), dep in fl.inter.items():
        for i in range(dep.n_second):
            for j in dep.row_indices[
                dep.row_indptr[i] : dep.row_indptr[i + 1]
            ]:
                edges.append(
                    (int(offsets[la]) + int(j), int(offsets[lb]) + i)
                )
    return edges


def swap_vertices(schedule, u, v):
    """Exchange the schedule slots of global iterations *u* and *v*."""
    bad = schedule.copy()
    sp, wp, pos = bad.assignment()
    bad.s_partitions[sp[u]][wp[u]][pos[u]] = v
    bad.s_partitions[sp[v]][wp[v]][pos[v]] = u
    return bad


@SETTINGS
@given(low=lower_matrices(), r=st.integers(min_value=2, max_value=8))
def test_pipeline_schedules_pass_both_oracles(low, r):
    kernels = trsv_chain(low)
    fl = fuse(kernels, r)
    validate_schedule(fl.schedule, fl.dags, fl.inter)
    for executor in EXECUTORS:
        rep = sanitize_schedule(fl.schedule, kernels, executor=executor)
        assert rep.clean, (executor, rep.summary())


@SETTINGS
@given(
    low=lower_matrices(),
    r=st.integers(min_value=2, max_value=8),
    data=st.data(),
)
def test_reversed_dependence_rejected_by_both_oracles(low, r, data):
    kernels = trsv_chain(low)
    fl = fuse(kernels, r)
    sp, _, _ = fl.schedule.assignment()
    # candidates: real dependence edges whose endpoints sit in
    # different s-partitions, so swapping them reverses the dependence
    # across a barrier
    edges = [(u, v) for u, v in dependence_edges(fl) if sp[u] != sp[v]]
    assume(edges)
    u, v = data.draw(st.sampled_from(edges))
    bad = swap_vertices(fl.schedule, u, v)

    try:
        validate_schedule(bad, fl.dags, fl.inter)
        static_clean = True
    except ScheduleError:
        static_clean = False
    assert not static_clean

    for executor in EXECUTORS:
        rep = sanitize_schedule(bad, kernels, executor=executor)
        assert not rep.clean, executor
        assert rep.n_violations >= 1


@SETTINGS
@given(low=lower_matrices(), r=st.integers(min_value=2, max_value=6))
def test_commutative_spmv_fusion_sanitizes_clean(low, r):
    assume(low.n_rows >= 2)
    k1 = SpTRSVCSR(low, l_var="Lx", b_var="b", x_var="y")
    k2 = SpMVCSC(low.to_csc(), a_var="Ax", x_var="y", y_var="z")
    fl = fuse([k1, k2], r)
    for executor in EXECUTORS:
        assert sanitize_schedule(
            fl.schedule, [k1, k2], executor=executor
        ).clean


@SETTINGS
@given(
    low=lower_matrices(),
    r=st.integers(min_value=2, max_value=8),
    spmv=st.booleans(),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_merged_plans_sanitize_clean_and_match_iter(low, r, spmv, seed):
    """Merged TRSV-TRSV and TRSV-SpMV plans: clean under the plan
    sanitizer, and equal to the per-iteration oracle within the pinned
    tolerance."""
    if spmv:
        kernels = [
            SpTRSVCSR(low, l_var="Lx", b_var="b", x_var="y"),
            SpMVCSC(low.to_csc(), a_var="Ax", x_var="y", y_var="z"),
        ]
    else:
        kernels = trsv_chain(low)
    fl = fuse(kernels, r)
    plan = plan_for(fl.schedule, kernels)
    # one phase per dispatch; a row program's steps of one dispatch share it
    phases = [step.s for step in plan.steps]
    assert phases == sorted(phases)
    assert sorted(set(phases)) == list(range(plan.n_steps))
    assert sanitize_schedule(fl.schedule, kernels, executor="plan").clean

    rng = np.random.default_rng(seed)
    state = allocate_state(kernels)
    state["Lx"][:] = low.data
    state["b"][:] = rng.uniform(-1.0, 1.0, low.n_rows)
    if spmv:
        state["Ax"][:] = low.to_csc().data
    expected = {v: a.copy() for v, a in state.items()}
    execute_schedule(fl.schedule, kernels, expected)
    execute_schedule_planned(fl.schedule, kernels, state)
    for var, ref in expected.items():
        if not internal_var(var):
            assert np.allclose(state[var], ref, atol=1e-12), var
