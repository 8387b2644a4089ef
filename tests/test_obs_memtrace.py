"""Dynamic dependence sanitizer: suite schedules are clean under both
executor models, seeded corruptions are caught with exact
provenance, and commutative-update exemptions hold."""

from dataclasses import replace

import numpy as np
import pytest

from repro import fuse
from repro.fusion import COMBINATIONS, build_combination, inspect_loops
from repro.obs import DependenceViolationError, sanitize_schedule
from repro.obs.memtrace import (
    READ,
    UPDATE,
    WRITE,
    collect_access_stream,
    derive_dependence_pairs,
    execution_coordinates,
)
from repro.runtime import execute_schedule, execute_schedule_planned, plan_for
from repro.schedule import (
    ScheduleError,
    lbc_schedule,
    validate_schedule,
    wavefront_schedule,
)
from repro.schedule.schedule import happens_before
from repro.solvers import build_gs_chain
from repro.solvers.pcg import build_ic0_preconditioner
from repro.sparse import apply_ordering, laplacian_2d, laplacian_3d

from .test_kernels_dataflow import all_kernels

EXECUTORS = ("iter", "plan")
STANDALONE = {"lbc": lbc_schedule, "wavefront": wavefront_schedule}
SHIPPED_KERNELS = [type(k).__name__ for k in all_kernels(laplacian_2d(3))]


def corrupt_across_barrier(schedule):
    """Swap a vertex of the first s-partition with one from the last.

    Moves a program-order-early iteration past a barrier it must precede
    (and a late one before barriers it must follow), so both the static
    oracle and the dynamic sanitizer ought to reject the result.
    """
    bad = schedule.copy()
    first = bad.s_partitions[0][0]
    last = bad.s_partitions[-1][0]
    first[-1], last[0] = last[0], first[-1]
    return bad


# ----------------------------------------------------------------------
# every suite schedule is clean, under every executor model
# ----------------------------------------------------------------------
@pytest.mark.parametrize("cid", sorted(COMBINATIONS))
@pytest.mark.parametrize("scheduler", ("ico", "joint-lbc", "joint-hdagg"))
def test_suite_schedules_sanitize_clean(cid, scheduler, lap2d_nd):
    kernels, _ = build_combination(cid, lap2d_nd, seed=cid)
    fl = fuse(kernels, 6, scheduler=scheduler)
    for executor in EXECUTORS:
        rep = sanitize_schedule(fl.schedule, kernels, executor=executor)
        assert rep.clean, rep.summary()
        assert rep.n_accesses > 0
        assert rep.n_pairs > 0  # real dependences were checked, not vacuous
        assert rep.executor == executor


def assert_sanitizes_clean(schedule, kernels, dags, inter):
    """Statically valid, and clean under both executor models."""
    validate_schedule(schedule, dags, inter)
    for executor in EXECUTORS:
        rep = sanitize_schedule(schedule, kernels, executor=executor)
        assert rep.clean, (executor, rep.summary())


@pytest.fixture(scope="module")
def lap2d_14_nd():
    a, _ = apply_ordering(laplacian_2d(14), "nd")
    return a


@pytest.mark.parametrize("scheduler", sorted(STANDALONE))
@pytest.mark.parametrize(
    "index", range(len(SHIPPED_KERNELS)), ids=SHIPPED_KERNELS
)
def test_every_shipped_kernel_sanitizes_clean(index, scheduler, lap2d_14_nd):
    kern = all_kernels(lap2d_14_nd)[index]
    dag = kern.intra_dag()
    schedule = STANDALONE[scheduler](dag, 6)
    assert_sanitizes_clean(schedule, [kern], [dag], {})


def test_pcg_preconditioner_sanitizes_clean():
    """Forward + backward solve over the IC0 factor, as PCG ships it."""
    a, _ = apply_ordering(laplacian_3d(8), "nd")
    kernels, schedule, _ = build_ic0_preconditioner(a)
    dags, inter, _ = inspect_loops(kernels)
    assert_sanitizes_clean(schedule, kernels, dags, inter)
    # the backward solve pulls finished z entries: moving its first row
    # past a barrier breaks the rows that read it
    bad = corrupt_across_barrier(schedule)
    for executor in EXECUTORS:
        rep = sanitize_schedule(bad, kernels, executor=executor)
        assert any(v.var == "z" for v in rep.violations), executor


def test_gs_chain_sanitizes_clean(lap2d_14_nd):
    """Two unrolled Gauss-Seidel sweeps: four fused loops."""
    kernels, _, _ = build_gs_chain(lap2d_14_nd, 2)
    fl = fuse(kernels, 6)
    assert_sanitizes_clean(fl.schedule, kernels, fl.dags, fl.inter)


def test_sanitize_matches_static_oracle_on_zoo(matrix_zoo):
    for name, a in matrix_zoo:
        kernels, _ = build_combination(1, a, seed=1)
        fl = fuse(kernels, 4)
        validate_schedule(fl.schedule, fl.dags, fl.inter)
        rep = sanitize_schedule(fl.schedule, kernels)
        assert rep.clean, (name, rep.summary())


# ----------------------------------------------------------------------
# seeded violations: caught, with exact provenance
# ----------------------------------------------------------------------
def test_seeded_violation_detected_with_provenance(lap2d_nd):
    kernels, _ = build_combination(1, lap2d_nd, seed=1)
    fl = fuse(kernels, 6)
    bad = corrupt_across_barrier(fl.schedule)

    rep = sanitize_schedule(bad, kernels)
    assert not rep.clean
    assert rep.n_violations >= 1
    assert len(rep.violations) >= 1

    v = rep.violations[0]
    assert v.kind in ("RAW", "WAR", "WAW")
    assert v.index >= 0
    # provenance coordinates must be the corrupted schedule's own
    offsets = bad.offsets
    for site in (v.producer, v.consumer):
        sp, wp, pos = (
            arr[offsets[site.loop] + site.iteration]
            for arr in bad.assignment()
        )
        assert (site.s, site.w) == (int(sp), int(wp))
        assert bad.s_partitions[site.s][site.w][pos] == (
            offsets[site.loop] + site.iteration
        )
        assert site.vertex == offsets[site.loop] + site.iteration
    # the producer is not ordered before the consumer
    assert (v.producer.s, v.producer.w) != (v.consumer.s, v.consumer.w) or (
        v.producer.t >= v.consumer.t
    )
    assert v.var in {n for k in kernels for n in k.all_vars}
    assert v.describe() in rep.format(max_lines=5)

    # the static oracle rejects the same corruption
    with pytest.raises(ScheduleError):
        validate_schedule(bad, fl.dags, fl.inter)


def test_corruption_caught_under_every_executor_model(lap2d_nd):
    kernels, _ = build_combination(1, lap2d_nd, seed=1)
    fl = fuse(kernels, 6)
    bad = corrupt_across_barrier(fl.schedule)
    for executor in EXECUTORS:
        rep = sanitize_schedule(bad, kernels, executor=executor)
        assert not rep.clean, executor


def test_max_violations_caps_list_not_count(lap2d_nd):
    kernels, _ = build_combination(1, lap2d_nd, seed=1)
    bad = corrupt_across_barrier(fuse(kernels, 6).schedule)
    full = sanitize_schedule(bad, kernels)
    capped = sanitize_schedule(bad, kernels, max_violations=1)
    assert len(capped.violations) == 1
    assert capped.n_violations == full.n_violations  # exact count survives


# ----------------------------------------------------------------------
# sanitize= on the executors
# ----------------------------------------------------------------------
def test_executors_accept_sanitize_kwarg(lap2d_nd):
    kernels, state = build_combination(1, lap2d_nd, seed=1)
    fl = fuse(kernels, 6)
    ref = {v: a.copy() for v, a in state.items()}
    for k in kernels:
        k.run_reference(ref)

    for run in (
        lambda st: execute_schedule(fl.schedule, kernels, st, sanitize=True),
        lambda st: execute_schedule_planned(
            fl.schedule, kernels, st, sanitize=True
        ),
    ):
        st = {v: a.copy() for v, a in state.items()}
        run(st)
        assert np.allclose(st["z"], ref["z"], atol=1e-9)


def test_executors_raise_on_corrupted_schedule(lap2d_nd):
    kernels, state = build_combination(1, lap2d_nd, seed=1)
    bad = corrupt_across_barrier(fuse(kernels, 6, validate=False).schedule)
    for run in (execute_schedule, execute_schedule_planned):
        st = {v: a.copy() for v, a in state.items()}
        with pytest.raises(DependenceViolationError) as exc:
            run(bad, kernels, st, sanitize=True)
        assert not exc.value.report.clean
        # DependenceViolationError is a ScheduleError: callers that
        # already catch schedule validation failures keep working
        assert isinstance(exc.value, ScheduleError)


# ----------------------------------------------------------------------
# commutative-update exemption
# ----------------------------------------------------------------------
def test_atomic_updates_exempt_only_when_declared(lap2d_nd):
    # combo 3's SpMV-CSC accumulates z via commutative +=; concurrent
    # w-partitions updating the same element is correct and must pass
    kernels, _ = build_combination(3, lap2d_nd, seed=3)
    fl = fuse(kernels, 6)
    assert sanitize_schedule(fl.schedule, kernels).clean

    # stripping the declaration makes those same accesses plain
    # read+write conflicts: the sanitizer must now flag them
    assert kernels[1].atomic_update_vars  # the declaration exists
    kernels[1].atomic_update_vars = {}
    rep = sanitize_schedule(fl.schedule, kernels)
    assert not rep.clean
    assert any(v.var == "z" for v in rep.violations)


def test_access_stream_classifies_update_kind(lap2d_nd):
    kernels, _ = build_combination(3, lap2d_nd, seed=3)
    fl = fuse(kernels, 6)
    stream = collect_access_stream(fl.schedule, kernels)
    z = stream.var_names.index("z")
    z_kinds = set(stream.kind[stream.var == z].tolist())
    assert z_kinds == {UPDATE}
    lx = stream.var_names.index("Lx")
    assert set(stream.kind[stream.var == lx].tolist()) == {READ}
    y = stream.var_names.index("y")
    assert WRITE in set(stream.kind[stream.var == y].tolist())


def test_same_loop_updates_generate_no_pairs(lap2d_nd):
    kernels, _ = build_combination(3, lap2d_nd, seed=3)
    fl = fuse(kernels, 6)
    stream = collect_access_stream(fl.schedule, kernels)
    pairs = derive_dependence_pairs(stream)
    z = stream.var_names.index("z")
    zsel = pairs.var == z
    # no UPDATE<->UPDATE pair may survive for the accumulator
    both_upd = (pairs.kind_u[zsel] == UPDATE) & (pairs.kind_v[zsel] == UPDATE)
    assert not both_upd.any()


# ----------------------------------------------------------------------
# executor coordinate models
# ----------------------------------------------------------------------
@pytest.mark.parametrize("executor", EXECUTORS)
def test_execution_coordinates_follow_executor_phases(
    executor, lap2d_nd, dependence_edges
):
    """``w`` is the schedule's under both models; ``s`` is the
    s-partition under ``iter`` and the plan step's phase under ``plan``;
    either way every dependence is happens-before ordered."""
    kernels, _ = build_combination(1, lap2d_nd, seed=1)
    fl = fuse(kernels, 6)
    sp, wp, tt = execution_coordinates(fl.schedule, kernels, executor)
    esp, ewp, _ = fl.schedule.assignment()
    np.testing.assert_array_equal(wp, ewp)
    if executor == "iter":
        np.testing.assert_array_equal(sp, esp)
    else:
        offsets = fl.schedule.offsets
        for step in plan_for(fl.schedule, kernels).steps:
            assert np.all(sp[step.iters + offsets[step.loop]] == step.s)
    assert tt.shape == sp.shape
    assert (tt >= 0).all()
    src, dst = dependence_edges(fl)
    assert np.all(sp[src] <= sp[dst])
    assert np.all(happens_before(sp, wp, tt, src, dst))


def test_incomplete_schedule_rejected(lap2d_nd):
    kernels, _ = build_combination(1, lap2d_nd, seed=1)
    bad = fuse(kernels, 6).schedule.copy()
    bad.s_partitions[0][0] = bad.s_partitions[0][0][:-1]
    with pytest.raises(ScheduleError, match="unscheduled"):
        sanitize_schedule(bad, kernels)


def test_kernel_count_mismatch_rejected(lap2d_nd):
    kernels, _ = build_combination(1, lap2d_nd, seed=1)
    fl = fuse(kernels, 6)
    with pytest.raises(ValueError, match="kernels"):
        sanitize_schedule(fl.schedule, kernels[:1])


# ----------------------------------------------------------------------
# report surface
# ----------------------------------------------------------------------
def test_report_json_and_text(lap2d_nd):
    kernels, _ = build_combination(1, lap2d_nd, seed=1)
    fl = fuse(kernels, 6)
    rep = sanitize_schedule(fl.schedule, kernels)
    assert "clean" in rep.summary()
    payload = rep.to_json()
    assert payload["clean"] is True
    assert payload["executor"] == "iter"
    assert payload["n_pairs"] == rep.n_pairs
    assert payload["violations"] == []
    rep.raise_if_violations()  # no-op when clean

    bad_rep = sanitize_schedule(corrupt_across_barrier(fl.schedule), kernels)
    payload = bad_rep.to_json()
    assert payload["clean"] is False
    assert payload["n_violations"] == bad_rep.n_violations
    first = payload["violations"][0]
    assert {"kind", "var", "index", "producer", "consumer"} <= set(first)
    assert {"loop", "iteration", "vertex", "s", "w", "t"} <= set(
        first["producer"]
    )
    with pytest.raises(DependenceViolationError):
        bad_rep.raise_if_violations()


def test_sanitizer_emits_registered_counters(lap2d_nd):
    from repro.obs import Recorder, names
    from repro.obs.recorder import set_recorder

    kernels, _ = build_combination(1, lap2d_nd, seed=1)
    fl = fuse(kernels, 6)
    rec = Recorder()
    prev = set_recorder(rec)
    try:
        sanitize_schedule(fl.schedule, kernels)
    finally:
        set_recorder(prev)
    assert rec.counters[names.SANITIZE_ACCESSES] > 0
    assert rec.counters[names.SANITIZE_PAIRS] > 0
    assert rec.counters[names.SANITIZE_VIOLATIONS] == 0
    assert any(s.name == "sanitize.run" for s in rec.spans)
    for name in rec.counters:
        assert name in names.REGISTRY


# -- a plan's step phases must follow its step list -------------------------
def _combo1_plan():
    """Combo 1 on ``laplacian_2d(12)``: fused schedule, kernels and its
    compiled plan."""
    from repro.runtime import compile_plan

    kernels, _ = build_combination(1, laplacian_2d(12))
    fused = fuse(kernels, 8)
    plan = compile_plan(fused.schedule, kernels)
    assert plan.n_steps > 2
    return fused.schedule, kernels, plan


def test_reversed_steps_with_their_phases_are_rejected():
    # runs illegally (consumers first); its old phases used to model the
    # original order, so the sanitizer reported it clean
    schedule, kernels, plan = _combo1_plan()
    reversed_plan = replace(plan, steps=plan.steps[::-1])
    with pytest.raises(ValueError, match=r"plan step 1 \(loop 1\) has phase s="):
        sanitize_schedule(schedule, kernels, executor="plan", plan=reversed_plan)
    with pytest.raises(ValueError, match="plan step 1"):
        execution_coordinates(schedule, kernels, "plan", plan=reversed_plan)


def test_legal_order_with_reversed_phases_is_rejected():
    # runs legally, but its phases claim the reverse order: the sanitizer
    # used to report false violations for it
    schedule, kernels, plan = _combo1_plan()
    phases = [st.s for st in plan.steps][::-1]
    relabelled = replace(
        plan, steps=[replace(st, s=s) for st, s in zip(plan.steps, phases)]
    )
    with pytest.raises(ValueError, match=r"plan step 1 \(loop 0\) has phase s="):
        sanitize_schedule(schedule, kernels, executor="plan", plan=relabelled)
    assert sanitize_schedule(schedule, kernels, executor="plan", plan=plan).clean
