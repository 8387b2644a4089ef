"""Compiled-plan executor: equivalence, memoization, degenerate schedules.

The equivalence contract (docs/performance.md): for kernels whose batch
arithmetic is elementwise or preserves the scalar accumulation order
(DSCAL, SpIC0, SpILU0, the CSC/push solves), planned execution is
**bitwise identical** to the per-iteration oracle; for kernels whose
row reductions switch from ``np.dot`` to a compiled row-block product
that starts from the right-hand side (the CSR gather kernels), results
agree to tight tolerance — association order is the only difference.
"""

import numpy as np
import pytest

from repro import fuse
from repro.fusion import COMBINATIONS, build_combination
from repro.kernels import (
    Kernel,
    SpMVCSR,
    SpTRSVCSR,
    SpTRSVCSRFromLU,
    internal_var,
)
from repro.runtime import (
    allocate_state,
    compile_plan,
    execute_schedule,
    execute_schedule_planned,
    plan_for,
)
from repro.runtime.plan import _plan_record
from repro.baselines.unfused import parsy_schedule
from repro.obs import recording
from repro.schedule import FusedSchedule
from repro.schedule.wavefront import level_schedule
from repro.solvers import build_gs_chain
from repro.solvers.pcg import build_ic0_preconditioner


def _step_sets(plan):
    """Each step's loop and iteration set, in plan order."""
    return [(st.loop, tuple(np.sort(st.iters))) for st in plan.steps]


def _joint_dag_levels(n, src, dst):
    """Longest-path levels of the DAG ``src -> dst`` on *n* vertices,
    by the ``DAG`` class's own pass, independent of the plan compiler."""
    from repro.graph import DAG

    return DAG.from_edges(n, np.stack([src, dst], axis=1)).levels()


def _run_both(schedule, kernels, state, **plan_kwargs):
    st1 = {k: v.copy() for k, v in state.items()}
    st2 = {k: v.copy() for k, v in state.items()}
    execute_schedule(schedule, kernels, st1)
    execute_schedule_planned(schedule, kernels, st2, **plan_kwargs)
    return st1, st2


class TestEquivalence:
    @pytest.mark.parametrize("cid", sorted(COMBINATIONS))
    def test_matches_per_iteration_all_combos(self, cid, lap3d_nd):
        kernels, state = build_combination(cid, lap3d_nd, seed=cid)
        fl = fuse(kernels, 8)
        st1, st2 = _run_both(fl.schedule, kernels, state)
        for var in st1:
            if internal_var(var):
                continue
            assert np.allclose(st1[var], st2[var], atol=1e-12), (cid, var)

    @pytest.mark.parametrize("cid", sorted(COMBINATIONS))
    def test_matches_on_band_matrix(self, cid, band_small):
        """Deep narrow DAG: most levels are single-vertex (scalar path)."""
        kernels, state = build_combination(cid, band_small, seed=cid)
        fl = fuse(kernels, 4)
        st1, st2 = _run_both(fl.schedule, kernels, state)
        for var in st1:
            if internal_var(var):
                continue
            assert np.allclose(st1[var], st2[var], atol=1e-12), (cid, var)

    def test_factorizations_bitwise(self, lap3d_nd):
        """SpIC0/SpILU0 level batches replay the exact scalar update
        order — not just close, identical — even when a level step spans
        several w-partitions."""
        for cid in (2, 4, 5, 6):  # the factorization combinations
            kernels, state = build_combination(cid, lap3d_nd, seed=cid)
            fl = fuse(kernels, 8)
            st1, st2 = _run_both(fl.schedule, kernels, state)
            for kern in kernels:
                if type(kern).__name__ in ("SpIC0", "SpILU0", "DScalCSR", "DScalCSC"):
                    for var in kern.write_vars:
                        assert np.array_equal(st1[var], st2[var]), (
                            cid,
                            type(kern).__name__,
                            var,
                        )

    def test_one_iteration_steps_are_bitwise_scalar(self, band_small, rng):
        """Every level of a natural-order band holds one row, so every
        kernel step of the dependence-carrying kernels holds one
        iteration, has no precomputation and runs ``run_iteration``:
        bitwise equal to the ``iter`` oracle. Combinations 4 and 5 hold
        SpIC0, SpTRSV-CSC, SpILU0 and SpTRSV from LU. Combination 1 and
        the preconditioner pair are row programs, whose every dispatch
        runs the compiled row-block product (``TestJointLevels``)."""
        cases = []
        for cid in (4, 5):
            kernels, state = build_combination(cid, band_small, seed=cid)
            cases.append((fuse(kernels, 4).schedule, kernels, state))
        for schedule, kernels, state in cases:
            plan = compile_plan(schedule, kernels)
            assert plan.n_level_steps == 0
            assert plan.n_scalar_iterations == schedule.n_vertices
            for step in plan.steps:
                assert step.iters.shape[0] == 1 and step.precomp is None
            st1, st2 = _run_both(schedule, kernels, state, plan=plan)
            for var in st1:
                assert np.array_equal(st1[var], st2[var]), var

    def test_equals_iter_on_zoo(self, matrix_zoo):
        """Every structural regime: the CSR solves of combo 1 agree with
        the ``iter`` oracle to tight tolerance (reduction association
        order only); combo 6's DSCAL + SpIC0 agree bitwise."""
        for name, mat in matrix_zoo:
            for cid, bitwise in ((1, False), (6, True)):
                kernels, state = build_combination(cid, mat, seed=3)
                fl = fuse(kernels, 4)
                st1, st2 = _run_both(fl.schedule, kernels, state)
                for var in st1:
                    if internal_var(var):
                        continue
                    if bitwise:
                        assert np.array_equal(st1[var], st2[var]), (name, var)
                    else:
                        assert np.allclose(
                            st1[var], st2[var], rtol=1e-13, atol=1e-13
                        ), (name, var)

    def test_kernel_error_propagates(self, lap2d_nd, band_small):
        """An ILU0 zero pivot raises out of the plan executor on both
        the level and the one-iteration step paths: row 0 is in a wide
        first level of the nested-dissection Laplacian and alone in the
        first level of the natural-order band."""
        for a, wide in ((lap2d_nd, True), (band_small, False)):
            kernels, state = build_combination(5, a)
            state["Ax"][a.diagonal_positions()[0]] = 0.0
            fl = fuse(kernels, 2, validate=False)
            plan = compile_plan(fl.schedule, kernels)
            (first,) = [st for st in plan.steps if st.loop == 0 and 0 in st.iters]
            assert (first.iters.shape[0] > 1) == wide
            with pytest.raises(ValueError, match="pivot"):
                execute_schedule_planned(fl.schedule, kernels, state, plan=plan)

    def test_planned_deterministic_across_runs(self, lap3d_nd):
        """Two planned executions of the same plan are bitwise equal."""
        kernels, state = build_combination(3, lap3d_nd, seed=5)
        fl = fuse(kernels, 8)
        st1 = {k: v.copy() for k, v in state.items()}
        st2 = {k: v.copy() for k, v in state.items()}
        execute_schedule_planned(fl.schedule, kernels, st1)
        execute_schedule_planned(fl.schedule, kernels, st2)
        for var in st1:
            assert np.array_equal(st1[var], st2[var]), var


class TestSPartitionSteps:
    """Plan steps of a valid schedule merge across s-partitions: one
    step per (loop, intra-DAG level) wherever the dependences allow."""

    @pytest.mark.parametrize("cid", sorted(COMBINATIONS))
    def test_steps_hold_one_loop_level_each(self, cid, lap3d_nd, dependence_edges):
        """Each step holds one loop's iterations of one level: the intra
        level in a plan of kernel steps, the joint level in a row program
        (combination 1), whose steps of one joint level form one
        dispatch."""
        kernels, _ = build_combination(cid, lap3d_nd, seed=cid)
        fl = fuse(kernels, 8)
        offsets = fl.schedule.offsets
        plan = compile_plan(fl.schedule, kernels)
        src, dst = dependence_edges(fl)
        joint = _joint_dag_levels(fl.schedule.n_vertices, src, dst)
        assert (plan.rows is not None) == (cid == 1)
        step_of = np.full(fl.schedule.n_vertices, -1)
        for i, step in enumerate(plan.steps):
            gids = step.iters + offsets[step.loop]
            if plan.rows is None:
                levels = kernels[step.loop].intra_dag().levels()[step.iters]
            else:
                levels = joint[gids]
                assert np.all(levels == step.s), i
            assert np.unique(levels).shape[0] == 1, i
            assert np.all(step_of[gids] == -1), "iteration in two steps"
            step_of[gids] = i if plan.rows is None else step.s
        assert np.all(step_of >= 0), "iteration in no step"
        assert np.all(step_of[src] < step_of[dst])
        # a merged plan's happens-before phases are its dispatch indices
        phases = [step.s for step in plan.steps]
        assert phases == sorted(phases)
        assert sorted(set(phases)) == list(range(plan.n_steps))
        if plan.rows is None:
            assert phases == list(range(plan.n_steps))

    @pytest.mark.parametrize("n_threads", [2, 4, 16])
    @pytest.mark.parametrize("cid", sorted(COMBINATIONS))
    def test_level_steps_meet_lower_bound(
        self, cid, n_threads, lap3d_nd, dependence_edges
    ):
        """One step per intra level of every loop — the fewest any legal
        plan of kernel steps can have — and never more steps than the
        unfused plan. A step is a level step, with a precomputation,
        exactly when it holds two or more iterations. A row program
        (combination 1) has one dispatch per joint level, the fewest any
        legal plan can have, and its steps hold no precomputation."""
        kernels, _ = build_combination(cid, lap3d_nd, seed=cid)
        fl = fuse(kernels, n_threads)
        plan = compile_plan(fl.schedule, kernels)
        unfused = compile_plan(parsy_schedule(kernels, n_threads), kernels)
        assert plan.n_steps <= unfused.n_steps
        if plan.rows is not None:
            src, dst = dependence_edges(fl)
            joint = _joint_dag_levels(fl.schedule.n_vertices, src, dst)
            sizes = np.bincount(joint)
            assert plan.n_steps == sizes.shape[0] < sum(
                int(k.intra_dag().levels().max()) + 1 for k in kernels
            )
            assert plan.n_level_steps == int((sizes > 1).sum())
            assert all(st.precomp is None for st in plan.steps)
            return
        for k, kern in enumerate(kernels):
            sizes = np.bincount(kern.intra_dag().levels())
            mine = [step for step in plan.steps if step.loop == k]
            assert len(mine) == sizes.shape[0], k
            assert sorted(st.iters.shape[0] for st in mine) == sorted(sizes), k
            for step in mine:
                assert (step.precomp is None) == (step.iters.shape[0] == 1), k
        assert plan.n_level_steps == sum(st.iters.shape[0] > 1 for st in plan.steps)

    def test_solver_plans_no_longer_than_unfused(self, lap3d_nd):
        """The Gauss-Seidel chunk and the IC0 preconditioner: the level
        plan the solvers ship runs the fused plan's steps, which are no
        more dispatches than the unfused ParSy plan's."""
        gs, _, _ = build_gs_chain(lap3d_nd, 2)
        pcg, _, _ = build_ic0_preconditioner(lap3d_nd)
        for kernels in (gs, pcg):
            shipped = plan_for(level_schedule(kernels), kernels)
            fused = plan_for(fuse(kernels, 8).schedule, kernels)
            unfused = plan_for(parsy_schedule(kernels, 8), kernels)
            assert _step_sets(shipped) == _step_sets(fused)
            assert fused.n_steps_merged > 0
            assert shipped.n_steps <= unfused.n_steps

    def test_same_s_cross_w_dependence_still_flagged(self):
        """A dependence between two w-partitions of one s-partition
        breaks the schedule contract even though the merged plan happens
        to order it; the plan sanitizer must still report it."""
        from repro.obs.memtrace import execution_coordinates
        from repro.obs import sanitize_schedule
        from repro.schedule import ScheduleError, validate_schedule
        from repro.sparse import banded_spd

        low = banded_spd(16, 1).lower_triangle()  # chain 0 -> 1 -> ...
        kern = SpTRSVCSR(low)
        verts = np.arange(kern.n_iterations, dtype=np.int64)
        sched = FusedSchedule(
            (kern.n_iterations,), [[verts[0::2], verts[1::2]]]
        )
        with pytest.raises(ScheduleError):
            validate_schedule(sched, [kern.intra_dag()])
        rep = sanitize_schedule(sched, [kern], executor="plan")
        assert not rep.clean
        v = rep.violations[0]
        assert v.producer.s == v.consumer.s
        assert v.producer.w != v.consumer.w
        # plan dispatch numbers are per s-partition: distinct and ordered
        _, _, tt = execution_coordinates(sched, [kern], "plan")
        assert np.array_equal(np.sort(tt), np.arange(kern.n_iterations))


def _rows_without_entries(kern):
    """Rows whose row block is empty: SpMV-CSR rows with no entries and
    SpTRSV rows with no off-diagonals, or ``None`` for other kernels."""
    if isinstance(kern, SpMVCSR):
        return np.flatnonzero(kern.a.row_nnz() == 0)
    if isinstance(kern, SpTRSVCSR):
        return np.flatnonzero(kern.low.row_nnz() == 1)
    if isinstance(kern, SpTRSVCSRFromLU):
        return np.flatnonzero(kern._diag_off == kern.a.indptr[:-1])
    return None


class TestEmptyRowSteps:
    """Row-block steps over rows with no entries: an empty SpMV-CSR row
    is exactly zero (or exactly its addend), and an SpTRSV row without
    off-diagonals matches the ``iter`` oracle within 1e-13."""

    @staticmethod
    def _check(schedule, kernels, state):
        n_rows = 0
        want, got = _run_both(schedule, kernels, state)
        for kern in kernels:
            rows = _rows_without_entries(kern)
            if rows is None:
                continue
            n_rows += rows.shape[0]
            if isinstance(kern, SpMVCSR):
                y = got[kern.y_var][rows]
                add = np.zeros_like(y)
                if kern.add_var:
                    add = got[kern.add_var][rows]
                assert y.tobytes() == add.tobytes(), kern.name
            else:
                x = kern.x_var
                assert np.allclose(
                    got[x][rows], want[x][rows], rtol=0, atol=1e-13
                ), kern.name
        return n_rows

    @pytest.mark.parametrize("cid", sorted(COMBINATIONS))
    def test_all_combos(self, cid, lap3d_nd):
        kernels, state = build_combination(cid, lap3d_nd, seed=cid)
        self._check(fuse(kernels, 8).schedule, kernels, state)

    def test_gs_chain(self, lap3d_nd, rng):
        kernels, _, _ = build_gs_chain(lap3d_nd, 2)
        state = allocate_state(kernels)
        for values in state.values():
            values[:] = rng.uniform(0.5, 1.5, values.shape[0])
        # the strict-upper SpMV operand has empty rows, the solve rows
        # without off-diagonals
        assert self._check(fuse(kernels, 8).schedule, kernels, state) > 0


class TestDegenerateSchedules:
    def test_empty_w_partitions(self, lap2d_nd, rng):
        """Schedules may carry empty w-partitions; the compiler must
        skip them without emitting steps."""
        low = lap2d_nd.lower_triangle()
        kern = SpTRSVCSR(low)
        wf = kern.intra_dag().wavefronts()
        empty = np.empty(0, dtype=np.int64)
        s_partitions = [[w.astype(np.int64), empty, empty] for w in wf]
        sched = FusedSchedule((kern.n_iterations,), s_partitions)
        state = allocate_state([kern])
        state["Lx"][:] = low.data
        state["b"][:] = rng.random(low.n_rows)
        st1, st2 = _run_both(sched, [kern], state)
        assert np.allclose(st1["x"], st2["x"], atol=1e-13)

    def test_single_vertex_levels(self, rng):
        """A fully sequential chain: every step holds one iteration and
        runs ``run_iteration``."""
        from repro.sparse import banded_spd

        a = banded_spd(60, 1)  # tridiagonal -> pure chain
        low = a.lower_triangle()
        kern = SpTRSVCSR(low)
        sched = FusedSchedule(
            (kern.n_iterations,),
            [[np.arange(kern.n_iterations, dtype=np.int64)]],
        )
        state = allocate_state([kern])
        state["Lx"][:] = low.data
        state["b"][:] = rng.random(low.n_rows)
        st1, st2 = _run_both(sched, [kern], state)
        assert np.array_equal(st1["x"], st2["x"])
        plan = compile_plan(sched, [kern])
        assert plan.n_level_steps == 0  # all one-iteration steps

    def test_empty_loop(self):
        """Zero-iteration loops compile to an empty plan."""
        from repro.sparse import laplacian_2d
        from repro.kernels import SpMVCSR

        a = laplacian_2d(3)
        kern = SpMVCSR(a)
        sched = FusedSchedule((a.n_rows,), [[np.arange(a.n_rows, dtype=np.int64)]])
        plan = compile_plan(sched, [kern])
        assert plan.n_steps >= 1


class TestMemoization:
    def test_cache_hits_counted(self, lap2d_nd):
        kernels, state = build_combination(3, lap2d_nd, seed=0)
        fl = fuse(kernels, 4)
        with recording() as rec:
            st = {k: v.copy() for k, v in state.items()}
            execute_schedule_planned(fl.schedule, kernels, st)
            execute_schedule_planned(fl.schedule, kernels, st)
            execute_schedule_planned(fl.schedule, kernels, st)
        assert rec.counter("plan.cache_misses") == 1
        assert rec.counter("plan.cache_hits") == 2
        assert rec.counter("plan.compile_seconds") > 0

    def test_plan_identity_reused(self, lap2d_nd):
        kernels, _ = build_combination(1, lap2d_nd)
        fl = fuse(kernels, 4)
        assert plan_for(fl.schedule, kernels) is plan_for(fl.schedule, kernels)

    def test_kernel_objects_key_cache(self, lap2d_nd):
        """The memo is keyed by the kernel objects: equal kernels built
        again compile their own plan, holding the new kernels."""
        kernels, _ = build_combination(1, lap2d_nd)
        fl = fuse(kernels, 4)
        again, _ = build_combination(1, lap2d_nd)
        first = plan_for(fl.schedule, kernels)
        second = plan_for(fl.schedule, again)
        assert first is not second
        assert second.kernels == again
        assert _step_sets(first) == _step_sets(second)

    def test_schedule_copy_does_not_share_plans(self, lap2d_nd):
        """copy() duplicates meta, so a copied schedule re-compiles —
        plan-cache invalidation is by schedule object identity."""
        kernels, _ = build_combination(1, lap2d_nd)
        fl = fuse(kernels, 4)
        p = plan_for(fl.schedule, kernels)
        dup = fl.schedule.copy()
        with recording() as rec:
            plan_for(dup, kernels)
        assert rec.counter("plan.cache_misses") == 1
        assert p is not plan_for(dup, kernels)

    def test_mismatched_kernels_rejected(self, lap2d_nd):
        kernels, state = build_combination(1, lap2d_nd)
        bad = FusedSchedule((1,), [[np.array([0])]])
        with pytest.raises(ValueError):
            execute_schedule_planned(bad, kernels, state)

    def test_plan_for_other_loop_counts_rejected(self):
        """A caller's plan compiled for a smaller loop must not run on a
        larger one, which would leave the iterations it lacks unwritten."""
        from repro.sparse import laplacian_2d

        small = SpTRSVCSR(laplacian_2d(8).lower_triangle())
        large = SpTRSVCSR(laplacian_2d(10).lower_triangle())
        plan = plan_for(level_schedule([small]), [small])
        sched = level_schedule([large])
        state = allocate_state([large])
        with pytest.raises(ValueError, match="loop 0: kernel has 100 iterations"):
            execute_schedule_planned(sched, [large], state, plan=plan)

    @pytest.mark.parametrize("cid", [1, 3])
    def test_short_row_block_vector_rejected(self, cid, lap2d_nd):
        """A state vector shorter than a row block's columns reach is
        refused before any step runs: the compiled product checks no
        bounds and would read past its end."""
        kernels, state = build_combination(cid, lap2d_nd)
        fl = fuse(kernels, 4)
        var = kernels[0].row_block_var
        short = dict(state, **{var: state[var][:-1].copy()})
        with pytest.raises(ValueError, match=f"'{var}' holds"):
            execute_schedule_planned(fl.schedule, kernels, short)
        with pytest.raises(ValueError, match=f"'{var}' holds"):
            execute_schedule_planned(
                fl.schedule, kernels, short, plan=plan_for(fl.schedule, kernels)
            )


class TestSolverIntegration:
    def test_gs_planned_sweeps_match_iter(self, lap2d_nd, rng):
        """Repeated planned sweeps on evolving state — the cache-hit
        regime — stay consistent with the per-iteration executor."""
        from repro.solvers import build_gs_chain
        from repro.solvers.gauss_seidel import gs_split

        kernels, xi, xo = build_gs_chain(lap2d_nd, 2)
        fl = fuse(kernels, 6, validate=False)
        low, e = gs_split(lap2d_nd)
        st1 = allocate_state(kernels)
        st1["Lx"][:] = low.data
        st1["Ex"][:] = e.data
        st1["b"][:] = rng.random(lap2d_nd.n_rows)
        st2 = {k: v.copy() for k, v in st1.items()}
        for _ in range(10):
            execute_schedule(fl.schedule, kernels, st1)
            st1[xi][:] = st1[xo]
            execute_schedule_planned(fl.schedule, kernels, st2)
            st2[xi][:] = st2[xo]
        assert np.allclose(st1[xo], st2[xo], atol=1e-13)

    def test_gauss_seidel_executor_plan(self, lap2d_nd, rng):
        from repro.solvers import gauss_seidel

        b = rng.random(lap2d_nd.n_rows)
        ref = gauss_seidel(lap2d_nd, b, tol=1e-8, executor="iter")
        res = gauss_seidel(lap2d_nd, b, tol=1e-8, executor="plan")
        assert res.converged
        assert res.iterations == ref.iterations
        assert np.allclose(res.x, ref.x, atol=1e-10)

    def test_solvers_compile_once_per_solve(self, lap2d_nd, rng):
        """Each solve compiles its level plan once (the default executor)
        and binds it; every preconditioner application or sweep then runs
        the bound plan with no further memo lookup."""
        from repro.solvers import gauss_seidel, pcg_ic0

        b = rng.random(lap2d_nd.n_rows)
        for solve in (
            lambda: pcg_ic0(lap2d_nd, b, tol=1e-10),
            lambda: gauss_seidel(lap2d_nd, b, tol=1e-8),
        ):
            with recording() as rec:
                res = solve()
            assert res.converged
            assert rec.counter("plan.cache_misses") == 1
            assert rec.counter("plan.cache_hits") == 0
            assert rec.counter("plan.bound_steps") > 0

    def test_gauss_seidel_rejects_unknown_executor(self, lap2d_nd, rng):
        from repro.solvers import gauss_seidel

        with pytest.raises(ValueError):
            gauss_seidel(lap2d_nd, rng.random(lap2d_nd.n_rows), executor="bogus")


class TestWavefrontMemoization:
    def test_wavefronts_cached(self, lap2d_nd):
        dag = lap2d_nd.lower_triangle().to_csc()
        from repro.graph import DAG

        g = DAG.from_lower_triangular(dag)
        w1 = g.wavefronts()
        w2 = g.wavefronts()
        assert w1 is w2
        assert sum(w.shape[0] for w in w1) == g.n

    def test_wavefronts_match_levels(self, lap3d_nd):
        from repro.graph import DAG

        g = DAG.from_lower_triangular(lap3d_nd.lower_triangle().to_csc())
        lv = g.levels()
        for level, verts in enumerate(g.wavefronts()):
            assert np.all(lv[verts] == level)
            assert np.all(np.diff(verts) > 0)  # sorted ascending


class TestObsCounters:
    def test_executor_counters_recorded(self, lap3d_nd):
        kernels, state = build_combination(3, lap3d_nd, seed=3)
        fl = fuse(kernels, 8)
        with recording() as rec:
            execute_schedule_planned(fl.schedule, kernels, state)
        assert rec.counter("executor.batched_iterations") > 0
        assert rec.counter("executor.level_count") > 0
        names = [s.name for s in rec.spans]
        assert "plan.compile" in names
        assert "executor.run" in names


def _program_matches_precompute(plan):
    """Each dispatch of *plan*'s row program is its steps' single-step
    ``precompute_levels`` row blocks stacked in step order, with columns,
    value positions and divisors as offsets into the program's buffers,
    and its right-hand sides and writes are the rows' own elements."""
    from repro.kernels.base import _at

    rows = plan.rows
    values = {(mat, negate): lo for mat, negate, lo, _ in rows.values}
    steps = iter(plan.steps)
    step = next(steps, None)
    for d, (rhs, ptr, cols, gather, diag, out) in enumerate(rows.steps):
        want = {k: [] for k in ("ptr", "cols", "gather", "diag", "rhs", "out")}
        while step is not None and step.s == d:
            kern = plan.kernels[step.loop]
            form = kern.row_form
            block = kern.precompute_levels(step.iters, [len(step.iters)])[0]
            base = sum(len(c) for c in want["cols"])
            want["ptr"].append(block["ptr"][int(bool(want["ptr"])):] + base)
            want["cols"].append(block["cols"] + rows.layout[form.src][0])
            want["gather"].append(block["gather"] + values[form.mat, form.negate])
            want["diag"].append(
                np.zeros(len(step.iters), dtype=np.int64)
                if form.diag is None
                else block["diag"] + values[form.mat, False]
            )
            want["rhs"].append(
                np.zeros(len(step.iters), dtype=np.int64)
                if form.rhs is None
                else _at(form.rhs_at, step.iters) + rows.layout[form.rhs][0]
            )
            want["out"].append(_at(form.out_at, step.iters) + rows.layout[form.out][0])
            step = next(steps, None)
        got = dict(ptr=ptr, cols=cols, gather=gather, diag=diag, rhs=rhs, out=out)
        for key, parts in want.items():
            assert np.array_equal(np.concatenate(parts), got[key]), (d, key)
    assert step is None


class TestBatchedPrecompute:
    """compile_plan precomputes all of a loop's level steps in one
    ``precompute_levels`` pass, equal to one single-step pass per step;
    a row program's dispatches stack those same row blocks."""

    @staticmethod
    def _extra_patterns():
        from .test_kernels_dataflow import MAP_PATTERNS

        return [(name, make()) for name, make in MAP_PATTERNS.items()]

    @pytest.mark.parametrize("seed", [1, 4])
    def test_steps_equal_per_step_precompute(self, seed, matrix_zoo):
        """Each loop runs as one w-partition in a random order, so its
        steps hold their iterations in that order, not sorted."""
        from .test_kernels_dataflow import all_kernels
        from .test_plan_store import _trees_equal

        rng = np.random.default_rng(seed)
        checked = set()
        for name, mat in [*matrix_zoo, *self._extra_patterns()]:
            for kern in all_kernels(mat):
                n = kern.n_iterations
                sched = FusedSchedule((n,), [[rng.permutation(n)]])
                plan = compile_plan(sched, [kern])
                if plan.rows is not None:
                    _program_matches_precompute(plan)
                    checked.add(kern.name)
                    continue
                for step in plan.steps:
                    if step.iters.shape[0] > 1:
                        want = kern.precompute_levels(step.iters, [len(step.iters)])[0]
                        assert _trees_equal(step.precomp, want), (name, kern.name)
                        checked.add(kern.name)
        assert len(checked) == 11

    @pytest.mark.parametrize("n_threads", [1, 4])
    def test_fused_plans_equal_per_step_precompute(self, n_threads, lap3d_nd):
        from .test_plan_store import _trees_equal

        for cid in sorted(COMBINATIONS):
            kernels, _ = build_combination(cid, lap3d_nd, seed=cid)
            fl = fuse(kernels, n_threads)
            plan = compile_plan(fl.schedule, kernels)
            if plan.rows is not None:
                _program_matches_precompute(plan)
                continue
            for step in plan.steps:
                if step.iters.shape[0] > 1:
                    want = kernels[step.loop].precompute_levels(
                        step.iters, [len(step.iters)]
                    )[0]
                    assert _trees_equal(step.precomp, want), (cid, step.loop)

    def test_arbitrary_batches_and_empty_ones(self, lap2d_nd, rng):
        """Overrides split any batching, empty batches included."""
        from .test_kernels_dataflow import all_kernels
        from .test_plan_store import _trees_equal

        for kern in all_kernels(lap2d_nd):
            iters = rng.permutation(kern.n_iterations)[:90]
            sizes = [0, 7, 1, 0, 30, 52, 0]
            got = kern.precompute_levels(iters, sizes)
            assert len(got) == len(sizes)
            bounds = np.cumsum([0, *sizes])
            for p, a, b in zip(got, bounds[:-1], bounds[1:]):
                want = kern.precompute_levels(iters[a:b], [b - a])[0]
                assert _trees_equal(p, want), kern.name

    @pytest.mark.parametrize("name", ["combo4", "combo5", "gs-chain"])
    def test_stored_plan_runs_bitwise_equal_to_compiled(self, name, tmp_path):
        """A plan stored by this compiler loads and runs bitwise equal to
        a freshly compiled one."""
        from .test_plan_store import (
            _bitwise_equal,
            _compiled_run,
            _fuse_and_run,
            _matrix,
        )

        a = _matrix()
        _fuse_and_run(name, a, tmp_path)  # compiles and stores
        _, state, cache = _fuse_and_run(name, a, tmp_path)
        assert cache.stats["plan_disk_hits"] == 1
        assert _bitwise_equal(state, _compiled_run(name, a))


class _LoopedTRSV(SpTRSVCSR):
    """SpTRSV-CSR with the ``Kernel`` defaults for every plan hook: no
    row form and no vectorized path, so its level steps run one
    iteration at a time."""

    row_form = Kernel.row_form
    precompute_levels = Kernel.precompute_levels
    bind_level = Kernel.bind_level
    run_level_batch = Kernel.run_level_batch


class TestKernelWithoutVectorizedPath:
    """The ``Kernel`` defaults are a complete level-step contract: a
    kernel that overrides none of the plan hooks still compiles to one
    step per intra level and runs as the per-iteration executor does."""

    def test_one_step_per_level_bitwise_equal_and_clean(self, lap2d_nd, rng):
        from repro.obs import sanitize_schedule

        low = lap2d_nd.lower_triangle()
        kern = _LoopedTRSV(low)
        sched = level_schedule([kern])
        plan = compile_plan(sched, [kern])
        levels = kern.intra_dag().levels()
        assert plan.n_steps == int(levels.max()) + 1
        assert plan.n_level_steps > 0
        for step in plan.steps:
            assert np.unique(levels[step.iters]).shape[0] == 1
            assert step.precomp is None
        state = allocate_state([kern])
        state["Lx"][:] = low.data
        state["b"][:] = rng.random(low.n_rows)
        # Lx is never written, so every run may share it, as a bound plan needs
        fresh = lambda: {k: v if k == "Lx" else v.copy() for k, v in state.items()}
        want = execute_schedule(sched, [kern], fresh())
        for run in (plan, plan.bind(state, ("Lx",))):
            got = execute_schedule_planned(sched, [kern], fresh(), plan=run)
            assert np.array_equal(got["x"], want["x"])
        assert sanitize_schedule(sched, [kern], executor="plan", plan=plan).clean
        # a stored level step is told apart by its precomputation, so a
        # plan whose level steps have none never reaches the plan store
        with pytest.raises(TypeError, match="without a precomputation"):
            _plan_record(plan)


class TestSanitizeChecksThePlanThatRuns:
    """``sanitize=True`` with a caller's plan checks that plan, not the
    one ``plan_for`` would find or compile."""

    def test_illegal_plan_refused_before_running(self):
        from dataclasses import replace

        from repro.obs import DependenceViolationError
        from repro.sparse import laplacian_2d

        kernels, state = build_combination(1, laplacian_2d(12))
        fl = fuse(kernels, 8)
        legal = compile_plan(fl.schedule, kernels)
        # the merged plan backwards, each step's phase its new index
        reversed_plan = replace(
            legal,
            steps=[replace(st, s=i) for i, st in enumerate(legal.steps[::-1])],
        )
        st = {k: v.copy() for k, v in state.items()}
        with pytest.raises(DependenceViolationError):
            execute_schedule_planned(
                fl.schedule, kernels, st, plan=reversed_plan, sanitize=True
            )
        for var, values in state.items():
            assert np.array_equal(st[var], values), var  # nothing ran

        with recording() as rec:
            execute_schedule_planned(
                fl.schedule, kernels, st, plan=legal, sanitize=True
            )
        assert rec.counter("plan.cache_misses") == 0
        assert "plan.compile" not in [s.name for s in rec.spans]
        want = execute_schedule(
            fl.schedule, kernels, {k: v.copy() for k, v in state.items()}
        )
        for var in want:
            if not internal_var(var):
                assert np.allclose(st[var], want[var], rtol=1e-12, atol=1e-14), var


class TestMinBatchRejected:
    """The plan executor has no batch threshold to tune: a step's size
    picks its call, and ``--min-batch`` is an unknown option."""

    @pytest.mark.parametrize("command", ["fuse", "sanitize"])
    def test_cli(self, command, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main([command, "--matrix", "lap2d:6", "--min-batch", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --min-batch" in capsys.readouterr().err
