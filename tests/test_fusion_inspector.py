"""Generic inspector tests: inter_DAG joins and the reuse ratio.

The inter-dependence builder is checked against a brute-force oracle
that enumerates element accesses directly.
"""

import numpy as np
import pytest

from repro.fusion import build_inter_dep, compute_reuse, shared_variables
from repro.fusion.combinations import COMBINATIONS
from repro.kernels import SpMVCSC, SpMVCSR, SpTRSVCSR
from repro.kernels.base import Kernel, internal_var


def brute_force_edges(k1: Kernel, k2: Kernel) -> set[tuple[int, int]]:
    """All (j, i) with a flow/anti/output dependence, by enumeration."""
    edges = set()
    for var in shared_variables(k1, k2):
        for j in range(k1.n_iterations):
            w1 = set(k1.writes_of(var, j).tolist())
            r1 = set(k1.reads_of(var, j).tolist())
            if not w1 and not r1:
                continue
            for i in range(k2.n_iterations):
                w2 = set(k2.writes_of(var, i).tolist())
                r2 = set(k2.reads_of(var, i).tolist())
                if (w1 & r2) or (r1 & w2) or (w1 & w2):
                    edges.add((j, i))
    return edges


def interdep_edges(f) -> set[tuple[int, int]]:
    return set(map(tuple, f.edge_list().tolist()))


@pytest.mark.parametrize("cid", sorted(COMBINATIONS))
def test_inter_dep_matches_brute_force(cid, lap2d_small):
    kernels, _ = COMBINATIONS[cid].build(lap2d_small)
    f = build_inter_dep(kernels[0], kernels[1])
    assert interdep_edges(f) == brute_force_edges(kernels[0], kernels[1])


def test_trsv_to_spmv_csc_is_diagonal(lap2d_small):
    """Listing 2 of the paper: F for TRSV -> SpMV CSC is diagonal."""
    low = lap2d_small.lower_triangle()
    k1 = SpTRSVCSR(low, b_var="x0", x_var="y")
    k2 = SpMVCSC(lap2d_small.to_csc(), x_var="y", y_var="z")
    f = build_inter_dep(k1, k2)
    expected = {(i, i) for i in range(lap2d_small.n_rows)}
    assert interdep_edges(f) == expected


def test_trsv_to_spmv_csr_is_matrix_pattern(lap2d_small):
    """With a CSR SpMV (gather), F equals the pattern of A."""
    low = lap2d_small.lower_triangle()
    k1 = SpTRSVCSR(low, b_var="x0", x_var="y")
    k2 = SpMVCSR(lap2d_small, x_var="y", y_var="z")
    f = build_inter_dep(k1, k2)
    pattern = set()
    for i in range(lap2d_small.n_rows):
        cols, _ = lap2d_small.row(i)
        pattern.update((int(j), i) for j in cols)
    assert interdep_edges(f) == pattern


def test_anti_dependence_detected(lap2d_small):
    """Loop 2 overwrites what loop 1 reads -> anti edges."""
    low = lap2d_small.lower_triangle()
    k1 = SpMVCSR(lap2d_small, x_var="x", y_var="t")  # reads x
    k2 = SpTRSVCSR(low, b_var="t", x_var="x")  # writes x
    f_all = build_inter_dep(k1, k2)
    f_flow = build_inter_dep(k1, k2, include_anti=False)
    assert f_all.nnz > f_flow.nnz


def test_disjoint_kernels_have_empty_f(lap2d_small):
    k1 = SpMVCSR(lap2d_small, a_var="A1", x_var="u", y_var="v")
    k2 = SpMVCSR(lap2d_small, a_var="A2", x_var="p", y_var="q")
    assert build_inter_dep(k1, k2).nnz == 0


def test_internal_vars_cannot_be_shared(lap2d_small):
    low = lap2d_small.lower_triangle().to_csc()
    from repro.kernels import SpTRSVCSC

    k1 = SpTRSVCSC(low, b_var="b", x_var="x")
    k2 = SpTRSVCSC(low, b_var="b2", x_var="x")  # same x -> same _acc.x
    with pytest.raises(ValueError, match="internal"):
        shared_variables(k1, k2)


class TestReuseRatio:
    @pytest.mark.parametrize("cid", sorted(COMBINATIONS))
    def test_table1_classification(self, cid, lap3d_nd):
        combo = COMBINATIONS[cid]
        kernels, _ = combo.build(lap3d_nd)
        reuse = compute_reuse(kernels[0], kernels[1])
        assert (reuse >= 1.0) == combo.expected_reuse_ge_1, (cid, reuse)

    def test_bounds(self, matrix_zoo):
        """0 <= reuse <= 2 by construction."""
        for _, mat in matrix_zoo:
            for cid, combo in COMBINATIONS.items():
                kernels, _ = combo.build(mat)
                r = compute_reuse(kernels[0], kernels[1])
                assert 0.0 <= r <= 2.0, (cid,)

    def test_no_shared_vars_zero(self, lap2d_small):
        k1 = SpMVCSR(lap2d_small, a_var="A1", x_var="u", y_var="v")
        k2 = SpMVCSR(lap2d_small, a_var="A2", x_var="p", y_var="q")
        assert compute_reuse(k1, k2) == 0.0

    def test_identical_kernels_reuse_two(self, lap2d_small):
        k = SpMVCSR(lap2d_small)
        assert compute_reuse(k, k) == 2.0

    def test_internal_vars_excluded(self, lap2d_small):
        from repro.kernels import SpTRSVCSC

        low = lap2d_small.lower_triangle()
        k_csr = SpTRSVCSR(low)
        k_csc = SpTRSVCSC(low.to_csc())
        # acc is internal: both variants must report identical reuse
        k2 = SpMVCSC(lap2d_small.to_csc(), x_var="x", y_var="z")
        assert compute_reuse(k_csr, k2) == pytest.approx(
            compute_reuse(k_csc, k2)
        )


def test_one_join_per_kernel_pair(lap2d_small):
    """fuse() and the plan compiler share one memoized F per loop pair."""
    from repro import fuse
    from repro.obs import recording
    from repro.runtime import allocate_state, execute_schedule_planned
    from repro.solvers import build_gs_chain

    kernels, _, _ = build_gs_chain(lap2d_small, 2)
    state = allocate_state(kernels)
    for values in state.values():
        values[:] = 1.0
    with recording() as rec:
        fl = fuse(kernels, 4)
        execute_schedule_planned(fl.schedule, kernels, state)
    joins = [sp for sp in rec.spans if sp.name == "inspector.join"]
    n = len(kernels)
    assert len(joins) == n * (n - 1) // 2
    assert build_inter_dep(kernels[0], kernels[1]) is fl.inter[(0, 1)]


class TestSharedDagAnalyses:
    """Loops over one sparsity pattern share their intra-DAG analyses."""

    @pytest.fixture
    def passes(self, monkeypatch):
        """``(levels, heights)`` longest-path pass counts so far."""
        from repro.graph import DAG

        calls = []
        orig = DAG._longest_path

        def counted(self, *, reverse):
            calls.append(reverse)
            return orig(self, reverse=reverse)

        monkeypatch.setattr(DAG, "_longest_path", counted)
        return lambda: (calls.count(False), calls.count(True))

    @pytest.mark.parametrize("cid", [1, 4, 5])
    def test_one_levels_pass_per_pattern(self, cid, lap3d_nd, passes):
        from repro import fuse
        from repro.obs import recording
        from repro.runtime import compile_plan

        kernels, _ = COMBINATIONS[cid].build(lap3d_nd)
        with recording() as rec:
            fl = fuse(kernels, 4, cache=None)
            compile_plan(fl.schedule, kernels)
        assert rec.counter("inspector.shared_dag_analyses") == 1
        assert passes() == (1, 1)
        assert fl.dags[0].levels() is fl.dags[1].levels()

    def test_other_patterns_share_nothing(self, lap3d_nd):
        from repro.fusion.fused import inspect_loops
        from repro.obs import recording

        kernels, _ = COMBINATIONS[3].build(lap3d_nd)  # TRSV -> SpMV
        with recording() as rec:
            dags, _, _ = inspect_loops(kernels)
        assert rec.counter("inspector.shared_dag_analyses") == 0
        assert dags[0]._twin is None and dags[1]._twin is None

    def test_combo4_loops_keep_their_weights(self, lap3d_nd):
        from repro.fusion.fused import inspect_loops

        kernels, _ = COMBINATIONS[4].build(lap3d_nd)  # SpIC0 -> SpTRSV-CSC
        dags, _, _ = inspect_loops(kernels)
        assert dags[0].levels() is dags[1].levels()
        for dag, kern in zip(dags, kernels):
            assert np.array_equal(dag.weights, kern.iteration_costs())
        assert not np.array_equal(dags[0].weights, dags[1].weights)

    def test_warm_fuse_and_plan_load_run_no_pass(self, lap3d_nd, tmp_path, passes):
        """A schedule hit plus a stored plan computes no levels at all."""
        from repro import fuse
        from repro.runtime import execute_schedule_planned
        from repro.schedule.cache import ScheduleCache

        for cid in (1, 4, 5):
            kernels, state = COMBINATIONS[cid].build(lap3d_nd)
            fl = fuse(kernels, 4, cache=ScheduleCache(directory=tmp_path))
            execute_schedule_planned(fl.schedule, kernels, state)
        cold = passes()
        for cid in (1, 4, 5):
            kernels, state = COMBINATIONS[cid].build(lap3d_nd)
            fl = fuse(kernels, 4, cache=ScheduleCache(directory=tmp_path))
            execute_schedule_planned(fl.schedule, kernels, state)
            assert fl.meta["cache"] == "hit"
        assert passes() == cold
