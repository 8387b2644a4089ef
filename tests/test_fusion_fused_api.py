"""Deeper tests of the fuse() API internals: joint building, repacking,
chordalization flag, consecutive-only inspection."""

import numpy as np
import pytest

from repro import fuse
from repro.fusion import build_combination
from repro.fusion.fused import inspect_loops
from repro.graph import DAG, InterDep, build_joint_dag
from repro.schedule import validate_schedule


class TestJointMulti:
    def test_three_loop_joint(self):
        g = DAG.from_edges(3, [(0, 1)])
        dags = [g, DAG.empty(2), DAG.empty(2)]
        inter = {
            (0, 1): InterDep.from_edges(2, 3, [(0, 0), (1, 1)]),
            (1, 2): InterDep.from_edges(2, 2, [(0, 1)]),
            (0, 2): InterDep.from_edges(2, 3, [(2, 0)]),
        }
        joint = build_joint_dag(dags, inter)
        assert joint.n == 7
        edges = set(map(tuple, joint.edge_list().tolist()))
        assert (0, 1) in edges      # intra loop 0
        assert (0, 3) in edges      # F(0,1): 0 -> 0'
        assert (3, 6) in edges      # F(1,2): 0' -> 1''
        assert (2, 5) in edges      # F(0,2): 2 -> 0''


class TestChordalizeFlag:
    def test_chordalized_joint_lbc_still_valid(self, lap2d_nd):
        kernels, state = build_combination(4, lap2d_nd, seed=1)
        fl = fuse(kernels, 4, scheduler="joint-lbc", chordalize=True)
        fl.validate()
        ref = {v: a.copy() for v, a in state.items()}
        for k in kernels:
            k.run_reference(ref)
        fl.execute(state)
        assert np.allclose(state["y"], ref["y"], atol=1e-9)

    def test_chordalize_costs_more_inspection(self, lap3d_nd):
        kernels, _ = build_combination(1, lap3d_nd)
        import time

        t0 = time.perf_counter()
        fuse(kernels, 4, scheduler="joint-lbc", validate=False)
        base = time.perf_counter() - t0
        t0 = time.perf_counter()
        fuse(kernels, 4, scheduler="joint-lbc", validate=False, chordalize=True)
        chordal = time.perf_counter() - t0
        assert chordal > base * 0.8  # never cheaper in any meaningful way

    def test_chordalize_ignored_for_other_joint(self, lap2d_nd):
        kernels, _ = build_combination(3, lap2d_nd)
        fl = fuse(kernels, 4, scheduler="joint-wavefront", chordalize=True)
        fl.validate()


class TestInspectLoops:
    def test_consecutive_only_limits_pairs(self, lap2d_nd):
        from repro.solvers import build_gs_chain

        kernels, _, _ = build_gs_chain(lap2d_nd, 3)  # 6 loops
        _, inter_all, _ = inspect_loops(kernels)
        _, inter_consec, _ = inspect_loops(kernels, consecutive_only=True)
        assert set(inter_consec) <= set(inter_all)
        assert all(b == a + 1 for a, b in inter_consec)

    def test_gs_chain_nonconsecutive_pairs_redundant(self, lap2d_nd):
        """For the ping-pong GS chain, non-consecutive F edges are all
        anti/output deps already implied transitively: a schedule valid
        for the consecutive subset must validate against the full set."""
        from repro.schedule import ico_schedule
        from repro.solvers import build_gs_chain

        kernels, _, _ = build_gs_chain(lap2d_nd, 2)
        dags, inter_all, reuse = inspect_loops(kernels)
        _, inter_consec, _ = inspect_loops(kernels, consecutive_only=True)
        sched = ico_schedule(dags, inter_all, 4, reuse)
        validate_schedule(sched, dags, inter_all)
        validate_schedule(sched, dags, inter_consec)

    def test_reuse_ratio_is_first_pair(self, lap2d_nd):
        kernels, _ = build_combination(1, lap2d_nd)
        from repro.fusion import compute_reuse

        _, _, reuse = inspect_loops(kernels)
        assert reuse == pytest.approx(compute_reuse(kernels[0], kernels[1]))


class TestRepack:
    def test_joint_schedules_share_fusion_packing(self, lap2d_nd):
        kernels, _ = build_combination(1, lap2d_nd)  # reuse >= 1
        fl = fuse(kernels, 4, scheduler="joint-wavefront")
        assert fl.schedule.packing == "interleaved"
        kernels3, _ = build_combination(3, lap2d_nd)  # reuse < 1
        fl3 = fuse(kernels3, 4, scheduler="joint-wavefront")
        assert fl3.schedule.packing == "separated"

    def test_repacked_wpartitions_loop_major_when_separated(self, lap2d_nd):
        kernels, _ = build_combination(3, lap2d_nd)
        fl = fuse(kernels, 4, scheduler="joint-lbc")
        n0 = kernels[0].n_iterations
        for _, _, verts in fl.schedule.iter_all():
            loops = [0 if v < n0 else 1 for v in verts.tolist()]
            assert loops == sorted(loops)
