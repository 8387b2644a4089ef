"""Machine-model and ICO-internal edge cases."""

import numpy as np
import pytest

from repro.graph import DAG, InterDep
from repro.kernels import SpMVCSR
from repro.runtime import MachineConfig, SimulatedMachine
from repro.schedule import FusedSchedule, ico_schedule, validate_schedule
from repro.schedule.ico import _segment_reduce


class TestSegmentReduce:
    def indptr(self, counts):
        out = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(counts, out=out[1:])
        return out

    def test_basic_max(self):
        values = np.array([5, 1, 7, 2], dtype=np.int64)
        indices = np.array([0, 1, 2, 3], dtype=np.int64)
        out = _segment_reduce(
            values, self.indptr([2, 2]), indices, np.maximum, -9, shift=1
        )
        assert out.tolist() == [6, 8]

    def test_empty_segments_get_default(self):
        values = np.array([3], dtype=np.int64)
        indices = np.array([0], dtype=np.int64)
        out = _segment_reduce(
            values, self.indptr([0, 1, 0]), indices, np.minimum, 99, shift=-1
        )
        assert out.tolist() == [99, 2, 99]

    def test_trailing_empty_does_not_split_previous(self):
        """The reduceat-clipping regression: a clipped start for a
        trailing empty segment must not split the segment before it."""
        values = np.array([1, 9], dtype=np.int64)
        indices = np.array([0, 1], dtype=np.int64)
        out = _segment_reduce(
            values, self.indptr([2, 0]), indices, np.maximum, 0, shift=0
        )
        assert out.tolist() == [9, 0]

    def test_all_empty(self):
        out = _segment_reduce(
            np.array([7], dtype=np.int64),
            self.indptr([0, 0]),
            np.empty(0, dtype=np.int64),
            np.maximum,
            -1,
            shift=5,
        )
        assert out.tolist() == [-1, -1]


class TestMachineEdges:
    def test_empty_schedule(self):
        from repro.sparse import laplacian_2d

        k = SpMVCSR(laplacian_2d(3))
        sched = FusedSchedule((9,), [])  # nothing scheduled: zero time
        rep = SimulatedMachine(MachineConfig(n_threads=2)).simulate(sched, [k])
        assert rep.total_cycles == 0.0
        assert rep.n_barriers == 0

    def test_more_wpartitions_than_threads_wrap(self, lap2d_nd):
        k = SpMVCSR(lap2d_nd)
        n = lap2d_nd.n_rows
        wide = FusedSchedule(
            (n,),
            [[np.array([i], dtype=np.int64) for i in range(n)]],
        )
        cfg = MachineConfig(n_threads=4, barrier_cycles=0.0)
        rep = SimulatedMachine(cfg).simulate(wide, [k])
        # all work lands on 4 threads; busy matrix has 4 columns used
        assert rep.busy_cycles.shape == (1, 4)
        assert np.all(rep.busy_cycles[0] > 0)

    def test_spartition_cycles_sum_to_total(self, lap2d_nd):
        from repro.fusion import build_combination, fuse

        kernels, _ = build_combination(1, lap2d_nd)
        fl = fuse(kernels, 4)
        rep = fl.simulate()
        assert rep.total_cycles == pytest.approx(sum(rep.spartition_cycles))

    def test_wait_cycles_zero_for_single_thread(self, lap2d_nd):
        from repro.baselines import sequential_schedule

        k = SpMVCSR(lap2d_nd)
        cfg = MachineConfig(n_threads=1)
        rep = SimulatedMachine(cfg).simulate(sequential_schedule(k), [k])
        assert rep.wait_cycles == 0.0


class TestIcoEdges:
    def test_zero_vertex_loops(self):
        g1 = DAG.empty(0)
        g2 = DAG.empty(0)
        s = ico_schedule([g1, g2], {}, 4, 1.0)
        assert s.n_vertices == 0

    def test_single_vertex_each(self):
        g1 = DAG.empty(1)
        g2 = DAG.empty(1)
        f = InterDep.identity(1)
        s = ico_schedule([g1, g2], {(0, 1): f}, 4, 0.5)
        validate_schedule(s, [g1, g2], {(0, 1): f})

    def test_r_exceeds_vertices(self, lap2d_nd):
        g = DAG.from_lower_triangular(lap2d_nd.lower_triangle())
        f = InterDep.identity(lap2d_nd.n_rows)
        s = ico_schedule([g, DAG.empty(lap2d_nd.n_rows)], {(0, 1): f}, 1000, 1.0)
        validate_schedule(s, [g, DAG.empty(lap2d_nd.n_rows)], {(0, 1): f})

    def test_dense_f_everything_depends_on_everything(self):
        n = 12
        edges = [(j, i) for j in range(n) for i in range(n)]
        f = InterDep.from_edges(n, n, edges)
        g1, g2 = DAG.empty(n), DAG.empty(n)
        s = ico_schedule([g1, g2], {(0, 1): f}, 4, 1.5)
        validate_schedule(s, [g1, g2], {(0, 1): f})
        # all of loop 2 must be in strictly later s-partitions
        sp, _, _ = s.assignment()
        assert sp[:n].max() < sp[n:].min()

    def test_backward_embed_preamble_path(self):
        """Producers forced before s-partition 0: the preamble branch.

        Head = G2 gets a single s-partition; a producer consumed by two
        different w-partitions must land before them — s-partition -1,
        i.e. the preamble."""
        g2 = DAG.from_edges(4, [(0, 2), (1, 3)])  # two chains -> 2 w-parts
        g1 = DAG.empty(1)
        f = InterDep.from_edges(4, 1, [(0, 0), (0, 1)])  # feeds both chains
        s = ico_schedule([g1, g2], {(0, 1): f}, 2, 0.5)
        validate_schedule(s, [g1, g2], {(0, 1): f})
        sp, _, _ = s.assignment()
        assert sp[0] < min(sp[1:])
