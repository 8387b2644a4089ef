"""Tests for the schedule type and — critically — the validity oracle.

The validator is the foundation of every scheduler test, so it gets its
own negative tests: it must catch missing vertices, duplicates, and
every flavour of dependence violation.
"""

import numpy as np
import pytest

from repro.graph import DAG, InterDep
from repro.schedule import (
    FusedSchedule,
    ScheduleError,
    concatenate_schedules,
    validate_schedule,
)


def sched(loop_counts, sparts, **kw):
    return FusedSchedule(
        tuple(loop_counts),
        [[np.asarray(w, dtype=np.int64) for w in s] for s in sparts],
        **kw,
    )


def chain3():
    return DAG.from_edges(3, [(0, 1), (1, 2)])


class TestAccessors:
    def test_offsets(self):
        s = sched((3, 2), [[[0, 1, 2, 3, 4]]])
        assert s.offsets.tolist() == [0, 3, 5]
        assert s.vertex_loop(2) == 0
        assert s.vertex_loop(3) == 1
        assert s.split_vertex(4) == (1, 1)

    def test_assignment(self):
        s = sched((4,), [[[0, 1], [2]], [[3]]])
        sp, wp, pos = s.assignment()
        assert sp.tolist() == [0, 0, 0, 1]
        assert wp.tolist() == [0, 0, 1, 0]
        assert pos.tolist() == [0, 1, 0, 0]

    def test_counts(self):
        s = sched((4,), [[[0, 1], [2]], [[3]]])
        assert s.n_spartitions == 2
        assert s.n_barriers == 1
        assert s.widths() == [2, 1]

    def test_partition_costs(self):
        s = sched((3,), [[[0, 2], [1]]])
        w = np.array([1.0, 10.0, 100.0])
        costs = s.partition_costs(w)
        assert costs[0].tolist() == [101.0, 10.0]

    def test_copy_is_deep(self):
        s = sched((2,), [[[0, 1]]])
        c = s.copy()
        c.s_partitions[0][0][0] = 1
        assert s.s_partitions[0][0][0] == 0


class TestValidation:
    def test_valid_sequential(self):
        g = chain3()
        s = sched((3,), [[[0, 1, 2]]])
        validate_schedule(s, [g])

    def test_valid_across_spartitions(self):
        g = chain3()
        s = sched((3,), [[[0]], [[1]], [[2]]])
        validate_schedule(s, [g])

    def test_missing_vertex(self):
        s = sched((3,), [[[0, 1]]])
        with pytest.raises(ScheduleError, match="unscheduled"):
            validate_schedule(s, [chain3()])

    def test_duplicate_vertex(self):
        s = sched((3,), [[[0, 1, 2], [1]]])
        with pytest.raises(ScheduleError, match="once"):
            validate_schedule(s, [chain3()])

    def test_intra_violation_same_wpartition_wrong_order(self):
        s = sched((3,), [[[1, 0, 2]]])
        with pytest.raises(ScheduleError, match="intra"):
            validate_schedule(s, [chain3()])

    def test_intra_violation_parallel_wpartitions(self):
        s = sched((3,), [[[0, 1], [2]]])  # 1 -> 2 split across parallel w's
        with pytest.raises(ScheduleError, match="intra"):
            validate_schedule(s, [chain3()])

    def test_intra_violation_backwards_spartition(self):
        s = sched((3,), [[[2]], [[0, 1]]])
        with pytest.raises(ScheduleError, match="intra"):
            validate_schedule(s, [chain3()])

    def test_inter_violation(self):
        g1 = DAG.empty(2)
        g2 = DAG.empty(2)
        f = InterDep.identity(2)  # loop1 j feeds loop2 j
        bad = sched((2, 2), [[[2, 3], [0, 1]]])  # consumer w before producer w
        with pytest.raises(ScheduleError, match="inter"):
            validate_schedule(bad, [g1, g2], {(0, 1): f})
        good = sched((2, 2), [[[0, 2], [1, 3]]])
        validate_schedule(good, [g1, g2], {(0, 1): f})

    def test_wrong_loop_count(self):
        s = sched((3,), [[[0, 1, 2]]])
        with pytest.raises(ScheduleError, match="DAGs"):
            validate_schedule(s, [chain3(), DAG.empty(1)])

    def test_wrong_dag_size(self):
        s = sched((3,), [[[0, 1, 2]]])
        with pytest.raises(ScheduleError, match="vertices"):
            validate_schedule(s, [DAG.empty(5)])


class TestConcatenate:
    def test_concatenation_offsets_and_validity(self):
        g = chain3()
        p1 = sched((3,), [[[0, 1, 2]]])
        p2 = sched((2,), [[[0], [1]]])
        cat = concatenate_schedules([p1, p2])
        assert cat.loop_counts == (3, 2)
        assert cat.n_spartitions == 2
        # any F is satisfied because loop 2 is after loop 1 entirely
        f = InterDep.from_edges(2, 3, [(0, 0), (2, 1)])
        validate_schedule(cat, [g, DAG.empty(2)], {(0, 1): f})
        assert not cat.fusion

    def test_rejects_multi_loop_parts(self):
        multi = sched((1, 1), [[[0, 1]]])
        with pytest.raises(ValueError, match="single-loop"):
            concatenate_schedules([multi])


# -- the one-pass validator agrees with the per-partition, per-edge-set loop
def loop_assignment(s):
    """``assignment()`` written as one scatter per w-partition."""
    n = s.n_vertices
    sp, wp, pos = (np.full(n, -1, dtype=np.int64) for _ in range(3))
    for si, wlist in enumerate(s.s_partitions):
        for wi, verts in enumerate(wlist):
            sp[verts] = si
            wp[verts] = wi
            pos[verts] = np.arange(verts.shape[0])
    return sp, wp, pos


def loop_first_violation(s, dags, inter):
    """The first dependence violation, checking one edge set at a time:
    each loop's intra edges in order, then each ``F`` in dict order."""
    sp, wp, pos = loop_assignment(s)
    off = s.offsets
    edge_sets = [
        (f"intra loop {k}", d.edge_list(), off[k], off[k])
        for k, d in enumerate(dags)
    ] + [
        (f"inter {a}->{b}", f.edge_list(), off[a], off[b])
        for (a, b), f in inter.items()
    ]
    for label, edges, src_off, dst_off in edge_sets:
        if edges.shape[0] == 0:
            continue
        src, dst = edges[:, 0] + src_off, edges[:, 1] + dst_off
        su, sv = sp[src], sp[dst]
        ordered = (su < sv) | ((su == sv) & (wp[src] == wp[dst]) & (pos[src] < pos[dst]))
        bad = ~ordered
        if np.any(bad):
            i = int(np.nonzero(bad)[0][0])
            return (
                f"{label} dependence violated: {src[i]} -> {dst[i]} "
                f"(s={sp[src[i]]},w={wp[src[i]]},p={pos[src[i]]}) !< "
                f"(s={sp[dst[i]]},w={wp[dst[i]]},p={pos[dst[i]]})"
            )
    return None


class TestOnePassValidator:
    @pytest.mark.parametrize(
        "loop_counts, sparts",
        [
            ((0,), []),
            ((3,), [[[]], [[], []]]),
            ((6,), [[[4, 0, 2], [5]], [[]], [[1], [3], []]]),  # ragged
            ((4, 3), [[[6, 0], [2, 3, 5, 1]], [[4]]]),  # incomplete
        ],
        ids=["empty", "empty-partitions", "ragged", "incomplete"],
    )
    def test_assignment_matches_the_loop(self, loop_counts, sparts):
        s = sched(loop_counts, sparts)
        got, want = s.assignment(), loop_assignment(s)
        for g, w in zip(got, want):
            assert g.dtype == np.int64 and g.tolist() == w.tolist()

    def test_duplicate_message_counts_repeats(self):
        s = sched((4,), [[[0, 1, 2], [1, 3]], [[1]]])
        with pytest.raises(ScheduleError, match=r"\[1\] \(counts \[3\]\)"):
            validate_schedule(s, [DAG.empty(4)])

    @staticmethod
    def _fused(lap2d_nd):
        from repro import fuse
        from repro.fusion import build_combination

        kernels, _ = build_combination(3, lap2d_nd)  # SpTRSV -> SpMV
        fl = fuse(kernels, 4)
        assert fl.inter and fl.dags[0].n_edges
        return fl

    @staticmethod
    def _swap(s, u, v):
        """*s* with vertices *u* and *v* exchanging their slots."""
        bad = s.copy()
        sp, wp, pos = bad.assignment()
        wu = bad.s_partitions[sp[u]][wp[u]]
        wv = bad.s_partitions[sp[v]][wp[v]]
        wu[pos[u]], wv[pos[v]] = v, u
        return bad

    @pytest.mark.parametrize("kind", ["intra", "inter"])
    def test_first_violation_matches_the_loop(self, kind, lap2d_nd):
        fl = self._fused(lap2d_nd)
        off = fl.schedule.offsets
        if kind == "intra":
            u, v = fl.dags[0].edge_list()[-1]
        else:
            ((a, b), f), *_ = fl.inter.items()
            j, i = f.edge_list()[-1]
            u, v = j + off[a], i + off[b]
        bad = self._swap(fl.schedule, int(u), int(v))
        want = loop_first_violation(bad, fl.dags, fl.inter)
        assert want is not None and want.startswith(kind)
        with pytest.raises(ScheduleError) as info:
            validate_schedule(bad, fl.dags, fl.inter)
        assert str(info.value) == want
