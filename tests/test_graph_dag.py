"""Tests for the DAG type: levels, heights, slack, orders, subgraphs."""

import numpy as np
import pytest

from repro.graph import DAG
from repro.sparse import laplacian_2d, tridiagonal_spd


def diamond():
    """0 -> {1, 2} -> 3."""
    return DAG.from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)])


class TestConstruction:
    def test_from_edges_dedups(self):
        g = DAG.from_edges(3, [(0, 1), (0, 1), (1, 2)])
        assert g.n_edges == 2

    def test_from_edges_array_and_pairs_agree(self):
        pairs = [(2, 3), (0, 1), (0, 2), (1, 3), (0, 1)]
        arr = np.array(pairs, dtype=np.int64)
        for edges in (arr, pairs, iter(pairs), ((u, v) for u, v in pairs)):
            g = DAG.from_edges(4, edges)
            assert g.indptr.tolist() == [0, 2, 3, 4, 4]
            assert g.indices.tolist() == [1, 2, 3, 3]
        assert arr.tolist() == [list(p) for p in pairs]  # input untouched

    def test_empty(self):
        g = DAG.empty(5)
        assert g.n_edges == 0 and not g.has_edges
        assert g.n_wavefronts == 1

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            DAG(2, [0, 1, 1], [0], None)

    def test_rejects_out_of_range_target(self):
        with pytest.raises(ValueError, match="out of range"):
            DAG(2, [0, 1, 1], [5], None)

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError, match="weights"):
            DAG.from_edges(3, [(0, 1)], weights=[1.0, 2.0])

    def test_from_lower_triangular_csr(self, lap2d_small):
        low = lap2d_small.lower_triangle()
        g = DAG.from_lower_triangular(low)
        assert g.n == low.n_rows
        assert g.n_edges == low.nnz - low.n_rows  # strict lower entries
        # weights default to row nnz
        assert np.array_equal(g.weights, low.row_nnz().astype(float))

    def test_from_lower_triangular_csc_matches_csr(self, lap2d_small):
        low = lap2d_small.lower_triangle()
        g1 = DAG.from_lower_triangular(low)
        g2 = DAG.from_lower_triangular(low.to_csc())
        assert np.array_equal(g1.indptr, g2.indptr)
        assert np.array_equal(g1.indices, g2.indices)

    def test_from_lower_rejects_rectangular(self):
        from repro.sparse import CSRMatrix

        with pytest.raises(ValueError, match="square"):
            DAG.from_lower_triangular(CSRMatrix.from_dense(np.ones((2, 3))))


class TestOrders:
    def test_natural_order_detection(self, lap2d_small):
        g = DAG.from_lower_triangular(lap2d_small.lower_triangle())
        assert g.is_naturally_ordered()
        assert np.array_equal(g.topological_order(), np.arange(g.n))

    def test_kahn_on_reversed_ids(self):
        g = DAG.from_edges(3, [(2, 0), (0, 1)])
        assert not g.is_naturally_ordered()
        topo = g.topological_order()
        pos = {int(v): i for i, v in enumerate(topo)}
        assert pos[2] < pos[0] < pos[1]

    def test_cycle_detection(self):
        g = DAG(3, [0, 1, 2, 3], [1, 2, 0], None, check=False)
        with pytest.raises(ValueError, match="cycle"):
            g.topological_order()

    def test_predecessors_inverse_of_successors(self, lap2d_small):
        g = DAG.from_lower_triangular(lap2d_small.lower_triangle())
        for v in range(0, g.n, 7):
            for s in g.successors(v):
                assert v in g.predecessors(int(s))

    def test_degrees(self):
        g = diamond()
        assert g.out_degrees().tolist() == [2, 1, 1, 0]
        assert g.in_degrees().tolist() == [0, 1, 1, 2]


class TestLevels:
    def test_diamond_levels(self):
        g = diamond()
        assert g.levels().tolist() == [0, 1, 1, 2]
        assert g.heights().tolist() == [2, 1, 1, 0]
        assert g.n_wavefronts == 3

    def test_edges_increase_levels(self, matrix_zoo):
        for name, mat in matrix_zoo:
            g = DAG.from_lower_triangular(mat.lower_triangle())
            lv, h = g.levels(), g.heights()
            for u, v in g.edge_list():
                assert lv[v] > lv[u], name
                assert h[u] > h[v], name

    def test_chain_levels(self):
        t = tridiagonal_spd(10).lower_triangle()
        g = DAG.from_lower_triangular(t)
        assert g.n_wavefronts == 10
        assert np.array_equal(g.levels(), np.arange(10))

    def test_wavefronts_partition_vertices(self, lap2d_nd):
        g = DAG.from_lower_triangular(lap2d_nd.lower_triangle())
        wf = g.wavefronts()
        seen = np.concatenate(wf)
        assert sorted(seen.tolist()) == list(range(g.n))
        lv = g.levels()
        for i, w in enumerate(wf):
            assert np.all(lv[w] == i)

    def test_slack_nonnegative_and_zero_on_critical_path(self, matrix_zoo):
        for name, mat in matrix_zoo:
            g = DAG.from_lower_triangular(mat.lower_triangle())
            sn = g.slack_numbers()
            assert np.all(sn >= 0), name
            # some vertex achieves the critical path => slack 0 exists
            assert np.any(sn == 0), name

    def test_slack_of_diamond(self):
        g = DAG.from_edges(4, [(0, 1), (1, 3), (0, 2)])
        # 2 hangs off the chain 0-1-3: it can run in wavefront 1 or 2
        assert g.slack_numbers().tolist() == [0, 0, 1, 0]

    def test_empty_dag_levels(self):
        g = DAG.empty(0)
        assert g.n_wavefronts == 0
        assert g.slack_numbers().shape == (0,)

    @pytest.mark.parametrize("n", (0, 1, 512))
    def test_edge_free_levels_match_general_path(self, n, monkeypatch):
        """An edge-free DAG skips the ordering pass and the longest-path
        loop, and labels exactly as they do."""
        with monkeypatch.context() as m:
            # an edge count > 0 sends the empty DAG down the general path
            m.setattr(DAG, "n_edges", property(lambda self: 1))
            general = DAG.empty(n)
            ref = (general.levels(), general.heights())
            assert general._topo is not None
        g = DAG.empty(n)
        for got, want in zip((g.levels(), g.heights()), ref):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert g._topo is None  # the ordering pass never ran

    def test_edges_keep_longest_path_labels(self):
        g = DAG.from_edges(5, [(0, 2), (2, 4), (1, 4)])
        assert g.levels().tolist() == [0, 0, 1, 0, 2]
        assert g.heights().tolist() == [2, 1, 1, 0, 0]


class TestTransforms:
    def test_transpose_flips_edges(self):
        g = diamond()
        gt = g.transpose()
        assert sorted(map(tuple, gt.edge_list().tolist())) == sorted(
            [(1, 0), (2, 0), (3, 1), (3, 2)]
        )

    def test_induced_subgraph(self):
        g = diamond()
        sub, vmap = g.induced_subgraph(np.array([0, 1, 3]))
        assert sub.n == 3
        # edges 0->1 and 1->3 survive (2 is excluded)
        assert sub.n_edges == 2

    def test_to_networkx(self):
        nx_g = diamond().to_networkx()
        assert nx_g.number_of_nodes() == 4
        assert nx_g.number_of_edges() == 4


class TestSharedAnalyses:
    """DAGs of one structure compute their structural analyses once."""

    def test_level_schedule_links_same_pattern_loops(self, lap2d_nd, monkeypatch):
        from repro.graph.dag import share_pattern_analyses
        from repro.schedule.wavefront import level_schedule
        from repro.solvers import build_gs_chain

        calls = []
        orig = DAG._longest_path
        monkeypatch.setattr(
            DAG,
            "_longest_path",
            lambda self, *, reverse: calls.append(self) or orig(self, reverse=reverse),
        )
        kernels, _, _ = build_gs_chain(lap2d_nd, 2)
        level_schedule(kernels)
        trsv = [kernels[1].intra_dag(), kernels[3].intra_dag()]
        assert trsv[0].levels() is trsv[1].levels()
        assert sum(dag in trsv for dag in calls) == 1  # one pass, two loops
        assert share_pattern_analyses(trsv) == 1  # already linked: a no-op

    @staticmethod
    def _pair(a, w2=None):
        low = a.lower_triangle()
        return DAG.from_lower_triangular(low), DAG.from_lower_triangular(low, w2)

    def test_memos_computed_once_and_shared(self, lap2d_nd, monkeypatch):
        calls = []
        orig = DAG._longest_path
        monkeypatch.setattr(
            DAG,
            "_longest_path",
            lambda self, *, reverse: calls.append(reverse) or orig(self, reverse=reverse),
        )
        d1, d2 = self._pair(lap2d_nd)
        d2.share_analyses(d1)
        assert calls == []  # linking computes nothing
        assert d2.levels() is d1.levels()
        assert d1.heights() is d2.heights()
        assert d1.wavefronts() is d2.wavefronts()
        assert d2.slack_numbers() is d1.slack_numbers()
        assert sorted(calls) == [False, True]

    def test_existing_memos_are_pooled(self, lap2d_nd):
        d1, d2 = self._pair(lap2d_nd)
        lv = d2.levels()
        d2.share_analyses(d1)
        assert d1.levels() is lv

    def test_weights_stay_per_dag(self, lap2d_nd):
        d1, d2 = self._pair(lap2d_nd, np.arange(lap2d_nd.n_rows, dtype=float))
        w1, w2 = d1.weights.copy(), d2.weights.copy()
        d2.share_analyses(d1)
        d1.levels()
        assert np.array_equal(d1.weights, w1) and np.array_equal(d2.weights, w2)
        assert not np.array_equal(w1, w2)

    def test_same_schedule_as_unshared(self, lap3d_nd):
        """Equal edges, different weights: sharing changes no schedule."""
        from repro.schedule.ico import ico_schedule
        from repro.schedule.lbc import lbc_schedule
        from repro.fusion.inspector import build_inter_dep
        from repro.kernels import SpTRSVCSR

        low = lap3d_nd.lower_triangle()
        rng = np.random.default_rng(4)
        k1 = SpTRSVCSR(low, b_var="b", x_var="x")
        k2 = SpTRSVCSR(low, b_var="x", x_var="z")
        inter = {(0, 1): build_inter_dep(k1, k2)}
        w1, w2 = rng.uniform(1, 5, (2, lap3d_nd.n_rows))

        def schedules(share):
            d1 = DAG.from_lower_triangular(low, w1)
            d2 = DAG.from_lower_triangular(low, w2)
            if share:
                d2.share_analyses(d1)
            return [
                lbc_schedule(d, 4).s_partitions for d in (d1, d2)
            ] + [ico_schedule([d1, d2], inter, r, 1.0).s_partitions for r in (1, 8)]

        for got, want in zip(schedules(True), schedules(False)):
            assert len(got) == len(want)
            for gw, ww in zip(got, want):
                assert len(gw) == len(ww)
                assert all(np.array_equal(x, y) for x, y in zip(gw, ww))

    def test_transpose_of_a_sharing_dag(self, lap2d_nd):
        d1, d2 = self._pair(lap2d_nd)
        d2.share_analyses(d1)
        d1.levels()
        d1.heights()
        t = d2.transpose()
        fresh = DAG.from_lower_triangular(lap2d_nd.lower_triangle()).transpose()
        assert np.array_equal(t.levels(), d2.heights())
        assert np.array_equal(t.heights(), d2.levels())
        assert np.array_equal(t.levels(), fresh.levels())
        assert np.array_equal(t.slack_numbers(), fresh.slack_numbers())
        assert np.array_equal(t.topological_order(), d2.topological_order()[::-1])
        assert np.array_equal(t.predecessor_arrays()[1], d2.indices)
        assert t._twin is None

    def test_links_in_both_directions_form_no_cycle(self, lap2d_nd):
        """Loops fused in one order and then the other stay acyclic."""
        d1, d2 = self._pair(lap2d_nd)
        d2.share_analyses(d1)
        d1.share_analyses(d2)
        d3 = DAG.from_lower_triangular(lap2d_nd.lower_triangle())
        d3.share_analyses(d2)
        d1.share_analyses(d3)
        for d in (d1, d2, d3):
            assert np.array_equal(d.heights(), d3.heights())
        assert d1.levels() is d2.levels() is d3.levels()

    def test_rejects_another_structure(self, lap2d_nd):
        d1 = DAG.from_lower_triangular(lap2d_nd.lower_triangle())
        d2 = DAG.from_lower_triangular(laplacian_2d(12).lower_triangle())
        assert not d1.same_structure(d2)
        with pytest.raises(ValueError, match="same structure"):
            d1.share_analyses(d2)
