"""Tests for joint-DAG construction."""

import numpy as np
import pytest

from repro.graph import DAG, InterDep, build_joint_dag
from repro.schedule import FusedSchedule


def test_vertex_id_mapping():
    """Joint vertices use the schedule numbering: loop ``k``'s iteration
    ``i`` is ``offsets[k] + i``, and ``loop_of`` maps it back."""
    dags = [DAG.empty(3), DAG.from_edges(2, [(0, 1)]), DAG.empty(2)]
    inter = {(0, 2): InterDep.from_edges(2, 3, [(2, 1)])}
    joint = build_joint_dag(dags, inter)
    ids = FusedSchedule((3, 2, 2), [])
    assert ids.loop_of().tolist() == [0, 0, 0, 1, 1, 2, 2]
    assert ids.offsets.tolist() == [0, 3, 5, 7]
    edges = [
        (ids.split_vertex(u), ids.split_vertex(v))
        for u, v in joint.edge_list().tolist()
    ]
    assert edges == [((0, 2), (2, 1)), ((1, 0), (1, 1))]


def test_joint_edge_union():
    g1 = DAG.from_edges(3, [(0, 1), (1, 2)])
    g2 = DAG.from_edges(2, [(0, 1)])
    f = InterDep.from_edges(2, 3, [(2, 0), (1, 1)])
    joint = build_joint_dag([g1, g2], {(0, 1): f})
    assert joint.n == 5
    assert joint.n_edges == g1.n_edges + g2.n_edges + f.nnz
    edges = set(map(tuple, joint.edge_list().tolist()))
    assert (0, 1) in edges and (1, 2) in edges  # g1
    assert (3, 4) in edges  # g2 shifted
    assert (2, 3) in edges and (1, 4) in edges  # F shifted


def test_joint_is_naturally_ordered(lap2d_nd):
    g1 = DAG.from_lower_triangular(lap2d_nd.lower_triangle())
    g2 = DAG.empty(lap2d_nd.n_rows)
    f = InterDep.identity(lap2d_nd.n_rows)
    joint = build_joint_dag([g1, g2], {(0, 1): f})
    assert joint.is_naturally_ordered()
    joint.validate_schedulable()


def test_joint_weights_concatenated():
    g1 = DAG.empty(2, weights=[1.0, 2.0])
    g2 = DAG.empty(2, weights=[3.0, 4.0])
    joint = build_joint_dag([g1, g2], {(0, 1): InterDep.empty(2, 2)})
    assert joint.weights.tolist() == [1.0, 2.0, 3.0, 4.0]


def test_joint_wavefront_reduction(lap3d_nd):
    """The Fig. 1 effect: joint DAG of two chained kernels has about the
    same number of wavefronts as one kernel, not the sum (running the
    loops back to back doubles the wavefront count)."""
    g = DAG.from_lower_triangular(lap3d_nd.lower_triangle())
    f = InterDep.identity(g.n)
    g2 = DAG.from_lower_triangular(lap3d_nd.lower_triangle())
    joint = build_joint_dag([g, g2], {(0, 1): f})
    unfused_wavefronts = 2 * g.n_wavefronts
    assert joint.n_wavefronts < unfused_wavefronts


def test_shape_mismatch_raises():
    g1 = DAG.empty(3)
    g2 = DAG.empty(2)
    with pytest.raises(ValueError, match="shape"):
        build_joint_dag([g1, g2], {(0, 1): InterDep.empty(2, 5)})


def test_successor_slices_sorted(lap2d_nd):
    g1 = DAG.from_lower_triangular(lap2d_nd.lower_triangle())
    f = InterDep.from_csr_pattern(lap2d_nd)
    joint = build_joint_dag([g1, DAG.empty(lap2d_nd.n_rows)], {(0, 1): f})
    for v in range(0, joint.n, 13):
        s = joint.successors(v)
        assert np.all(np.diff(s) > 0)
