"""Tests for the inter-loop dependence structure F."""

import numpy as np
import pytest

from repro.graph import InterDep
from repro.sparse import CSRMatrix


def test_from_edges_and_views():
    # producers j of consumer i: F[0] <- {0}, F[2] <- {0, 1}
    f = InterDep.from_edges(3, 2, [(0, 0), (0, 2), (1, 2)])
    assert f.nnz == 3
    assert f.producers(0).tolist() == [0]
    assert f.producers(1).tolist() == []
    assert f.producers(2).tolist() == [0, 1]
    assert f.consumers(0).tolist() == [0, 2]
    assert f.consumers(1).tolist() == [2]


def test_identity():
    f = InterDep.identity(4)
    for i in range(4):
        assert f.producers(i).tolist() == [i]
        assert f.consumers(i).tolist() == [i]


def test_empty():
    f = InterDep.empty(3, 5)
    assert f.nnz == 0
    assert f.producers(2).tolist() == []


def test_from_csr_pattern():
    a = CSRMatrix.from_dense(np.array([[1.0, 0.0], [1.0, 1.0]]))
    f = InterDep.from_csr_pattern(a)
    # F[i,j] nonzero => loop1 iter j feeds loop2 iter i
    assert f.producers(1).tolist() == [0, 1]
    assert f.consumers(0).tolist() == [0, 1]


def test_edge_list_roundtrip():
    edges = [(0, 1), (2, 0), (1, 1)]
    f = InterDep.from_edges(2, 3, edges)
    back = sorted(map(tuple, f.edge_list().tolist()))
    assert back == sorted(set(edges))


def test_dedup():
    f = InterDep.from_edges(2, 2, [(0, 1), (0, 1), (0, 1)])
    assert f.nnz == 1


def test_rejects_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        InterDep(2, 2, [0, 1, 1], [7])


def test_rejects_bad_indptr():
    with pytest.raises(ValueError, match="row_indptr"):
        InterDep(3, 2, [0, 1], [0])


def test_transposed_views_consistent():
    rng = np.random.default_rng(0)
    edges = {(int(j), int(i)) for j, i in zip(rng.integers(0, 10, 50), rng.integers(0, 8, 50))}
    f = InterDep.from_edges(8, 10, list(edges))
    rebuilt = set()
    for j in range(10):
        for i in f.consumers(j):
            rebuilt.add((j, int(i)))
    assert rebuilt == edges


@pytest.mark.parametrize(
    "edges",
    [
        np.array([[2, 1], [0, 0], [1, 2], [0, 2], [2, 1]]),
        np.array([[2, 1], [0, 0], [1, 2], [0, 2], [2, 1]], dtype=np.int32),
        [(2, 1), (0, 0), (1, 2), (0, 2), (2, 1)],
        [[2, 1], [0, 0], [1, 2], [0, 2], [2, 1]],
    ],
    ids=["ndarray", "int32-ndarray", "tuples", "lists"],
)
def test_from_edges_input_forms_agree(edges):
    """An (m, 2) array and a sequence of pairs give the same CSR: rows
    sorted by consumer, producers sorted within a row, duplicates gone."""
    f = InterDep.from_edges(3, 3, edges)
    assert f.row_indptr.tolist() == [0, 1, 2, 4]
    assert f.row_indices.tolist() == [0, 2, 0, 1]
    assert f.row_indptr.dtype == f.row_indices.dtype == np.int64


@pytest.mark.parametrize(
    "edges", [[], (), np.empty((0, 2), dtype=np.int64), np.empty(0)],
    ids=["list", "tuple", "array-0x2", "array-0"],
)
def test_from_edges_empty_inputs(edges):
    f = InterDep.from_edges(3, 4, edges)
    assert f.nnz == 0
    assert f.row_indptr.tolist() == [0, 0, 0, 0]
    assert f.row_indices.tolist() == []
