"""The inter-kernel dependency matrix ``F`` (Sec. 2.2 of the paper).

``F`` records dependencies *across* the two fused loops: a nonzero
``F[i, j]`` is a dependence from iteration ``j`` of the first loop to
iteration ``i`` of the second loop (column = producer, row = consumer,
exactly the paper's convention). :class:`InterDep` stores both the
row-major (consumer -> producers) and column-major (producer ->
consumers) views because partition pairing traverses both directions.
"""

from __future__ import annotations

import numpy as np

from ..sparse.base import INDEX_DTYPE
from ..sparse.csr import CSRMatrix, _compressed_transpose

__all__ = ["InterDep"]


class InterDep:
    """Inter-loop dependence structure between two fused loops.

    Attributes
    ----------
    n_first, n_second:
        Iteration counts of the first and second loop.
    row_indptr, row_indices:
        CSR view: producers (first-loop iterations) of each second-loop
        iteration ``i`` are ``row_indices[row_indptr[i]:row_indptr[i+1]]``.
    col_indptr, col_indices:
        CSC view: consumers (second-loop iterations) of each first-loop
        iteration ``j``.
    """

    __slots__ = (
        "n_first",
        "n_second",
        "row_indptr",
        "row_indices",
        "col_indptr",
        "col_indices",
    )

    def __init__(self, n_second: int, n_first: int, row_indptr, row_indices):
        self.n_first = int(n_first)
        self.n_second = int(n_second)
        self.row_indptr = np.ascontiguousarray(row_indptr, dtype=INDEX_DTYPE)
        self.row_indices = np.ascontiguousarray(row_indices, dtype=INDEX_DTYPE)
        if self.row_indptr.shape[0] != self.n_second + 1:
            raise ValueError("row_indptr length must be n_second + 1")
        if self.row_indices.size and (
            self.row_indices.min() < 0 or self.row_indices.max() >= self.n_first
        ):
            raise ValueError("producer index out of range")
        dummy = np.zeros(self.row_indices.shape[0])
        self.col_indptr, self.col_indices, _ = _compressed_transpose(
            self.row_indptr, self.row_indices, dummy, self.n_first
        )

    # ------------------------------------------------------------------
    @classmethod
    def empty(cls, n_second: int, n_first: int) -> "InterDep":
        """No cross-loop dependencies (independent loops)."""
        return cls(
            n_second,
            n_first,
            np.zeros(n_second + 1, dtype=INDEX_DTYPE),
            np.empty(0, dtype=INDEX_DTYPE),
        )

    @classmethod
    def from_edges(cls, n_second: int, n_first: int, edges) -> "InterDep":
        """Build from ``(producer_j, consumer_i)`` pairs, given as an
        ``(m, 2)`` array or a sequence of pairs."""
        edges = np.asarray(edges, dtype=INDEX_DTYPE).reshape(-1, 2)
        if edges.size == 0:
            return cls.empty(n_second, n_first)
        j, i = edges[:, 0], edges[:, 1]
        order = np.lexsort((j, i))
        i, j = i[order], j[order]
        dedup = np.concatenate([[True], (i[1:] != i[:-1]) | (j[1:] != j[:-1])])
        i, j = i[dedup], j[dedup]
        indptr = np.zeros(n_second + 1, dtype=INDEX_DTYPE)
        np.cumsum(np.bincount(i, minlength=n_second), out=indptr[1:])
        return cls(n_second, n_first, indptr, j)

    @classmethod
    def identity(cls, n: int) -> "InterDep":
        """Element-wise pipeline: iteration j feeds iteration j."""
        return cls(
            n,
            n,
            np.arange(n + 1, dtype=INDEX_DTYPE),
            np.arange(n, dtype=INDEX_DTYPE),
        )

    @classmethod
    def from_csr_pattern(cls, mat: CSRMatrix) -> "InterDep":
        """Use the pattern of *mat* directly: ``mat[i, j] != 0`` means
        first-loop iteration ``j`` feeds second-loop iteration ``i``."""
        return cls(mat.n_rows, mat.n_cols, mat.indptr, mat.indices)

    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        """Number of cross-loop dependence edges."""
        return int(self.row_indices.shape[0])

    def producers(self, i: int) -> np.ndarray:
        """First-loop iterations that second-loop iteration *i* reads."""
        return self.row_indices[self.row_indptr[i] : self.row_indptr[i + 1]]

    def consumers(self, j: int) -> np.ndarray:
        """Second-loop iterations that read first-loop iteration *j*."""
        return self.col_indices[self.col_indptr[j] : self.col_indptr[j + 1]]

    def edge_list(self) -> np.ndarray:
        """All cross edges as ``(producer_j, consumer_i)`` rows."""
        consumers = np.repeat(
            np.arange(self.n_second, dtype=INDEX_DTYPE), np.diff(self.row_indptr)
        )
        return np.stack([self.row_indices, consumers], axis=1)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"InterDep(first={self.n_first}, second={self.n_second}, "
            f"edges={self.nnz})"
        )
