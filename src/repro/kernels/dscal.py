"""Diagonal scaling kernels (DSCAL), CSR and CSC variants.

Computes ``S = D A Dᵀ`` with ``D = diag(1/sqrt(diag(A)))`` — the
symmetric Jacobi scaling used before incomplete factorizations (kernel
combinations 2 and 6 in Table 1). Both variants are fully parallel
loops: iteration ``i`` scales one row (CSR) or one column (CSC).

The CSC variant operates on the *lower triangle only* (the operand
SpIC0 consumes); scaling the lower triangle of a symmetric matrix by
``d_i d_j`` yields exactly ``lower(D A Dᵀ)``.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..graph.dag import DAG
from ..sparse.base import INDEX_DTYPE, VALUE_DTYPE
from ..sparse.csc import CSCMatrix
from ..sparse.csr import CSRMatrix
from ..utils.arrays import group_sums, multi_range, split_sizes
from ..utils.intsort import unique
from .base import Kernel, State, empty_map, map_from_pairs, slice_map

__all__ = ["DScalCSR", "DScalCSC"]

_EMPTY = np.empty(0, dtype=INDEX_DTYPE)


class DScalCSR(Kernel):
    """DSCAL over CSR: iteration ``i`` writes row ``i`` of ``D A Dᵀ``.

    Parameters
    ----------
    a:
        Square :class:`CSRMatrix` pattern with full diagonal.
    a_var:
        State variable with the values of ``A`` (layout ``a.data``).
    s_var:
        Output variable for the scaled values, same layout.
    """

    name = "DSCAL-CSR"

    def __init__(self, a: CSRMatrix, *, a_var="Ax", s_var="Sx"):
        if not a.is_square:
            raise ValueError("DSCAL requires a square matrix")
        self.a = a
        self.a_var = a_var
        self.s_var = s_var
        self._diag_pos = a.diagonal_positions()
        self._dag: DAG | None = None

    @property
    def n_iterations(self) -> int:
        return self.a.n_rows

    def intra_dag(self) -> DAG:
        if self._dag is None:
            self._dag = DAG.empty(
                self.a.n_rows, self.a.row_nnz().astype(VALUE_DTYPE)
            )
        return self._dag

    def run_iteration(self, i: int, state: State, scratch: Any = None) -> None:
        lo, hi = self.a.indptr[i], self.a.indptr[i + 1]
        cols = self.a.indices[lo:hi]
        ax = state[self.a_var]
        di = 1.0 / np.sqrt(ax[self._diag_pos[i]])
        dj = 1.0 / np.sqrt(ax[self._diag_pos[cols]])
        state[self.s_var][lo:hi] = ax[lo:hi] * di * dj

    def precompute_levels(self, iters: np.ndarray, sizes) -> list:
        return _scaling_levels(
            self.a.indptr, self.a.indices, self._diag_pos, iters, sizes, "col_diag"
        )

    def run_level_batch(self, iters, state: State, precomp, scratch=None) -> None:
        ax = state[self.a_var]
        di = np.repeat(1.0 / np.sqrt(ax[precomp["own_diag"]]), precomp["counts"])
        dj = 1.0 / np.sqrt(ax[precomp["col_diag"]])
        state[self.s_var][precomp["gather"]] = ax[precomp["gather"]] * di * dj

    def run_reference(self, state: State) -> None:
        ax = state[self.a_var]
        d = 1.0 / np.sqrt(ax[self._diag_pos])
        rows = np.repeat(
            np.arange(self.a.n_rows, dtype=INDEX_DTYPE), self.a.row_nnz()
        )
        state[self.s_var][:] = ax * d[rows] * d[self.a.indices]

    @property
    def read_vars(self) -> tuple[str, ...]:
        return (self.a_var,)

    @property
    def write_vars(self) -> tuple[str, ...]:
        return (self.s_var,)

    def var_sizes(self) -> dict[str, int]:
        return {self.a_var: self.a.nnz, self.s_var: self.a.nnz}

    def reads_of(self, var: str, i: int) -> np.ndarray:
        if var == self.a_var:
            lo, hi = self.a.indptr[i], self.a.indptr[i + 1]
            own = np.arange(lo, hi, dtype=INDEX_DTYPE)
            diags = self._diag_pos[self.a.indices[lo:hi]]
            return unique(np.concatenate([own, diags]))
        return _EMPTY

    def writes_of(self, var: str, i: int) -> np.ndarray:
        if var == self.s_var:
            lo, hi = self.a.indptr[i], self.a.indptr[i + 1]
            return np.arange(lo, hi, dtype=INDEX_DTYPE)
        return _EMPTY

    def read_map(self, var: str) -> tuple[np.ndarray, np.ndarray]:
        if var == self.a_var:
            return _own_and_diagonals(self.a.indptr, self.a.indices, self._diag_pos)
        return empty_map(self.n_iterations)

    def write_map(self, var: str) -> tuple[np.ndarray, np.ndarray]:
        if var == self.s_var:
            return slice_map(self.a.indptr)
        return empty_map(self.n_iterations)

    def iteration_costs(self) -> np.ndarray:
        return self.a.row_nnz().astype(VALUE_DTYPE)

    def flop_count(self) -> float:
        return float(2 * self.a.nnz + self.a.n_rows)


class DScalCSC(Kernel):
    """DSCAL over the lower triangle in CSC: writes ``lower(D A Dᵀ)``.

    Iteration ``j`` scales column ``j`` of the lower-triangular operand;
    the scale factors ``d`` come from the leading (diagonal) entry of
    each column, so iteration ``j`` reads its own diagonal plus the
    diagonals of the rows present in column ``j``.
    """

    name = "DSCAL-CSC"

    def __init__(self, low: CSCMatrix, *, a_var="Alow", s_var="Slow"):
        if not low.is_square or not low.is_lower_triangular():
            raise ValueError("DScalCSC requires a lower-triangular CSC operand")
        n = low.n_cols
        first = low.indptr[:-1]
        if np.any(np.diff(low.indptr) == 0) or np.any(
            low.indices[first] != np.arange(n, dtype=INDEX_DTYPE)
        ):
            raise ValueError("every column needs a leading diagonal entry")
        self.low = low
        self.a_var = a_var
        self.s_var = s_var
        # Diagonal of column j leads the column in sorted lower CSC.
        self._diag_pos = low.indptr[:-1].copy()
        self._dag: DAG | None = None

    @property
    def n_iterations(self) -> int:
        return self.low.n_cols

    def intra_dag(self) -> DAG:
        if self._dag is None:
            self._dag = DAG.empty(
                self.low.n_cols, self.low.col_nnz().astype(VALUE_DTYPE)
            )
        return self._dag

    def run_iteration(self, j: int, state: State, scratch: Any = None) -> None:
        lo, hi = self.low.indptr[j], self.low.indptr[j + 1]
        rows = self.low.indices[lo:hi]
        ax = state[self.a_var]
        dj = 1.0 / np.sqrt(ax[self._diag_pos[j]])
        di = 1.0 / np.sqrt(ax[self._diag_pos[rows]])
        state[self.s_var][lo:hi] = ax[lo:hi] * dj * di

    def precompute_levels(self, iters: np.ndarray, sizes) -> list:
        return _scaling_levels(
            self.low.indptr, self.low.indices, self._diag_pos, iters, sizes, "row_diag"
        )

    def run_level_batch(self, iters, state: State, precomp, scratch=None) -> None:
        ax = state[self.a_var]
        dj = np.repeat(1.0 / np.sqrt(ax[precomp["own_diag"]]), precomp["counts"])
        di = 1.0 / np.sqrt(ax[precomp["row_diag"]])
        state[self.s_var][precomp["gather"]] = ax[precomp["gather"]] * dj * di

    def run_reference(self, state: State) -> None:
        ax = state[self.a_var]
        d = 1.0 / np.sqrt(ax[self._diag_pos])
        cols = np.repeat(
            np.arange(self.low.n_cols, dtype=INDEX_DTYPE), self.low.col_nnz()
        )
        state[self.s_var][:] = ax * d[cols] * d[self.low.indices]

    @property
    def read_vars(self) -> tuple[str, ...]:
        return (self.a_var,)

    @property
    def write_vars(self) -> tuple[str, ...]:
        return (self.s_var,)

    def var_sizes(self) -> dict[str, int]:
        return {self.a_var: self.low.nnz, self.s_var: self.low.nnz}

    def reads_of(self, var: str, j: int) -> np.ndarray:
        if var == self.a_var:
            lo, hi = self.low.indptr[j], self.low.indptr[j + 1]
            own = np.arange(lo, hi, dtype=INDEX_DTYPE)
            diags = self._diag_pos[self.low.indices[lo:hi]]
            return unique(np.concatenate([own, diags]))
        return _EMPTY

    def writes_of(self, var: str, j: int) -> np.ndarray:
        if var == self.s_var:
            lo, hi = self.low.indptr[j], self.low.indptr[j + 1]
            return np.arange(lo, hi, dtype=INDEX_DTYPE)
        return _EMPTY

    def read_map(self, var: str) -> tuple[np.ndarray, np.ndarray]:
        if var == self.a_var:
            return _own_and_diagonals(
                self.low.indptr, self.low.indices, self._diag_pos
            )
        return empty_map(self.n_iterations)

    def write_map(self, var: str) -> tuple[np.ndarray, np.ndarray]:
        if var == self.s_var:
            return slice_map(self.low.indptr)
        return empty_map(self.n_iterations)

    def iteration_costs(self) -> np.ndarray:
        return self.low.col_nnz().astype(VALUE_DTYPE)

    def flop_count(self) -> float:
        return float(2 * self.low.nnz + self.low.n_cols)


def _own_and_diagonals(indptr, indices, diag_pos) -> tuple[np.ndarray, np.ndarray]:
    """Read map of a scaling loop: iteration ``i`` reads its own entries
    and the diagonal entry of every index in its row (column)."""
    n = indptr.shape[0] - 1
    owner = np.repeat(np.arange(n, dtype=INDEX_DTYPE), np.diff(indptr))
    return map_from_pairs(
        n,
        np.concatenate([owner, owner]),
        np.concatenate([np.arange(indptr[-1], dtype=INDEX_DTYPE), diag_pos[indices]]),
    )


def _scaling_levels(indptr, indices, diag_pos, iters, sizes, other: str) -> list:
    """Level-step precomputations of a scaling loop: per step, the
    iterations' entries (``gather``), their own diagonals, the diagonals
    of every index in their rows (columns) under the key *other*, and the
    entry counts."""
    iters = np.asarray(iters, dtype=INDEX_DTYPE)
    starts = indptr[iters]
    counts = indptr[iters + 1] - starts
    gather = multi_range(starts, counts)
    per_step = group_sums(counts, sizes)
    return [
        {"gather": g, "own_diag": d, other: o, "counts": c}
        for g, d, o, c in zip(
            split_sizes(gather, per_step),
            split_sizes(diag_pos[iters], sizes),
            split_sizes(diag_pos[indices[gather]], per_step),
            split_sizes(counts, sizes),
        )
    ]
