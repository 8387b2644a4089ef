"""Symmetric SpMV from lower-triangular storage (half the matrix traffic).

For SPD operands — the paper's whole suite — ``y = A x`` only needs the
lower triangle: iteration ``j`` walks column ``j`` of ``L = lower(A)``
once, contributing ``L[i, j] * x[j]`` to ``y[i]`` (the scatter half) and
``L[i, j] * x[i]`` to ``y[j]`` (the gather half, using symmetry), with
the diagonal applied once. This touches ~half the nonzeros of the full
CSR SpMV, at the price of atomic scatter — a classic SPD kernel worth
having in the registry, and an interesting fusion operand because its
write pattern is a whole column (``F`` grows accordingly).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..graph.dag import DAG
from ..sparse.base import INDEX_DTYPE, VALUE_DTYPE
from ..sparse.csc import CSCMatrix
from ..utils.arrays import (
    group_sums,
    multi_range,
    row_block_matvec,
    row_block_ptrs,
    split_sizes,
)
from .base import Kernel, State, empty_map, slice_map

__all__ = ["SpMVSymLower"]

_EMPTY = np.empty(0, dtype=INDEX_DTYPE)


class SpMVSymLower(Kernel):
    """Symmetric SpMV over lower-triangular CSC storage.

    Parameters
    ----------
    low:
        ``lower(A)`` as a :class:`CSCMatrix` with leading diagonals.
    a_var, x_var, y_var:
        Variable names for the lower-triangle values, input, and output.
        ``y`` is zeroed in :meth:`setup` (scatter accumulation).
    """

    name = "SpMV-sym-lower"

    def __init__(self, low: CSCMatrix, *, a_var="Alow", x_var="x", y_var="y"):
        if not low.is_square or not low.is_lower_triangular():
            raise ValueError("SpMVSymLower requires a lower-triangular CSC operand")
        n = low.n_cols
        first = low.indptr[:-1]
        if np.any(np.diff(low.indptr) == 0) or np.any(
            low.indices[first] != np.arange(n, dtype=INDEX_DTYPE)
        ):
            raise ValueError("every column needs a leading diagonal entry")
        self.low = low
        self.a_var = a_var
        self.x_var = x_var
        self.y_var = y_var
        self.row_block_var = x_var
        # every access to y is part of the `y[touched] += ...` accumulation
        self.atomic_update_vars = {y_var: ("read", "write")}
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

    # -- execution ------------------------------------------------------
    def setup(self, state: State) -> None:
        state[self.y_var][:] = 0.0

    def run_iteration(self, j: int, state: State, scratch: Any = None) -> None:
        lo, hi = self.low.indptr[j], self.low.indptr[j + 1]
        vals = state[self.a_var][lo:hi]
        x = state[self.x_var]
        y = state[self.y_var]
        rows = self.low.indices[lo + 1 : hi]  # strict-lower rows
        off = vals[1:]
        y[j] += vals[0] * x[j] + float(np.dot(off, x[rows]))
        if rows.shape[0]:
            y[rows] += off * x[j]

    def precompute_levels(self, iters: np.ndarray, sizes) -> list:
        iters = np.asarray(iters, dtype=INDEX_DTYPE)
        lo = self.low.indptr[iters]
        counts = self.low.indptr[iters + 1] - lo - 1  # strict-lower entries
        gather = multi_range(lo + 1, counts)
        per_step = group_sums(counts, sizes)
        return [
            {"diag": d, "ptr": p, "cols": r, "gather": g, "counts": c}
            for d, p, r, g, c in zip(
                split_sizes(lo, sizes),
                row_block_ptrs(counts, sizes),
                split_sizes(self.low.indices[gather], per_step),
                split_sizes(gather, per_step),
                split_sizes(counts, sizes),
            )
        ]

    def run_level_batch(self, iters, state: State, precomp, scratch=None) -> None:
        iters = np.asarray(iters, dtype=INDEX_DTYPE)
        a = state[self.a_var]
        x = state[self.x_var]
        y = state[self.y_var]
        vals = a[precomp["gather"]]
        rows = precomp["cols"]  # strict-lower rows of the step's columns
        # gather half: y[j] += diag*x[j] + sum(off * x[rows])
        acc = a[precomp["diag"]] * x[iters]
        row_block_matvec(precomp["ptr"], rows, vals, x, acc)
        np.add.at(y, iters, acc)
        # scatter half: y[rows] += off * x[j]
        np.add.at(y, rows, vals * np.repeat(x[iters], precomp["counts"]))

    def run_reference(self, state: State) -> None:
        low = CSCMatrix(
            self.low.n_rows,
            self.low.n_cols,
            self.low.indptr,
            self.low.indices,
            state[self.a_var],
            check=False,
        )
        full = low.to_csr().to_scipy()
        sym = full + full.T
        sym.setdiag(sym.diagonal() / 2.0)
        state[self.y_var][:] = sym @ state[self.x_var]

    # -- dataflow -------------------------------------------------------
    @property
    def read_vars(self) -> tuple[str, ...]:
        return (self.a_var, self.x_var, self.y_var)

    @property
    def write_vars(self) -> tuple[str, ...]:
        return (self.y_var,)

    def var_sizes(self) -> dict[str, int]:
        n = self.low.n_cols
        return {self.a_var: self.low.nnz, self.x_var: n, self.y_var: n}

    def _touched(self, j: int) -> np.ndarray:
        lo, hi = self.low.indptr[j], self.low.indptr[j + 1]
        return self.low.indices[lo:hi]  # includes j itself (diagonal row)

    def reads_of(self, var: str, j: int) -> np.ndarray:
        lo, hi = self.low.indptr[j], self.low.indptr[j + 1]
        if var == self.a_var:
            return np.arange(lo, hi, dtype=INDEX_DTYPE)
        if var == self.x_var:
            return self._touched(j)
        if var == self.y_var:  # read-modify-write accumulation
            return self._touched(j)
        return _EMPTY

    def writes_of(self, var: str, j: int) -> np.ndarray:
        if var == self.y_var:
            return self._touched(j)
        return _EMPTY

    def write_map(self, var: str) -> tuple[np.ndarray, np.ndarray]:
        n = self.n_iterations
        if var == self.y_var:
            return self.low.indptr.copy(), self.low.indices.copy()
        return empty_map(n)

    def read_map(self, var: str) -> tuple[np.ndarray, np.ndarray]:
        n = self.n_iterations
        if var == self.a_var:
            return slice_map(self.low.indptr)
        if var in (self.x_var, self.y_var):
            return self.low.indptr.copy(), self.low.indices.copy()
        return empty_map(n)

    # -- costs ----------------------------------------------------------
    def iteration_costs(self) -> np.ndarray:
        return self.low.col_nnz().astype(VALUE_DTYPE)

    def flop_count(self) -> float:
        # full SpMV flops (2 per logical nonzero of symmetric A)
        return float(2 * (2 * self.low.nnz - self.low.n_cols))
