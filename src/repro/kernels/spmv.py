"""Sparse matrix-vector product kernels (SpMV), CSR and CSC variants.

Both are fully parallel loops (empty intra-DAG); they differ in which
loop index is the iteration and hence in their cross-kernel dependence
pattern:

* **CSR variant**: iteration ``i`` computes ``y[i] = A[i, :] @ x``
  (+ optional addend) — one write, gathered reads of ``x``.
* **CSC variant** (Fig. 2a lines 8–12): iteration ``j`` scatters
  ``A[:, j] * x[j]`` into ``y`` — the paper's ``Atomic`` accumulation.
  ``y`` is zeroed in :meth:`setup`.
"""

from __future__ import annotations

from functools import cached_property
from typing import Any

import numpy as np

from ..graph.dag import DAG
from ..sparse.base import INDEX_DTYPE, VALUE_DTYPE
from ..sparse.csc import CSCMatrix
from ..sparse.csr import CSRMatrix
from ..utils.arrays import group_sums, multi_range, split_sizes
from .base import (
    Kernel,
    RowBlockKernel,
    RowForm,
    State,
    empty_map,
    identity_map,
    slice_map,
)

__all__ = ["SpMVCSR", "SpMVCSC"]

_EMPTY = np.empty(0, dtype=INDEX_DTYPE)


class SpMVCSR(RowBlockKernel):
    """SpMV over CSR storage: ``y = A @ x`` or ``y = A @ x + c``.

    Parameters
    ----------
    a:
        The :class:`CSRMatrix` operand.
    a_var, x_var, y_var:
        State variable names for the matrix values, input and output.
    add_var:
        Optional addend variable (used by Gauss–Seidel: ``t = E @ x + b``).
    """

    name = "SpMV-CSR"

    def __init__(self, a: CSRMatrix, *, a_var="Ax", x_var="x", y_var="y", add_var=None):
        self.a = a
        self.a_var = a_var
        self.x_var = x_var
        self.y_var = y_var
        self.add_var = add_var
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

    # -- execution ------------------------------------------------------
    def run_iteration(self, i: int, state: State, scratch: Any = None) -> None:
        lo, hi = self.a.indptr[i], self.a.indptr[i + 1]
        cols = self.a.indices[lo:hi]
        acc = np.dot(state[self.a_var][lo:hi], state[self.x_var][cols])
        if self.add_var is not None:
            acc += state[self.add_var][i]
        state[self.y_var][i] = acc

    @cached_property
    def row_form(self) -> RowForm:
        # y[i] = c[i] + sum_j A[i, j] x[j], starting at 0 without an addend
        return RowForm(
            out=self.y_var,
            src=self.x_var,
            mat=self.a_var,
            ptr=self.a.indptr,
            cols=self.a.indices,
            pos=np.arange(self.a.nnz, dtype=INDEX_DTYPE),
            rhs=self.add_var,
        )

    def run_reference(self, state: State) -> None:
        mat = CSRMatrix(
            self.a.n_rows,
            self.a.n_cols,
            self.a.indptr,
            self.a.indices,
            state[self.a_var],
            check=False,
        )
        out = mat.matvec(state[self.x_var])
        if self.add_var is not None:
            out = out + state[self.add_var]
        state[self.y_var][:] = out

    # -- dataflow -------------------------------------------------------
    @property
    def read_vars(self) -> tuple[str, ...]:
        base = (self.a_var, self.x_var)
        return base + ((self.add_var,) if self.add_var else ())

    @property
    def write_vars(self) -> tuple[str, ...]:
        return (self.y_var,)

    def var_sizes(self) -> dict[str, int]:
        sizes = {
            self.a_var: self.a.nnz,
            self.x_var: self.a.n_cols,
            self.y_var: self.a.n_rows,
        }
        if self.add_var:
            sizes[self.add_var] = self.a.n_rows
        return sizes

    def reads_of(self, var: str, i: int) -> np.ndarray:
        lo, hi = self.a.indptr[i], self.a.indptr[i + 1]
        if var == self.a_var:
            return np.arange(lo, hi, dtype=INDEX_DTYPE)
        if var == self.x_var:
            return self.a.indices[lo:hi]
        if var == self.add_var:
            return np.array([i], dtype=INDEX_DTYPE)
        return _EMPTY

    def writes_of(self, var: str, i: int) -> np.ndarray:
        if var == self.y_var:
            return np.array([i], dtype=INDEX_DTYPE)
        return _EMPTY

    def read_map(self, var: str) -> tuple[np.ndarray, np.ndarray]:
        n = self.n_iterations
        if var == self.a_var:
            return slice_map(self.a.indptr)
        if var == self.x_var:
            return self.a.indptr.copy(), self.a.indices.copy()
        if var == self.add_var and self.add_var is not None:
            return identity_map(n)
        return empty_map(n)

    def write_map(self, var: str) -> tuple[np.ndarray, np.ndarray]:
        n = self.n_iterations
        if var == self.y_var:
            return identity_map(n)
        return empty_map(n)

    # -- costs ----------------------------------------------------------
    def iteration_costs(self) -> np.ndarray:
        return self.a.row_nnz().astype(VALUE_DTYPE)

    def flop_count(self) -> float:
        extra = self.a.n_rows if self.add_var else 0
        return float(2 * self.a.nnz + extra)


class SpMVCSC(Kernel):
    """SpMV over CSC storage: ``y = A @ x`` with scatter accumulation.

    Iteration ``j`` performs ``y[A[:, j].rows] += A[:, j].vals * x[j]``,
    the paper's atomic variant. The loop is parallel (the runtime models
    the atomics' serialization as part of the cost model); the output is
    zeroed in :meth:`setup`.
    """

    name = "SpMV-CSC"

    def __init__(self, a: CSCMatrix, *, a_var="Ax", x_var="x", y_var="y"):
        self.a = a
        self.a_var = a_var
        self.x_var = x_var
        self.y_var = y_var
        # every access to y is part of the `y[rows] += ...` accumulation
        self.atomic_update_vars = {y_var: ("read", "write")}
        self._dag: DAG | None = None

    @property
    def n_iterations(self) -> int:
        return self.a.n_cols

    def intra_dag(self) -> DAG:
        if self._dag is None:
            self._dag = DAG.empty(
                self.a.n_cols, self.a.col_nnz().astype(VALUE_DTYPE)
            )
        return self._dag

    # -- execution ------------------------------------------------------
    def setup(self, state: State) -> None:
        state[self.y_var][:] = 0.0

    def run_iteration(self, j: int, state: State, scratch: Any = None) -> None:
        lo, hi = self.a.indptr[j], self.a.indptr[j + 1]
        rows = self.a.indices[lo:hi]
        if rows.shape[0]:
            state[self.y_var][rows] += state[self.a_var][lo:hi] * state[self.x_var][j]

    def precompute_levels(self, iters: np.ndarray, sizes) -> list:
        iters = np.asarray(iters, dtype=INDEX_DTYPE)
        starts = self.a.indptr[iters]
        counts = self.a.indptr[iters + 1] - starts
        gather = multi_range(starts, counts)
        per_step = group_sums(counts, sizes)
        return [
            {"gather": g, "rows": r, "counts": c}
            for g, r, c in zip(
                split_sizes(gather, per_step),
                split_sizes(self.a.indices[gather], per_step),
                split_sizes(counts, sizes),
            )
        ]

    def run_level_batch(self, iters, state: State, precomp, scratch=None) -> None:
        iters = np.asarray(iters, dtype=INDEX_DTYPE)
        xj = np.repeat(state[self.x_var][iters], precomp["counts"])
        # unbuffered accumulation: overlapping rows within the batch sum
        # correctly (the vectorized analogue of the paper's Atomic)
        vals = state[self.a_var][precomp["gather"]]
        np.add.at(state[self.y_var], precomp["rows"], vals * xj)

    def run_reference(self, state: State) -> None:
        mat = CSCMatrix(
            self.a.n_rows,
            self.a.n_cols,
            self.a.indptr,
            self.a.indices,
            state[self.a_var],
            check=False,
        )
        state[self.y_var][:] = mat.matvec(state[self.x_var])

    # -- dataflow -------------------------------------------------------
    @property
    def read_vars(self) -> tuple[str, ...]:
        return (self.a_var, self.x_var, self.y_var)

    @property
    def write_vars(self) -> tuple[str, ...]:
        return (self.y_var,)

    def var_sizes(self) -> dict[str, int]:
        return {
            self.a_var: self.a.nnz,
            self.x_var: self.a.n_cols,
            self.y_var: self.a.n_rows,
        }

    def reads_of(self, var: str, j: int) -> np.ndarray:
        lo, hi = self.a.indptr[j], self.a.indptr[j + 1]
        if var == self.a_var:
            return np.arange(lo, hi, dtype=INDEX_DTYPE)
        if var == self.x_var:
            return np.array([j], dtype=INDEX_DTYPE)
        if var == self.y_var:  # read-modify-write accumulation
            return self.a.indices[lo:hi]
        return _EMPTY

    def writes_of(self, var: str, j: int) -> np.ndarray:
        lo, hi = self.a.indptr[j], self.a.indptr[j + 1]
        if var == self.y_var:
            return self.a.indices[lo:hi]
        return _EMPTY

    def read_map(self, var: str) -> tuple[np.ndarray, np.ndarray]:
        n = self.n_iterations
        if var == self.a_var:
            return slice_map(self.a.indptr)
        if var == self.x_var:
            return identity_map(n)
        if var == self.y_var:
            return self.a.indptr.copy(), self.a.indices.copy()
        return empty_map(n)

    def write_map(self, var: str) -> tuple[np.ndarray, np.ndarray]:
        n = self.n_iterations
        if var == self.y_var:
            return self.a.indptr.copy(), self.a.indices.copy()
        return empty_map(n)

    # -- costs ----------------------------------------------------------
    def iteration_costs(self) -> np.ndarray:
        return self.a.col_nnz().astype(VALUE_DTYPE)

    def flop_count(self) -> float:
        return float(2 * self.a.nnz)
