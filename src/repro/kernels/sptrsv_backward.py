"""Backward sparse triangular solve: ``Lᵀ x = b`` from ``L``'s storage.

The transpose solve appears whenever an IC0 preconditioner is applied
(``z = L⁻ᵀ L⁻¹ r`` inside preconditioned CG — the Krylov use case the
paper's introduction motivates). Row ``j`` of ``Lᵀ`` is column ``j`` of
``L``, so the kernel pulls: ``x[j] = (b[j] − Σ_{i>j} L[i, j] x[i]) /
L[j, j]``, reading ``L``'s CSR values in place through a transpose
permutation built once, with *no* transposed copy of the values — but it
must process rows in *descending* order.

Descending iteration breaks the library's natural-topological-order
convention, so the kernel **reverses its iteration numbering**:
iteration ``k`` handles row ``j = n - 1 - k``. Dependencies then flow
from smaller to larger ``k`` again and every scheduler works unchanged.
All dataflow declarations (reads/writes, maps) are stated in ``k``
space; only the arithmetic touches ``j``-space arrays.
"""

from __future__ import annotations

from functools import cached_property
from typing import Any

import numpy as np

from ..graph.dag import DAG
from ..sparse.base import INDEX_DTYPE, VALUE_DTYPE
from ..sparse.csr import CSRMatrix
from ..utils.intsort import stable_argsort
from .base import RowBlockKernel, RowForm, State, empty_map, map_from_counts

__all__ = ["SpTRSVBackwardCSR"]


class SpTRSVBackwardCSR(RowBlockKernel):
    """Solve ``Lᵀ x = b`` with ``L`` lower-triangular CSR (pull form).

    Iteration ``k`` finalizes ``x[j]`` for ``j = n-1-k`` from the
    already final ``x[i]`` of every strictly-lower entry ``L[i, j]`` of
    column ``j`` (those are the above-diagonal entries of row ``j`` of
    ``Lᵀ``), summed in ascending ``i``.
    """

    name = "SpTRSV-backward-CSR"

    def __init__(self, low: CSRMatrix, *, l_var="Lx", b_var="b", x_var="x"):
        if not low.is_square or not low.is_lower_triangular():
            raise ValueError("requires a square lower-triangular matrix")
        n = low.n_rows
        last = low.indptr[1:] - 1
        if np.any(np.diff(low.indptr) == 0) or np.any(
            low.indices[last] != np.arange(n, dtype=INDEX_DTYPE)
        ):
            raise ValueError("every row needs a diagonal entry")
        self.low = low
        self.l_var = l_var
        self.b_var = b_var
        self.x_var = x_var
        #: row j handled by each iteration k, in k order
        self._rows = np.arange(n - 1, -1, -1, dtype=INDEX_DTYPE)
        self._dag: DAG | None = None

    # -- iteration <-> row mapping ---------------------------------------
    @property
    def n_iterations(self) -> int:
        return self.low.n_rows

    def intra_dag(self) -> DAG:
        """Edges in k-space: iteration of row j' feeds row j when
        ``L[j', j] != 0`` (j' > j), i.e. ``(n-1-j') -> (n-1-j)``."""
        if self._dag is None:
            n = self.low.n_rows
            rows = np.repeat(
                np.arange(n, dtype=INDEX_DTYPE), self.low.row_nnz()
            )
            strict = self.low.indices < rows
            src = n - 1 - rows[strict]
            dst = n - 1 - self.low.indices[strict]
            edges = np.stack([src, dst], axis=1)
            weights = self.iteration_costs()
            self._dag = DAG.from_edges(n, edges, weights)
        return self._dag

    @cached_property
    def row_form(self) -> RowForm:
        # Column j's strictly-lower entries, in ascending row i, for
        # j = n-1-k in k order: a stable sort of the CSR entries (rows
        # ascending) by k is the transpose permutation.
        n = self.low.n_rows
        rows = np.repeat(np.arange(n, dtype=INDEX_DTYPE), self.low.row_nnz())
        strict = np.flatnonzero(self.low.indices < rows)
        k_of = n - 1 - self.low.indices[strict]
        perm = strict[stable_argsort(k_of)]
        ptr = np.zeros(n + 1, dtype=INDEX_DTYPE)
        np.cumsum(np.bincount(k_of, minlength=n), out=ptr[1:])
        return RowForm(
            out=self.x_var,
            src=self.x_var,
            mat=self.l_var,
            ptr=ptr,
            cols=rows[perm],
            pos=perm,
            negate=True,
            rhs=self.b_var,
            diag=self.low.indptr[self._rows + 1] - 1,
            out_at=self._rows,
            rhs_at=self._rows,
        )

    # -- execution ------------------------------------------------------
    def run_iteration(self, k: int, state: State, scratch: Any = None) -> None:
        rows = self.row_form
        j = self.low.n_rows - 1 - k
        lo, hi = rows.ptr[k], rows.ptr[k + 1]
        lx = state[self.l_var]
        x = state[self.x_var]
        acc = state[self.b_var][j] - np.dot(lx[rows.pos[lo:hi]], x[rows.cols[lo:hi]])
        x[j] = acc / lx[rows.diag[k]]

    def run_reference(self, state: State) -> None:
        from scipy.sparse.linalg import spsolve_triangular

        mat = CSRMatrix(
            self.low.n_rows,
            self.low.n_cols,
            self.low.indptr,
            self.low.indices,
            state[self.l_var],
            check=False,
        ).to_scipy().T.tocsr()
        state[self.x_var][:] = spsolve_triangular(
            mat, state[self.b_var], lower=False
        )

    # -- dataflow (k-space) ----------------------------------------------
    @property
    def read_vars(self) -> tuple[str, ...]:
        return (self.l_var, self.b_var, self.x_var)

    @property
    def write_vars(self) -> tuple[str, ...]:
        return (self.x_var,)

    def var_sizes(self) -> dict[str, int]:
        n = self.low.n_rows
        return {self.l_var: self.low.nnz, self.b_var: n, self.x_var: n}

    def reads_of(self, var: str, k: int) -> np.ndarray:
        rows = self.row_form
        lo, hi = rows.ptr[k], rows.ptr[k + 1]
        if var == self.l_var:
            return np.append(rows.pos[lo:hi], rows.diag[k])
        if var == self.b_var:
            return self._rows[k : k + 1].copy()
        if var == self.x_var:
            return rows.cols[lo:hi].copy()
        return np.empty(0, dtype=INDEX_DTYPE)

    def writes_of(self, var: str, k: int) -> np.ndarray:
        if var == self.x_var:
            return self._rows[k : k + 1].copy()
        return np.empty(0, dtype=INDEX_DTYPE)

    def read_map(self, var: str) -> tuple[np.ndarray, np.ndarray]:
        rows = self.row_form
        counts = np.diff(rows.ptr)
        if var == self.l_var:
            # each column's off-diagonal positions, then its diagonal's
            return map_from_counts(
                counts + 1, np.insert(rows.pos, rows.ptr[1:], rows.diag)
            )
        if var == self.b_var:
            return self._own_row_map()
        if var == self.x_var:
            return map_from_counts(counts, rows.cols)
        return empty_map(self.n_iterations)

    def write_map(self, var: str) -> tuple[np.ndarray, np.ndarray]:
        if var == self.x_var:
            return self._own_row_map()
        return empty_map(self.n_iterations)

    def _own_row_map(self) -> tuple[np.ndarray, np.ndarray]:
        """Iteration ``k`` touches element ``j = n - 1 - k`` only."""
        return map_from_counts(np.ones_like(self._rows), self._rows.copy())

    # -- costs ----------------------------------------------------------
    def iteration_costs(self) -> np.ndarray:
        # column j's entries: its strictly-lower ones and the diagonal
        return (np.diff(self.row_form.ptr) + 1).astype(VALUE_DTYPE)

    def flop_count(self) -> float:
        return float(2 * (self.low.nnz - self.low.n_rows) + self.low.n_rows)
