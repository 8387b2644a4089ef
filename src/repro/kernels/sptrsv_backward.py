"""Backward sparse triangular solve: ``Lᵀ x = b`` from ``L``'s storage.

The transpose solve appears whenever an IC0 preconditioner is applied
(``z = L⁻ᵀ L⁻¹ r`` inside preconditioned CG — the Krylov use case the
paper's introduction motivates). Columns of ``Lᵀ`` are rows of ``L``, so
the kernel runs directly off lower-triangular CSR storage with *no*
transposed copy — but it must process rows in *descending* order.

Descending iteration breaks the library's natural-topological-order
convention, so the kernel **reverses its iteration numbering**:
iteration ``k`` handles row ``j = n - 1 - k``. Dependencies then flow
from smaller to larger ``k`` again and every scheduler works unchanged.
All dataflow declarations (reads/writes, maps) are stated in ``k``
space; only the arithmetic touches ``j``-space arrays.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..graph.dag import DAG
from ..sparse.base import INDEX_DTYPE, VALUE_DTYPE
from ..sparse.csr import CSRMatrix
from ..utils.arrays import group_sums, multi_range, split_sizes
from .base import Kernel, State, empty_map, map_from_counts

__all__ = ["SpTRSVBackwardCSR"]

_EMPTY = np.empty(0, dtype=INDEX_DTYPE)


class SpTRSVBackwardCSR(Kernel):
    """Solve ``Lᵀ x = b`` with ``L`` lower-triangular CSR (push form).

    Iteration ``k`` finalizes ``x[j]`` for ``j = n-1-k`` using a private
    accumulator, then pushes ``L[j, c] * x[j]`` into ``acc[c]`` for every
    strictly-lower entry of row ``j`` (those are the above-diagonal
    entries of column ``j`` of ``Lᵀ``).
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
        self.acc_var = f"_acc.{x_var}"
        # the push `acc[cols] += ...` commutes between rows; the
        # consuming read `acc[j]` stays a plain read
        self.atomic_update_vars = {self.acc_var: ("write",)}
        #: row j handled by each iteration k, in k order
        self._rows = np.arange(n - 1, -1, -1, dtype=INDEX_DTYPE)
        self._dag: DAG | None = None

    # -- iteration <-> row mapping ---------------------------------------
    @property
    def n_iterations(self) -> int:
        return self.low.n_rows

    def _row(self, k: int) -> int:
        return self.low.n_rows - 1 - k

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
            weights = self.low.row_nnz()[::-1].astype(VALUE_DTYPE)
            self._dag = DAG.from_edges(n, edges, weights)
        return self._dag

    # -- execution ------------------------------------------------------
    def setup(self, state: State) -> None:
        state[self.acc_var][:] = 0.0

    def run_iteration(self, k: int, state: State, scratch: Any = None) -> None:
        j = self._row(k)
        lo, hi = self.low.indptr[j], self.low.indptr[j + 1]
        lx = state[self.l_var]
        acc = state[self.acc_var]
        xj = (state[self.b_var][j] - acc[j]) / lx[hi - 1]
        state[self.x_var][j] = xj
        cols = self.low.indices[lo : hi - 1]
        if cols.shape[0]:
            acc[cols] += lx[lo : hi - 1] * xj

    def precompute_levels(self, iters: np.ndarray, sizes) -> list:
        iters = np.asarray(iters, dtype=INDEX_DTYPE)
        rows = self.low.n_rows - 1 - iters
        starts = self.low.indptr[rows]
        counts = self.low.indptr[rows + 1] - starts - 1  # strict-lower
        gather = multi_range(starts, counts)
        per_step = group_sums(counts, sizes)
        return [
            {"rows": r, "diag": d, "gather": g, "cols": c, "counts": n}
            for r, d, g, c, n in zip(
                split_sizes(rows, sizes),
                split_sizes(self.low.indptr[rows + 1] - 1, sizes),
                split_sizes(gather, per_step),
                split_sizes(self.low.indices[gather], per_step),
                split_sizes(counts, sizes),
            )
        ]

    def bind_level(self, iters, precomp, values):
        lx = values.get(self.l_var)
        if lx is None:
            return precomp
        return {
            **precomp,
            "vals": lx[precomp["gather"]],
            "dvals": lx[precomp["diag"]],
        }

    def run_level_batch(self, iters, state: State, precomp, scratch=None) -> None:
        vals = precomp.get("vals")
        if vals is None:
            lx = state[self.l_var]
            vals, dvals = lx[precomp["gather"]], lx[precomp["diag"]]
        else:
            dvals = precomp["dvals"]
        acc = state[self.acc_var]
        rows = precomp["rows"]
        xj = (state[self.b_var][rows] - acc[rows]) / dvals
        state[self.x_var][rows] = xj
        if precomp["gather"].shape[0]:
            np.add.at(acc, precomp["cols"], vals * np.repeat(xj, precomp["counts"]))

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
        state[self.acc_var][:] = 0.0

    # -- dataflow (k-space) ----------------------------------------------
    @property
    def read_vars(self) -> tuple[str, ...]:
        return (self.l_var, self.b_var, self.acc_var)

    @property
    def write_vars(self) -> tuple[str, ...]:
        return (self.x_var, self.acc_var)

    def var_sizes(self) -> dict[str, int]:
        n = self.low.n_rows
        return {
            self.l_var: self.low.nnz,
            self.b_var: n,
            self.x_var: n,
            self.acc_var: n,
        }

    def reads_of(self, var: str, k: int) -> np.ndarray:
        j = self._row(k)
        lo, hi = self.low.indptr[j], self.low.indptr[j + 1]
        if var == self.l_var:
            return np.arange(lo, hi, dtype=INDEX_DTYPE)
        if var == self.b_var:
            return np.array([j], dtype=INDEX_DTYPE)
        if var == self.acc_var:
            return np.array([j], dtype=INDEX_DTYPE)
        return _EMPTY

    def writes_of(self, var: str, k: int) -> np.ndarray:
        j = self._row(k)
        lo, hi = self.low.indptr[j], self.low.indptr[j + 1]
        if var == self.x_var:
            return np.array([j], dtype=INDEX_DTYPE)
        if var == self.acc_var:
            return self.low.indices[lo : hi - 1]
        return _EMPTY

    def _row_ranges(self, drop_last: int) -> tuple[np.ndarray, np.ndarray]:
        """Storage positions of row ``j`` per iteration ``k``, in k order,
        without the row's last *drop_last* entries (1 drops the diagonal)."""
        counts = self.low.row_nnz()[self._rows] - drop_last
        return counts, multi_range(self.low.indptr[self._rows], counts)

    def read_map(self, var: str) -> tuple[np.ndarray, np.ndarray]:
        if var == self.l_var:
            return map_from_counts(*self._row_ranges(0))
        if var in (self.b_var, self.acc_var):
            return self._own_row_map()
        return empty_map(self.n_iterations)

    def write_map(self, var: str) -> tuple[np.ndarray, np.ndarray]:
        if var == self.x_var:
            return self._own_row_map()
        if var == self.acc_var:
            counts, pos = self._row_ranges(1)
            return map_from_counts(counts, self.low.indices[pos])
        return empty_map(self.n_iterations)

    def _own_row_map(self) -> tuple[np.ndarray, np.ndarray]:
        """Iteration ``k`` touches element ``j = n - 1 - k`` only."""
        return map_from_counts(np.ones_like(self._rows), self._rows.copy())

    # -- costs ----------------------------------------------------------
    def iteration_costs(self) -> np.ndarray:
        return self.low.row_nnz()[::-1].astype(VALUE_DTYPE)

    def flop_count(self) -> float:
        return float(2 * (self.low.nnz - self.low.n_rows) + self.low.n_rows)
