"""Sparse triangular solve kernels (SpTRSV), CSR and CSC variants.

Solves ``L x = b`` for lower-triangular ``L``. Both variants have
loop-carried dependencies with DAG = the strict-lower pattern of ``L``
(Fig. 2b of the paper): a nonzero ``L[i, j]`` is the dependence
``j -> i``.

* **CSR variant** (Fig. 2a lines 1–7): iteration ``i`` gathers
  ``x[j]`` for every ``j`` in row ``i`` — a *pull* kernel.
* **CSC variant**: iteration ``j`` finalizes ``x[j]`` and scatters
  updates down column ``j`` into a private accumulator — a *push*
  kernel. The accumulator is an internal variable so that partial sums
  never alias the visible output.
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
    map_from_counts,
    slice_map,
)

__all__ = ["SpTRSVCSR", "SpTRSVCSC", "SpTRSVCSRFromLU"]

_EMPTY = np.empty(0, dtype=INDEX_DTYPE)


class SpTRSVCSR(RowBlockKernel):
    """SpTRSV over CSR storage: ``x = L^{-1} b``.

    Parameters
    ----------
    low:
        Lower-triangular :class:`CSRMatrix` with a full diagonal.
    l_var, b_var, x_var:
        State variable names for the matrix values (``data`` layout of
        *low*), the right-hand side, and the solution.
    """

    name = "SpTRSV-CSR"

    def __init__(self, low: CSRMatrix, *, l_var="Lx", b_var="b", x_var="x"):
        if not low.is_square or not low.is_lower_triangular():
            raise ValueError("SpTRSV requires a square lower-triangular matrix")
        self.low = low
        self.l_var = l_var
        self.b_var = b_var
        self.x_var = x_var
        # With sorted indices the diagonal is the last entry of each row;
        # verify once.
        n = low.n_rows
        last = low.indptr[1:] - 1
        if np.any(np.diff(low.indptr) == 0) or np.any(
            low.indices[last] != np.arange(n, dtype=INDEX_DTYPE)
        ):
            raise ValueError("every row needs a diagonal entry")
        self._dag: DAG | None = None

    # -- structure ------------------------------------------------------
    @property
    def n_iterations(self) -> int:
        return self.low.n_rows

    def intra_dag(self) -> DAG:
        if self._dag is None:
            self._dag = DAG.from_lower_triangular(self.low)
        return self._dag

    # -- execution ------------------------------------------------------
    def run_iteration(self, i: int, state: State, scratch: Any = None) -> None:
        lo, hi = self.low.indptr[i], self.low.indptr[i + 1]
        cols = self.low.indices[lo : hi - 1]
        lx = state[self.l_var]
        x = state[self.x_var]
        acc = state[self.b_var][i] - np.dot(lx[lo : hi - 1], x[cols])
        x[i] = acc / lx[hi - 1]

    @cached_property
    def row_form(self) -> RowForm:
        # x[i] = (b[i] + sum_j (-L[i, j]) x[j]) / L[i, i]: every row's
        # off-diagonals precede its diagonal, the row's last entry
        indptr = self.low.indptr
        diag = indptr[1:] - 1
        off = np.ones(self.low.nnz, dtype=bool)
        off[diag] = False
        return RowForm(
            out=self.x_var,
            src=self.x_var,
            mat=self.l_var,
            ptr=indptr - np.arange(indptr.shape[0]),
            cols=self.low.indices[off],
            pos=np.flatnonzero(off),
            negate=True,
            rhs=self.b_var,
            diag=diag,
        )

    def run_reference(self, state: State) -> None:
        from scipy.sparse.linalg import spsolve_triangular

        mat = CSRMatrix(
            self.low.n_rows,
            self.low.n_cols,
            self.low.indptr,
            self.low.indices,
            state[self.l_var],
            check=False,
        ).to_scipy()
        state[self.x_var][:] = spsolve_triangular(
            mat, state[self.b_var], lower=True
        )

    # -- dataflow -------------------------------------------------------
    @property
    def read_vars(self) -> tuple[str, ...]:
        return (self.l_var, self.b_var, self.x_var)

    @property
    def write_vars(self) -> tuple[str, ...]:
        return (self.x_var,)

    def var_sizes(self) -> dict[str, int]:
        return {
            self.l_var: self.low.nnz,
            self.b_var: self.low.n_rows,
            self.x_var: self.low.n_rows,
        }

    def reads_of(self, var: str, i: int) -> np.ndarray:
        lo, hi = self.low.indptr[i], self.low.indptr[i + 1]
        if var == self.l_var:
            return np.arange(lo, hi, dtype=INDEX_DTYPE)
        if var == self.b_var:
            return np.array([i], dtype=INDEX_DTYPE)
        if var == self.x_var:
            return self.low.indices[lo : hi - 1]
        return _EMPTY

    def writes_of(self, var: str, i: int) -> np.ndarray:
        if var == self.x_var:
            return np.array([i], dtype=INDEX_DTYPE)
        return _EMPTY

    def write_map(self, var: str) -> tuple[np.ndarray, np.ndarray]:
        n = self.n_iterations
        if var == self.x_var:
            return identity_map(n)
        return empty_map(n)

    def read_map(self, var: str) -> tuple[np.ndarray, np.ndarray]:
        n = self.n_iterations
        if var == self.l_var:
            return slice_map(self.low.indptr)
        if var == self.b_var:
            return identity_map(n)
        if var == self.x_var:
            # Strictly-lower columns of each row.
            rows = np.repeat(
                np.arange(n, dtype=INDEX_DTYPE), self.low.row_nnz()
            )
            mask = self.low.indices < rows
            return map_from_counts(
                np.bincount(rows[mask], minlength=n), self.low.indices[mask]
            )
        return empty_map(n)

    # -- costs ----------------------------------------------------------
    def iteration_costs(self) -> np.ndarray:
        return self.low.row_nnz().astype(VALUE_DTYPE)

    def flop_count(self) -> float:
        # one multiply+subtract per off-diagonal, one divide per row
        return float(2 * (self.low.nnz - self.low.n_rows) + self.low.n_rows)


class SpTRSVCSC(Kernel):
    """SpTRSV over CSC storage: ``x = L^{-1} b`` (push formulation).

    Iteration ``j`` computes ``x[j] = (b[j] - acc[j]) / L[j, j]`` and adds
    ``L[i, j] * x[j]`` into ``acc[i]`` for every sub-diagonal nonzero of
    column ``j``. ``acc`` is an internal, zero-initialized variable named
    ``"_acc." + x_var``.
    """

    name = "SpTRSV-CSC"

    def __init__(self, low: CSCMatrix, *, l_var="Lx", b_var="b", x_var="x"):
        if not low.is_square or not low.is_lower_triangular():
            raise ValueError("SpTRSV requires a square lower-triangular matrix")
        self.low = low
        self.l_var = l_var
        self.b_var = b_var
        self.x_var = x_var
        self.acc_var = f"_acc.{x_var}"
        # the sub-diagonal scatter `acc[rows] += ...` commutes between
        # columns; the consuming read `acc[j]` stays a plain read
        self.atomic_update_vars = {self.acc_var: ("write",)}
        n = low.n_cols
        first = low.indptr[:-1]
        if np.any(np.diff(low.indptr) == 0) or np.any(
            low.indices[first] != np.arange(n, dtype=INDEX_DTYPE)
        ):
            raise ValueError("every column needs a diagonal entry")
        self._dag: DAG | None = None

    # -- structure ------------------------------------------------------
    @property
    def n_iterations(self) -> int:
        return self.low.n_cols

    def intra_dag(self) -> DAG:
        if self._dag is None:
            self._dag = DAG.from_lower_triangular(self.low)
        return self._dag

    # -- execution ------------------------------------------------------
    def setup(self, state: State) -> None:
        state[self.acc_var][:] = 0.0

    def run_iteration(self, j: int, state: State, scratch: Any = None) -> None:
        lo, hi = self.low.indptr[j], self.low.indptr[j + 1]
        lx = state[self.l_var]
        acc = state[self.acc_var]
        xj = (state[self.b_var][j] - acc[j]) / lx[lo]
        state[self.x_var][j] = xj
        rows = self.low.indices[lo + 1 : hi]
        if rows.shape[0]:
            acc[rows] += lx[lo + 1 : hi] * xj

    def precompute_levels(self, iters: np.ndarray, sizes) -> list:
        iters = np.asarray(iters, dtype=INDEX_DTYPE)
        starts = self.low.indptr[iters]
        counts = self.low.indptr[iters + 1] - starts - 1  # sub-diagonals
        gather = multi_range(starts + 1, counts)
        per_step = group_sums(counts, sizes)
        return [
            {"diag": d, "gather": g, "rows": r, "counts": c}
            for d, g, r, c in zip(
                split_sizes(starts, sizes),
                split_sizes(gather, per_step),
                split_sizes(self.low.indices[gather], per_step),
                split_sizes(counts, sizes),
            )
        ]

    def run_level_batch(self, iters, state: State, precomp, scratch=None) -> None:
        iters = np.asarray(iters, dtype=INDEX_DTYPE)
        lx = state[self.l_var]
        acc = state[self.acc_var]
        # Same-level columns never read each other's accumulator slots
        # (that would be an intra-DAG edge), so finalizing every x first
        # and scattering afterwards is safe.
        xj = (state[self.b_var][iters] - acc[iters]) / lx[precomp["diag"]]
        state[self.x_var][iters] = xj
        if precomp["gather"].shape[0]:
            vals = lx[precomp["gather"]]
            np.add.at(acc, precomp["rows"], vals * np.repeat(xj, precomp["counts"]))

    def run_reference(self, state: State) -> None:
        from scipy.sparse.linalg import spsolve_triangular

        mat = CSCMatrix(
            self.low.n_rows,
            self.low.n_cols,
            self.low.indptr,
            self.low.indices,
            state[self.l_var],
            check=False,
        ).to_scipy().tocsr()
        state[self.x_var][:] = spsolve_triangular(
            mat, state[self.b_var], lower=True
        )
        state[self.acc_var][:] = 0.0  # reference does not model acc contents

    # -- dataflow -------------------------------------------------------
    @property
    def read_vars(self) -> tuple[str, ...]:
        return (self.l_var, self.b_var, self.acc_var)

    @property
    def write_vars(self) -> tuple[str, ...]:
        return (self.x_var, self.acc_var)

    def var_sizes(self) -> dict[str, int]:
        n = self.low.n_cols
        return {
            self.l_var: self.low.nnz,
            self.b_var: n,
            self.x_var: n,
            self.acc_var: n,
        }

    def reads_of(self, var: str, j: int) -> np.ndarray:
        lo, hi = self.low.indptr[j], self.low.indptr[j + 1]
        if var == self.l_var:
            return np.arange(lo, hi, dtype=INDEX_DTYPE)
        if var == self.b_var:
            return np.array([j], dtype=INDEX_DTYPE)
        if var == self.acc_var:
            return np.array([j], dtype=INDEX_DTYPE)
        return _EMPTY

    def writes_of(self, var: str, j: int) -> np.ndarray:
        lo, hi = self.low.indptr[j], self.low.indptr[j + 1]
        if var == self.x_var:
            return np.array([j], dtype=INDEX_DTYPE)
        if var == self.acc_var:
            return self.low.indices[lo + 1 : hi]
        return _EMPTY

    def read_map(self, var: str) -> tuple[np.ndarray, np.ndarray]:
        n = self.n_iterations
        if var == self.l_var:
            return slice_map(self.low.indptr)
        if var in (self.b_var, self.acc_var):
            return identity_map(n)
        return empty_map(n)

    def write_map(self, var: str) -> tuple[np.ndarray, np.ndarray]:
        n = self.n_iterations
        if var == self.x_var:
            return identity_map(n)
        if var == self.acc_var:
            cols = np.repeat(np.arange(n, dtype=INDEX_DTYPE), self.low.col_nnz())
            mask = self.low.indices > cols
            return map_from_counts(
                np.bincount(cols[mask], minlength=n), self.low.indices[mask]
            )
        return empty_map(n)

    # -- costs ----------------------------------------------------------
    def iteration_costs(self) -> np.ndarray:
        return self.low.col_nnz().astype(VALUE_DTYPE)

    def flop_count(self) -> float:
        return float(2 * (self.low.nnz - self.low.n_cols) + self.low.n_cols)


class SpTRSVCSRFromLU(RowBlockKernel):
    """Unit-lower SpTRSV reading the combined ``L\\U`` factor of SpILU0.

    Solves ``L y = b`` where ``L`` is the unit-diagonal lower factor
    stored inside an ILU0 result (kernel combination 5 of Table 1): the
    matrix values live in the *full* pattern of ``A`` (variable
    ``lu_var``), and iteration ``i`` consumes only the strict-lower
    entries of row ``i``. No divide — the diagonal is an implicit 1.
    """

    name = "SpTRSV-CSR-fromLU"

    def __init__(self, a: CSRMatrix, *, lu_var="LUx", b_var="b", x_var="x"):
        if not a.is_square:
            raise ValueError("requires a square matrix pattern")
        self.a = a
        self.lu_var = lu_var
        self.b_var = b_var
        self.x_var = x_var
        # position of the diagonal inside each row (first entry >= i):
        # the row start plus the row's strict-lower count
        rows = np.repeat(np.arange(a.n_rows, dtype=INDEX_DTYPE), a.row_nnz())
        self._diag_off = a.indptr[:-1] + np.bincount(
            rows[a.indices < rows], minlength=a.n_rows
        )
        self._dag: DAG | None = None

    @property
    def n_iterations(self) -> int:
        return self.a.n_rows

    def intra_dag(self) -> DAG:
        if self._dag is None:
            self._dag = DAG.from_lower_triangular(self.a.lower_triangle())
        return self._dag

    # -- execution ------------------------------------------------------
    def run_iteration(self, i: int, state: State, scratch: Any = None) -> None:
        lo = self.a.indptr[i]
        di = self._diag_off[i]
        cols = self.a.indices[lo:di]
        lu = state[self.lu_var]
        state[self.x_var][i] = state[self.b_var][i] - np.dot(
            lu[lo:di], state[self.x_var][cols]
        )

    @cached_property
    def row_form(self) -> RowForm:
        # x[i] = b[i] + sum_j (-LU[i, j]) x[j], as in SpTRSVCSR with d = 1
        counts = self._diag_off - self.a.indptr[:-1]  # strict-lower entries
        pos = multi_range(self.a.indptr[:-1], counts)
        ptr = np.zeros(counts.shape[0] + 1, dtype=INDEX_DTYPE)
        np.cumsum(counts, out=ptr[1:])
        return RowForm(
            out=self.x_var,
            src=self.x_var,
            mat=self.lu_var,
            ptr=ptr,
            cols=self.a.indices[pos],
            pos=pos,
            negate=True,
            rhs=self.b_var,
        )

    def run_reference(self, state: State) -> None:
        x = state[self.x_var]
        b = state[self.b_var]
        lu = state[self.lu_var]
        for i in range(self.a.n_rows):
            lo = self.a.indptr[i]
            di = self._diag_off[i]
            cols = self.a.indices[lo:di]
            x[i] = b[i] - np.dot(lu[lo:di], x[cols])

    # -- dataflow -------------------------------------------------------
    @property
    def read_vars(self) -> tuple[str, ...]:
        return (self.lu_var, self.b_var, self.x_var)

    @property
    def write_vars(self) -> tuple[str, ...]:
        return (self.x_var,)

    def var_sizes(self) -> dict[str, int]:
        return {
            self.lu_var: self.a.nnz,
            self.b_var: self.a.n_rows,
            self.x_var: self.a.n_rows,
        }

    def reads_of(self, var: str, i: int) -> np.ndarray:
        lo = self.a.indptr[i]
        di = self._diag_off[i]
        if var == self.lu_var:
            return np.arange(lo, di, dtype=INDEX_DTYPE)
        if var == self.b_var:
            return np.array([i], dtype=INDEX_DTYPE)
        if var == self.x_var:
            return self.a.indices[lo:di]
        return _EMPTY

    def writes_of(self, var: str, i: int) -> np.ndarray:
        if var == self.x_var:
            return np.array([i], dtype=INDEX_DTYPE)
        return _EMPTY

    def read_map(self, var: str) -> tuple[np.ndarray, np.ndarray]:
        n = self.n_iterations
        if var in (self.lu_var, self.x_var):
            # Row i's strict-lower entries: their positions (lu_var) or
            # their columns (x_var), in storage order.
            counts = self._diag_off - self.a.indptr[:-1]
            pos = multi_range(self.a.indptr[:-1], counts)
            if var == self.lu_var:
                return map_from_counts(counts, pos)
            return map_from_counts(counts, self.a.indices[pos])
        if var == self.b_var:
            return identity_map(n)
        return empty_map(n)

    def write_map(self, var: str) -> tuple[np.ndarray, np.ndarray]:
        n = self.n_iterations
        if var == self.x_var:
            return identity_map(n)
        return empty_map(n)

    # -- costs ----------------------------------------------------------
    def iteration_costs(self) -> np.ndarray:
        return (self._diag_off - self.a.indptr[:-1] + 1).astype(VALUE_DTYPE)

    def flop_count(self) -> float:
        return float(2 * (self._diag_off - self.a.indptr[:-1]).sum())
