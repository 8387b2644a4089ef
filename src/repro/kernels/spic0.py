"""Sparse incomplete Cholesky with zero fill-in (SpIC0), CSC variant.

Left-looking column factorization restricted to the pattern of
``lower(A)``: iteration ``j`` produces column ``j`` of ``L`` from the
initial values of column ``j`` (variable ``a_var``) and the finished
columns ``k < j`` with ``L[j, k] != 0``. The intra-DAG is therefore the
strict-lower pattern of ``L`` — the same rule as SpTRSV, which is why
the two kernels' joint DAG in Fig. 1 overlays so well.

Numerically identical (same operation order) to the golden reference
:func:`repro.sparse.factor.ic0_csc`; tests enforce exact agreement.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..graph.dag import DAG
from ..sparse.base import INDEX_DTYPE, VALUE_DTYPE
from ..sparse.csc import CSCMatrix
from ..utils.arrays import group_sums, multi_range, split_sizes
from .base import Kernel, State, empty_map, map_from_ranges, slice_map

__all__ = ["SpIC0"]

_EMPTY = np.empty(0, dtype=INDEX_DTYPE)


class SpIC0(Kernel):
    """SpIC0 over CSC storage: factor ``L`` with ``L @ L.T ≈ A``.

    Parameters
    ----------
    low:
        The pattern of ``lower(A)`` as a :class:`CSCMatrix` (values of
        *low* itself are ignored; the numeric input comes from state).
        Every column must start with its diagonal entry.
    a_var:
        State variable holding the initial values of ``lower(A)`` in the
        ``data`` layout of *low*.
    l_var:
        Output variable receiving the factor values, same layout.
    """

    name = "SpIC0-CSC"

    def __init__(self, low: CSCMatrix, *, a_var="Alow", l_var="Lx"):
        if not low.is_square or not low.is_lower_triangular():
            raise ValueError("SpIC0 requires a square lower-triangular pattern")
        n = low.n_cols
        first = low.indptr[:-1]
        if np.any(np.diff(low.indptr) == 0) or np.any(
            low.indices[first] != np.arange(n, dtype=INDEX_DTYPE)
        ):
            raise ValueError("every column needs a leading diagonal entry")
        self.low = low
        self.a_var = a_var
        self.l_var = l_var
        self._dag: DAG | None = None
        # Row structure of the strict lower triangle: for each row j the
        # columns k < j with L[j, k] != 0 and the position of that entry
        # in `data` — the update list of the left-looking algorithm.
        cols = np.repeat(np.arange(n, dtype=INDEX_DTYPE), low.col_nnz())
        strict = low.indices > cols
        r = low.indices[strict]
        k = cols[strict]
        pos = np.nonzero(strict)[0].astype(INDEX_DTYPE)
        order = np.lexsort((k, r))
        self._row_ptr = np.zeros(n + 1, dtype=INDEX_DTYPE)
        np.cumsum(np.bincount(r, minlength=n), out=self._row_ptr[1:])
        self._row_cols = k[order]
        self._row_pos = pos[order]
        # Update-tail start within each source column: for pair (j, k) the
        # update touches column-k entries with row >= j, and L[j, k] itself
        # is the first of them (sorted column k), so the tail starts at
        # the pair's own data position.
        self._tail_starts = self._row_pos
        self._costs = None
        self._key_arr: np.ndarray | None = None

    @property
    def n_iterations(self) -> int:
        return self.low.n_cols

    def intra_dag(self) -> DAG:
        if self._dag is None:
            self._dag = DAG.from_lower_triangular(self.low)
            self._dag.weights = self.iteration_costs()
        return self._dag

    # -- execution ------------------------------------------------------
    def make_scratch(self) -> np.ndarray:
        return np.zeros(self.low.n_rows, dtype=VALUE_DTYPE)

    def run_iteration(self, j: int, state: State, scratch: Any = None) -> None:
        work = scratch if scratch is not None else self.make_scratch()
        indptr, indices = self.low.indptr, self.low.indices
        a = state[self.a_var]
        lx = state[self.l_var]
        lo, hi = indptr[j], indptr[j + 1]
        rows = indices[lo:hi]
        work[rows] = a[lo:hi]
        tlo, thi = self._row_ptr[j], self._row_ptr[j + 1]
        for t in range(tlo, thi):
            k = self._row_cols[t]
            ljk = lx[self._row_pos[t]]
            s, khi = self._tail_starts[t], indptr[k + 1]
            work[indices[s:khi]] -= ljk * lx[s:khi]
        pivot = work[j]
        if pivot <= 0.0:
            raise ValueError(f"IC0 breakdown at column {j}: pivot {pivot} <= 0")
        diag = np.sqrt(pivot)
        lx[lo] = diag
        if hi > lo + 1:
            lx[lo + 1 : hi] = work[rows[1:]] / diag
        # Cleanup: restore the scratch to all-zeros for the next iteration.
        work[rows] = 0.0
        for t in range(tlo, thi):
            k = self._row_cols[t]
            s, khi = self._tail_starts[t], indptr[k + 1]
            work[indices[s:khi]] = 0.0

    def _pattern_keys(self) -> np.ndarray:
        """Flat ``col * n + row`` key per data position — ascending for a
        sorted CSC pattern, so ``searchsorted`` maps (row, col) pairs to
        data positions in one vectorized shot."""
        if self._key_arr is None:
            n = self.low.n_cols
            cols = np.repeat(
                np.arange(n, dtype=np.int64), self.low.col_nnz()
            )
            self._key_arr = cols * n + self.low.indices.astype(np.int64)
        return self._key_arr

    def precompute_levels(self, iters: np.ndarray, sizes) -> list:
        iters = np.asarray(iters, dtype=INDEX_DTYPE)
        indptr, indices = self.low.indptr, self.low.indices
        starts = indptr[iters]
        counts = indptr[iters + 1] - starts
        # Update triples (target, source, multiplier) for every pair
        # (j, k) of a level column j and finished column k: the update
        # tail of column k intersected with column j's pattern (zero-fill
        # drops the rest, exactly as the scalar path's dense scratch does).
        tcounts = self._row_ptr[iters + 1] - self._row_ptr[iters]
        tsel = multi_range(self._row_ptr[iters], tcounts)
        ks = self._row_cols[tsel]
        tails = indptr[ks + 1] - self._tail_starts[tsel]
        src = multi_range(self._tail_starts[tsel], tails)
        j_exp = np.repeat(np.repeat(iters, tcounts), tails)
        ljk = np.repeat(self._row_pos[tsel], tails)
        keys = self._pattern_keys()
        cand = j_exp.astype(np.int64) * self.low.n_cols + indices[src].astype(
            np.int64
        )
        pos = np.searchsorted(keys, cand)
        safe = np.minimum(pos, max(keys.shape[0] - 1, 0))
        ok = (pos < keys.shape[0]) & (keys[safe] == cand)
        # per-step shares of the per-column, per-pair and kept outputs
        col_sizes = group_sums(counts, sizes)
        kept = group_sums(ok, group_sums(tails, group_sums(tcounts, sizes)))
        return [
            {
                "colranges": cr,
                "diag": d,
                "offdiag": od,
                "off_counts": oc,
                "tgt": t,
                "src": sr,
                "ljk": lj,
            }
            for cr, d, od, oc, t, sr, lj in zip(
                split_sizes(multi_range(starts, counts), col_sizes),
                split_sizes(starts, sizes),
                split_sizes(
                    multi_range(starts + 1, counts - 1), col_sizes - sizes
                ),
                split_sizes(counts - 1, sizes),
                split_sizes(pos[ok].astype(INDEX_DTYPE), kept),
                split_sizes(src[ok], kept),
                split_sizes(ljk[ok], kept),
            )
        ]

    def run_level_batch(self, iters, state: State, precomp, scratch=None) -> None:
        iters = np.asarray(iters, dtype=INDEX_DTYPE)
        a = state[self.a_var]
        lx = state[self.l_var]
        cr = precomp["colranges"]
        lx[cr] = a[cr]
        if precomp["tgt"].shape[0]:
            # Triples are ordered (column, pair, tail position) — the
            # scalar accumulation order — and np.add.at is unbuffered, so
            # repeated targets accumulate bitwise-identically. Sources
            # live in earlier levels; no read/write overlap.
            np.add.at(lx, precomp["tgt"], -(lx[precomp["ljk"]] * lx[precomp["src"]]))
        pivots = lx[precomp["diag"]]
        bad = np.nonzero(pivots <= 0.0)[0]
        if bad.shape[0]:
            j = int(iters[bad[0]])
            raise ValueError(
                f"IC0 breakdown at column {j}: pivot {pivots[bad[0]]} <= 0"
            )
        d = np.sqrt(pivots)
        lx[precomp["diag"]] = d
        if precomp["offdiag"].shape[0]:
            lx[precomp["offdiag"]] /= np.repeat(d, precomp["off_counts"])

    def run_reference(self, state: State) -> None:
        from ..sparse.factor import ic0_csc
        from ..sparse.csr import CSRMatrix

        low = CSCMatrix(
            self.low.n_rows,
            self.low.n_cols,
            self.low.indptr,
            self.low.indices,
            state[self.a_var],
            check=False,
        )
        # ic0_csc takes the full symmetric matrix in CSR; rebuild it from
        # the lower triangle (A = L + L^T - diag).
        upper = low.transpose().to_csr().to_scipy()
        import scipy.sparse as sp

        full = low.to_csr().to_scipy() + upper - sp.diags(low.diagonal())
        result = ic0_csc(CSRMatrix.from_scipy(full))
        if not np.array_equal(result.indptr, self.low.indptr) or not np.array_equal(
            result.indices, self.low.indices
        ):
            raise AssertionError("reference factor pattern mismatch")
        state[self.l_var][:] = result.data

    # -- dataflow -------------------------------------------------------
    @property
    def read_vars(self) -> tuple[str, ...]:
        return (self.a_var, self.l_var)

    @property
    def write_vars(self) -> tuple[str, ...]:
        return (self.l_var,)

    def var_sizes(self) -> dict[str, int]:
        return {self.a_var: self.low.nnz, self.l_var: self.low.nnz}

    def reads_of(self, var: str, j: int) -> np.ndarray:
        lo, hi = self.low.indptr[j], self.low.indptr[j + 1]
        if var == self.a_var:
            return np.arange(lo, hi, dtype=INDEX_DTYPE)
        if var == self.l_var:
            tlo, thi = self._row_ptr[j], self._row_ptr[j + 1]
            parts = [self._row_pos[tlo:thi]]
            for t in range(tlo, thi):
                k = self._row_cols[t]
                parts.append(
                    np.arange(
                        self._tail_starts[t],
                        self.low.indptr[k + 1],
                        dtype=INDEX_DTYPE,
                    )
                )
            return np.unique(np.concatenate(parts)) if parts else _EMPTY
        return _EMPTY

    def writes_of(self, var: str, j: int) -> np.ndarray:
        if var == self.l_var:
            lo, hi = self.low.indptr[j], self.low.indptr[j + 1]
            return np.arange(lo, hi, dtype=INDEX_DTYPE)
        return _EMPTY

    def write_map(self, var: str) -> tuple[np.ndarray, np.ndarray]:
        if var == self.l_var:
            return slice_map(self.low.indptr)
        return empty_map(self.n_iterations)

    def read_map(self, var: str) -> tuple[np.ndarray, np.ndarray]:
        if var == self.a_var:
            return slice_map(self.low.indptr)
        if var == self.l_var:
            # Column j reads the update tail of every k in its row list.
            # Each tail starts at L[j, k] (so the multipliers are covered),
            # tails of distinct columns are disjoint, and the row list is
            # sorted by k: the concatenation is already what reads_of's
            # np.unique returns.
            return map_from_ranges(self._row_ptr, self._tail_starts, self._tails())
        return empty_map(self.n_iterations)

    # -- costs ----------------------------------------------------------
    def _tails(self) -> np.ndarray:
        """Update-tail length of every (j, k) pair, in row-list order."""
        return self.low.indptr[self._row_cols + 1] - self._tail_starts

    def iteration_costs(self) -> np.ndarray:
        if self._costs is None:
            n = self.n_iterations
            tails = self._tails()
            update = np.zeros(n, dtype=VALUE_DTYPE)
            rows = np.repeat(
                np.arange(n, dtype=INDEX_DTYPE), np.diff(self._row_ptr)
            )
            np.add.at(update, rows, tails.astype(VALUE_DTYPE))
            self._costs = self.low.col_nnz().astype(VALUE_DTYPE) + update
        return self._costs

    def flop_count(self) -> float:
        # 2 flops per update entry, 1 sqrt per column, 1 divide per
        # off-diagonal.
        tails = self._tails()
        return float(
            2 * tails.sum() + self.n_iterations + (self.low.nnz - self.n_iterations)
        )

