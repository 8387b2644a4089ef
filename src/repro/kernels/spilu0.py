"""Sparse incomplete LU with zero fill-in (SpILU0), CSR variant.

Row-wise up-looking ikj factorization restricted to the pattern of ``A``:
iteration ``i`` produces row ``i`` of the combined ``L\\U`` factor from
the initial values of row ``i`` (``a_var``) and the finished rows
``k < i`` appearing in row ``i``'s pattern. The intra-DAG is the
strict-lower pattern of ``A``.

Numerically identical to :func:`repro.sparse.factor.ilu0_csr` (same
update order); tests enforce exact agreement. MKL exposes this kernel
only sequentially (``dcsrilu0``), which is why the paper excludes the
ILU0-TRSV MKL speedups from its averages — the MKL-like baseline here
mirrors that by costing SpILU0 sequentially.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..graph.dag import DAG
from ..sparse.base import INDEX_DTYPE, VALUE_DTYPE
from ..sparse.csr import CSRMatrix
from ..utils.arrays import group_sums, multi_range, split_sizes
from ..utils.intsort import unique
from .base import Kernel, State, empty_map, map_from_ranges, slice_map

__all__ = ["SpILU0"]

_EMPTY = np.empty(0, dtype=INDEX_DTYPE)


class SpILU0(Kernel):
    """SpILU0 over CSR storage: factor ``L\\U`` with ``L @ U ≈ A``.

    Parameters
    ----------
    a:
        The square pattern of ``A`` as a :class:`CSRMatrix` (values of
        *a* are ignored; numeric input comes from state). Every row must
        contain its diagonal.
    a_var:
        State variable with the initial values of ``A`` (layout of
        ``a.data``).
    lu_var:
        Output variable receiving the combined factor, same layout: the
        strict-lower part stores ``L`` (unit diagonal implied), the rest
        stores ``U``.
    """

    name = "SpILU0-CSR"

    def __init__(self, a: CSRMatrix, *, a_var="Ax", lu_var="LUx"):
        if not a.is_square:
            raise ValueError("SpILU0 requires a square matrix")
        self.a = a
        self.a_var = a_var
        self.lu_var = lu_var
        self._diag_pos = a.diagonal_positions()
        self._dag: DAG | None = None
        self._costs = None
        self._key_arr: np.ndarray | None = None

    @property
    def n_iterations(self) -> int:
        return self.a.n_rows

    def intra_dag(self) -> DAG:
        if self._dag is None:
            self._dag = DAG.from_lower_triangular(self.a.lower_triangle())
            self._dag.weights = self.iteration_costs()
        return self._dag

    # -- execution ------------------------------------------------------
    def make_scratch(self) -> np.ndarray:
        return np.zeros(self.a.n_cols, dtype=VALUE_DTYPE)

    def run_iteration(self, i: int, state: State, scratch: Any = None) -> None:
        work = scratch if scratch is not None else self.make_scratch()
        indptr, indices, diag_pos = self.a.indptr, self.a.indices, self._diag_pos
        lu = state[self.lu_var]
        lo, hi = indptr[i], indptr[i + 1]
        cols = indices[lo:hi]
        work[cols] = state[self.a_var][lo:hi]
        di = lo + np.searchsorted(cols, i)
        touched = [cols]
        for p in range(lo, di):  # k < i in column order (ikj)
            k = indices[p]
            pivot = lu[diag_pos[k]]
            if pivot == 0.0:
                raise ValueError(f"ILU0 zero pivot at row {k}")
            lik = work[k] / pivot
            work[k] = lik
            klo, khi = diag_pos[k] + 1, indptr[k + 1]
            if khi > klo:
                tail = indices[klo:khi]
                work[tail] -= lik * lu[klo:khi]
                touched.append(tail)
        lu[lo:hi] = work[cols]
        for t in touched:
            work[t] = 0.0

    def _pattern_keys(self) -> np.ndarray:
        """Flat ``row * n + col`` key per data position — ascending for a
        sorted CSR pattern, so ``searchsorted`` maps (row, col) pairs to
        data positions in one vectorized shot."""
        if self._key_arr is None:
            n = self.a.n_rows
            rows = np.repeat(np.arange(n, dtype=np.int64), self.a.row_nnz())
            self._key_arr = rows * n + self.a.indices.astype(np.int64)
        return self._key_arr

    def precompute_levels(self, iters: np.ndarray, sizes) -> list:
        iters = np.asarray(iters, dtype=INDEX_DTYPE)
        indptr, indices, diag_pos = self.a.indptr, self.a.indices, self._diag_pos
        starts = indptr[iters]
        counts = indptr[iters + 1] - starts
        nlower = diag_pos[iters] - starts
        keys = self._pattern_keys()
        n = self.a.n_cols
        step_of = np.repeat(np.arange(len(sizes)), sizes)
        out = [
            {"rowranges": rr, "steps": []}
            for rr in split_sizes(
                multi_range(starts, counts), group_sums(counts, sizes)
            )
        ]
        # Step-sweep: elimination step s of every level row together, for
        # all levels at once. A level's sweep length is the largest
        # strict-lower count among its rows, not n, so dense levels stay
        # cheap; a level joins step s while some row of it is active.
        for s in range(int(nlower.max()) if nlower.shape[0] else 0):
            active = nlower > s
            act = iters[active]
            likpos = indptr[act] + s
            ks = indices[likpos]
            piv = diag_pos[ks]
            tlo = piv + 1
            tcount = indptr[ks + 1] - tlo
            src = multi_range(tlo, tcount)
            i_exp = np.repeat(act, tcount)
            lik_exp = np.repeat(likpos, tcount)
            cand = i_exp.astype(np.int64) * n + indices[src].astype(np.int64)
            pos = np.searchsorted(keys, cand)
            safe = np.minimum(pos, max(keys.shape[0] - 1, 0))
            ok = (pos < keys.shape[0]) & (keys[safe] == cand)
            n_act = np.bincount(step_of[active], minlength=len(sizes))
            kept = group_sums(ok, group_sums(tcount, n_act))
            for level, lp, pv, tg, sr, lk in zip(
                out,
                split_sizes(likpos, n_act),
                split_sizes(piv, n_act),
                split_sizes(pos[ok].astype(INDEX_DTYPE), kept),
                split_sizes(src[ok], kept),
                split_sizes(lik_exp[ok], kept),
            ):
                if lp.shape[0]:
                    level["steps"].append(
                        {"likpos": lp, "pivot": pv, "tgt": tg, "src": sr, "lik": lk}
                    )
        return out

    def run_level_batch(self, iters, state: State, precomp, scratch=None) -> None:
        iters = np.asarray(iters, dtype=INDEX_DTYPE)
        lu = state[self.lu_var]
        rr = precomp["rowranges"]
        lu[rr] = state[self.a_var][rr]
        for st in precomp["steps"]:
            piv = lu[st["pivot"]]
            bad = np.nonzero(piv == 0.0)[0]
            if bad.shape[0]:
                k = int(self.a.indices[st["likpos"][bad[0]]])
                raise ValueError(f"ILU0 zero pivot at row {k}")
            lu[st["likpos"]] = lu[st["likpos"]] / piv
            if st["tgt"].shape[0]:
                # Targets within one step are unique (distinct tail
                # columns within a row, distinct rows across the level),
                # so a plain fancy-index subtract matches the scalar ikj
                # update order step by step.
                lu[st["tgt"]] -= lu[st["lik"]] * lu[st["src"]]

    def run_reference(self, state: State) -> None:
        from ..sparse.factor import ilu0_csr

        mat = CSRMatrix(
            self.a.n_rows,
            self.a.n_cols,
            self.a.indptr,
            self.a.indices,
            state[self.a_var],
            check=False,
        )
        state[self.lu_var][:] = ilu0_csr(mat).data

    # -- dataflow -------------------------------------------------------
    @property
    def read_vars(self) -> tuple[str, ...]:
        return (self.a_var, self.lu_var)

    @property
    def write_vars(self) -> tuple[str, ...]:
        return (self.lu_var,)

    def var_sizes(self) -> dict[str, int]:
        return {self.a_var: self.a.nnz, self.lu_var: self.a.nnz}

    def reads_of(self, var: str, i: int) -> np.ndarray:
        lo, hi = self.a.indptr[i], self.a.indptr[i + 1]
        if var == self.a_var:
            return np.arange(lo, hi, dtype=INDEX_DTYPE)
        if var == self.lu_var:
            cols = self.a.indices[lo:hi]
            di = lo + np.searchsorted(cols, i)
            parts = []
            for p in range(lo, di):
                k = self.a.indices[p]
                parts.append(
                    np.arange(
                        self._diag_pos[k], self.a.indptr[k + 1], dtype=INDEX_DTYPE
                    )
                )
            return unique(np.concatenate(parts)) if parts else _EMPTY
        return _EMPTY

    def writes_of(self, var: str, i: int) -> np.ndarray:
        if var == self.lu_var:
            lo, hi = self.a.indptr[i], self.a.indptr[i + 1]
            return np.arange(lo, hi, dtype=INDEX_DTYPE)
        return _EMPTY

    def write_map(self, var: str) -> tuple[np.ndarray, np.ndarray]:
        if var == self.lu_var:
            return slice_map(self.a.indptr)
        return empty_map(self.n_iterations)

    def read_map(self, var: str) -> tuple[np.ndarray, np.ndarray]:
        if var == self.a_var:
            return slice_map(self.a.indptr)
        if var == self.lu_var:
            # Row i reads row k from its diagonal on, for every
            # strict-lower k of row i. Rows of distinct k are disjoint
            # and row i lists k ascending, so the concatenation is
            # already sorted and duplicate-free, as reads_of returns it.
            starts = self.a.indptr[:-1]
            n_lower = self._diag_pos - starts
            ks = self.a.indices[multi_range(starts, n_lower)]
            group_ptr = np.zeros(self.n_iterations + 1, dtype=INDEX_DTYPE)
            np.cumsum(n_lower, out=group_ptr[1:])
            return map_from_ranges(
                group_ptr,
                self._diag_pos[ks],
                self.a.indptr[ks + 1] - self._diag_pos[ks],
            )
        return empty_map(self.n_iterations)

    # -- costs ----------------------------------------------------------
    def iteration_costs(self) -> np.ndarray:
        if self._costs is None:
            n = self.n_iterations
            indptr, indices, diag_pos = self.a.indptr, self.a.indices, self._diag_pos
            rows = np.repeat(np.arange(n, dtype=INDEX_DTYPE), self.a.row_nnz())
            strict_lower = indices < rows
            ks = indices[strict_lower]
            tail_nnz = (indptr[ks + 1] - diag_pos[ks] - 1).astype(VALUE_DTYPE)
            update = np.zeros(n, dtype=VALUE_DTYPE)
            np.add.at(update, rows[strict_lower], tail_nnz)
            self._costs = self.a.row_nnz().astype(VALUE_DTYPE) + update
        return self._costs

    def flop_count(self) -> float:
        # 2 flops per update entry (conservative: full row-k tails), one
        # divide per strict-lower entry.
        n = self.n_iterations
        indptr, indices, diag_pos = self.a.indptr, self.a.indices, self._diag_pos
        rows = np.repeat(np.arange(n, dtype=INDEX_DTYPE), self.a.row_nnz())
        strict_lower = indices < rows
        ks = indices[strict_lower]
        tails = (indptr[ks + 1] - diag_pos[ks] - 1).sum()
        return float(2 * tails + strict_lower.sum())
