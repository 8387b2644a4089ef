"""Reference incomplete factorizations (sequential, validated).

These are the *golden* sequential implementations of zero-fill incomplete
Cholesky (IC0) and incomplete LU (ILU0): the oracles tests compare
against, not a production path. No shipped solver runs them; the IC0-PCG
preconditioner factors with the schedulable :class:`~repro.kernels.SpIC0`
kernel on the plan executor (:func:`repro.solvers.build_ic0_preconditioner`).
The kernels in :mod:`repro.kernels.spic0` / :mod:`repro.kernels.spilu0`
must agree with these bit-for-bit when executed through any valid
schedule; tests enforce that, plus agreement with dense factorizations on
patterns without fill.
"""

from __future__ import annotations

import numpy as np

from .csc import CSCMatrix
from .csr import CSRMatrix

__all__ = [
    "ic0_csc",
    "ilu0_csr",
    "ic0_pattern",
    "split_lu_csr",
]


def ic0_pattern(a: CSRMatrix) -> CSCMatrix:
    """The sparsity pattern of the IC0 factor: ``lower(A)`` in CSC.

    Values are copied from ``A`` (they become the starting point of the
    numeric factorization). The matrix must have a full diagonal.
    """
    if not a.is_square:
        raise ValueError("IC0 requires a square matrix")
    return a.lower_triangle().to_csc()


def ic0_csc(a: CSRMatrix, *, check_spd: bool = True) -> CSCMatrix:
    """Zero-fill incomplete Cholesky of SPD *a*: ``L @ L.T ≈ A``.

    Left-looking column algorithm restricted to the pattern of
    ``lower(A)``; this is the reference the SpIC0 kernel is validated
    against. Returns the lower-triangular factor ``L`` in CSC.

    Raises ``ValueError`` when a pivot is non-positive (matrix not SPD or
    IC0 breakdown) unless ``check_spd=False``, in which case the pivot is
    clamped — the standard shifted-IC0 fallback.
    """
    low = ic0_pattern(a)
    n = low.n_cols
    indptr, indices, data = low.indptr, low.indices, low.data.copy()
    # Under sorted indices, the diagonal leads each lower-triangular column.
    work = np.zeros(n, dtype=np.float64)
    # For the left-looking update we need, for each column j, the set of
    # columns k<j with L[j,k] != 0 — i.e. row j of L. Build row lists once
    # from the CSC structure.
    row_heads: list[list[tuple[int, int]]] = [[] for _ in range(n)]  # row -> [(col, pos)]
    for j in range(n):
        for p in range(indptr[j], indptr[j + 1]):
            i = indices[p]
            if i != j:
                row_heads[i].append((j, p))
    for j in range(n):
        lo, hi = indptr[j], indptr[j + 1]
        col_rows = indices[lo:hi]
        if col_rows.shape[0] == 0 or col_rows[0] != j:
            raise ValueError(f"column {j} missing diagonal entry")
        # Scatter column j of A's lower triangle into the work vector.
        work[col_rows] = data[lo:hi]
        # Update with every earlier column k where L[j,k] != 0. Only rows
        # >= j contribute to column j, and in the sorted column k they
        # start at L[j,k] itself.
        for k, pjk in row_heads[j]:
            ljk = data[pjk]
            if ljk == 0.0:
                continue
            khi = indptr[k + 1]
            work[indices[pjk:khi]] -= ljk * data[pjk:khi]
        pivot = work[j]
        if pivot <= 0.0:
            if check_spd:
                raise ValueError(
                    f"IC0 breakdown at column {j}: pivot {pivot} <= 0"
                )
            pivot = max(pivot, 1e-12)
        diag = np.sqrt(pivot)
        data[lo] = diag
        if hi > lo + 1:
            data[lo + 1 : hi] = work[col_rows[1:]] / diag
        work[col_rows] = 0.0
    return CSCMatrix(n, n, indptr, indices, data, check=False)


def ilu0_csr(a: CSRMatrix) -> CSRMatrix:
    """Zero-fill incomplete LU of *a*: ``L @ U ≈ A`` on the pattern of A.

    Standard ikj-variant ILU0 operating in-place on a copy of ``A``'s CSR
    arrays. The result stores L's strict lower triangle (unit diagonal
    implied) and U (including the diagonal) in the same matrix, as MKL's
    ``dcsrilu0`` does. Use :func:`split_lu_csr` to separate the factors.

    Raises ``ValueError`` on a zero pivot.
    """
    if not a.is_square:
        raise ValueError("ILU0 requires a square matrix")
    n = a.n_rows
    indptr, indices = a.indptr, a.indices
    data = a.data.copy()
    diag_pos = a.diagonal_positions()
    for i in range(n):
        lo, hi = indptr[i], indptr[i + 1]
        row_cols = indices[lo:hi]
        di = lo + np.searchsorted(row_cols, i)
        for p in range(lo, di):  # k = row_cols entries with k < i
            k = indices[p]
            pivot = data[diag_pos[k]]
            if pivot == 0.0:
                raise ValueError(f"ILU0 zero pivot at row {k}")
            lik = data[p] / pivot
            data[p] = lik
            # Subtract lik * row k (entries with column > k) from row i,
            # restricted to row i's pattern.
            klo, khi = diag_pos[k] + 1, indptr[k + 1]
            if klo >= khi:
                continue
            kcols = indices[klo:khi]
            # Merge kcols into row i's columns after position p.
            ipos = np.searchsorted(row_cols, kcols)
            valid = (ipos < row_cols.shape[0])
            hit = valid & (row_cols[np.minimum(ipos, row_cols.shape[0] - 1)] == kcols)
            data[lo + ipos[hit]] -= lik * data[klo:khi][hit]
        if data[diag_pos[i]] == 0.0:
            raise ValueError(f"ILU0 zero pivot at row {i}")
    return CSRMatrix(n, n, indptr.copy(), indices.copy(), data, check=False)


def split_lu_csr(lu: CSRMatrix) -> tuple[CSRMatrix, CSRMatrix]:
    """Split a combined ILU0 result into ``(L, U)``.

    ``L`` is unit lower triangular (explicit ones on the diagonal) and
    ``U`` is upper triangular including the diagonal, both CSR.
    """
    n = lu.n_rows
    strict_lower = lu.lower_triangle(strict=True)
    eye = CSRMatrix.identity(n)
    low = strict_lower.to_scipy() + eye.to_scipy()
    l_mat = CSRMatrix.from_scipy(low)
    u_mat = lu.upper_triangle()
    return l_mat, u_mat
