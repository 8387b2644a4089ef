"""Compressed Sparse Column (CSC) matrix storage.

The CSC mirror of :class:`repro.sparse.csr.CSRMatrix`. Several of the
paper's kernels are column-driven (SpIC0 CSC, SpTRSV CSC, SpMV CSC in
kernel combination 3), so CSC is a first-class format rather than a view
over CSR.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .base import (
    INDEX_DTYPE,
    VALUE_DTYPE,
    as_index_array,
    as_value_array,
    check_compressed_axes,
)

if TYPE_CHECKING:  # pragma: no cover
    from .csr import CSRMatrix

__all__ = ["CSCMatrix"]


class CSCMatrix:
    """A real-valued sparse matrix in CSC format.

    Attributes
    ----------
    n_rows, n_cols:
        Matrix dimensions.
    indptr:
        ``int64`` array of length ``n_cols + 1``; column ``j`` occupies
        ``indices[indptr[j]:indptr[j+1]]``.
    indices:
        ``int64`` row indices, strictly increasing within each column.
    data:
        ``float64`` nonzero values, parallel to ``indices``.
    """

    __slots__ = ("n_rows", "n_cols", "indptr", "indices", "data")

    def __init__(self, n_rows, n_cols, indptr, indices, data, *, check: bool = True):
        self.n_rows = int(n_rows)
        self.n_cols = int(n_cols)
        if self.n_rows < 0 or self.n_cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        self.indptr = as_index_array(indptr, name="indptr")
        self.indices = as_index_array(indices, name="indices")
        self.data = as_value_array(data)
        if check:
            check_compressed_axes(
                self.indptr, self.indices, self.data, self.n_cols, self.n_rows
            )

    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        """``(n_rows, n_cols)``."""
        return (self.n_rows, self.n_cols)

    @property
    def nnz(self) -> int:
        """Number of stored nonzeros."""
        return int(self.indices.shape[0])

    @property
    def is_square(self) -> bool:
        """Whether the matrix is square."""
        return self.n_rows == self.n_cols

    def col(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(row_indices, values)`` views of column *j*."""
        lo, hi = self.indptr[j], self.indptr[j + 1]
        return self.indices[lo:hi], self.data[lo:hi]

    def col_nnz(self) -> np.ndarray:
        """Number of nonzeros per column, as an ``int64`` array."""
        return np.diff(self.indptr)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CSCMatrix(shape={self.shape}, nnz={self.nnz}, "
            f"density={self.nnz / max(1, self.n_rows * self.n_cols):.2e})"
        )

    # ------------------------------------------------------------------
    @classmethod
    def from_scipy(cls, mat) -> "CSCMatrix":
        """Build from any scipy sparse matrix (converted to canonical CSC)."""
        import scipy.sparse as sp

        m = sp.csc_matrix(mat)
        m.sort_indices()
        m.sum_duplicates()
        return cls(m.shape[0], m.shape[1], m.indptr, m.indices, m.data)

    @classmethod
    def from_dense(cls, arr, *, tol: float = 0.0) -> "CSCMatrix":
        """Build from a dense 2-D array, dropping entries with ``|a| <= tol``."""
        from .csr import CSRMatrix

        return CSRMatrix.from_dense(arr, tol=tol).to_csc()

    @classmethod
    def identity(cls, n: int) -> "CSCMatrix":
        """The n-by-n identity matrix."""
        idx = np.arange(n, dtype=INDEX_DTYPE)
        indptr = np.arange(n + 1, dtype=INDEX_DTYPE)
        return cls(n, n, indptr, idx, np.ones(n, dtype=VALUE_DTYPE))

    def to_scipy(self):
        """Return an equivalent ``scipy.sparse.csc_matrix`` (copies)."""
        import scipy.sparse as sp

        return sp.csc_matrix(
            (self.data.copy(), self.indices.copy(), self.indptr.copy()),
            shape=self.shape,
        )

    def to_dense(self) -> np.ndarray:
        """Return an equivalent dense ``float64`` array."""
        out = np.zeros(self.shape, dtype=VALUE_DTYPE)
        for j in range(self.n_cols):
            rows, vals = self.col(j)
            out[rows, j] = vals
        return out

    def to_csr(self) -> "CSRMatrix":
        """Convert to :class:`~repro.sparse.csr.CSRMatrix` (same matrix)."""
        from .csr import CSRMatrix, _compressed_transpose

        indptr, indices, data = _compressed_transpose(
            self.indptr, self.indices, self.data, self.n_rows
        )
        return CSRMatrix(
            self.n_rows, self.n_cols, indptr, indices, data, check=False
        )

    def transpose(self) -> "CSCMatrix":
        """Return the transpose, itself in CSC format."""
        from .csr import _compressed_transpose

        indptr, indices, data = _compressed_transpose(
            self.indptr, self.indices, self.data, self.n_rows
        )
        return CSCMatrix(
            self.n_cols, self.n_rows, indptr, indices, data, check=False
        )

    def copy(self) -> "CSCMatrix":
        """Deep copy."""
        return CSCMatrix(
            self.n_rows,
            self.n_cols,
            self.indptr.copy(),
            self.indices.copy(),
            self.data.copy(),
            check=False,
        )

    # ------------------------------------------------------------------
    def _diagonal_hits(self) -> np.ndarray:
        """Mask over ``data``: True where the entry lies on the diagonal."""
        cols = np.repeat(np.arange(self.n_cols, dtype=INDEX_DTYPE), self.col_nnz())
        return self.indices == cols

    def diagonal(self) -> np.ndarray:
        """Return the main diagonal as a dense vector (zeros where absent)."""
        out = np.zeros(min(self.n_rows, self.n_cols), dtype=VALUE_DTYPE)
        hit = self._diagonal_hits()
        out[self.indices[hit]] = self.data[hit]
        return out

    def diagonal_positions(self) -> np.ndarray:
        """Index into ``data`` of each column's diagonal entry.

        For a lower-triangular CSC matrix this is simply ``indptr[:-1]``
        (the diagonal leads each column under sorted indices); the general
        implementation below also covers non-triangular patterns.
        """
        if not self.is_square:
            raise ValueError("diagonal_positions requires a square matrix")
        pos = np.nonzero(self._diagonal_hits())[0].astype(INDEX_DTYPE)
        if pos.shape[0] < self.n_cols:
            has = np.zeros(self.n_cols, dtype=bool)
            has[self.indices[pos]] = True
            missing = int(np.argmin(has))
            raise ValueError(f"column {missing} has no stored diagonal entry")
        return pos

    def lower_triangle(self, *, strict: bool = False) -> "CSCMatrix":
        """Extract the lower triangle (including the diagonal unless *strict*)."""
        return self._triangle(keep_upper=False, strict=strict)

    def upper_triangle(self, *, strict: bool = False) -> "CSCMatrix":
        """Extract the upper triangle (including the diagonal unless *strict*)."""
        return self._triangle(keep_upper=True, strict=strict)

    def _triangle(self, *, keep_upper: bool, strict: bool) -> "CSCMatrix":
        cols = np.repeat(
            np.arange(self.n_cols, dtype=INDEX_DTYPE), np.diff(self.indptr)
        )
        # In CSC, entry (indices[k], cols[k]); lower triangle = row >= col.
        if keep_upper:
            mask = self.indices < cols if strict else self.indices <= cols
        else:
            mask = self.indices > cols if strict else self.indices >= cols
        new_indices = self.indices[mask]
        new_data = self.data[mask]
        counts = np.bincount(cols[mask], minlength=self.n_cols)
        indptr = np.zeros(self.n_cols + 1, dtype=INDEX_DTYPE)
        np.cumsum(counts, out=indptr[1:])
        return CSCMatrix(
            self.n_rows, self.n_cols, indptr, new_indices, new_data, check=False
        )

    def is_lower_triangular(self) -> bool:
        """True when every stored entry satisfies ``row >= col``."""
        cols = np.repeat(
            np.arange(self.n_cols, dtype=INDEX_DTYPE), np.diff(self.indptr)
        )
        return bool(np.all(self.indices >= cols))

    # ------------------------------------------------------------------
    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Dense ``y = A @ x`` via the CSR mirror (vectorized reference)."""
        return self.to_csr().matvec(x)

    def __matmul__(self, x):
        return self.matvec(x)

    def equal_structure(self, other: "CSCMatrix") -> bool:
        """True when *other* has the identical sparsity pattern."""
        return (
            self.shape == other.shape
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        )

    def allclose(self, other: "CSCMatrix", *, rtol=1e-10, atol=1e-12) -> bool:
        """Structural equality plus ``np.allclose`` on values."""
        return self.equal_structure(other) and bool(
            np.allclose(self.data, other.data, rtol=rtol, atol=atol)
        )
