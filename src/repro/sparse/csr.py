"""Compressed Sparse Row (CSR) matrix storage.

This is the library's own CSR type rather than a thin wrapper over
``scipy.sparse``: the paper's kernels and inspectors address the raw
``indptr``/``indices``/``data`` arrays directly (the ``Lp``/``Li``/``Lx``
triples of Fig. 2a), and owning the type lets us guarantee the structural
invariants of :mod:`repro.sparse.base` once, at construction.

Conversion to and from :mod:`scipy.sparse` is provided for validation and
I/O, never on kernel hot paths.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..utils.arrays import row_block_matvec
from ..utils.intsort import stable_argsort
from .base import (
    INDEX_DTYPE,
    VALUE_DTYPE,
    as_index_array,
    as_value_array,
    check_compressed_axes,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from .csc import CSCMatrix

__all__ = ["CSRMatrix"]


class CSRMatrix:
    """A real-valued sparse matrix in CSR format.

    Attributes
    ----------
    n_rows, n_cols:
        Matrix dimensions.
    indptr:
        ``int64`` array of length ``n_rows + 1``; row ``i`` occupies
        ``indices[indptr[i]:indptr[i+1]]``.
    indices:
        ``int64`` column indices, strictly increasing within each row.
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
                self.indptr, self.indices, self.data, self.n_rows, self.n_cols
            )

    # ------------------------------------------------------------------
    # Basic properties
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

    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(column_indices, values)`` views of row *i*."""
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return self.indices[lo:hi], self.data[lo:hi]

    def row_nnz(self) -> np.ndarray:
        """Number of nonzeros per row, as an ``int64`` array."""
        return np.diff(self.indptr)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CSRMatrix(shape={self.shape}, nnz={self.nnz}, "
            f"density={self.nnz / max(1, self.n_rows * self.n_cols):.2e})"
        )

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_scipy(cls, mat) -> "CSRMatrix":
        """Build from any scipy sparse matrix (converted to canonical CSR)."""
        import scipy.sparse as sp

        m = sp.csr_matrix(mat)
        m.sort_indices()
        m.sum_duplicates()
        return cls(m.shape[0], m.shape[1], m.indptr, m.indices, m.data)

    @classmethod
    def from_dense(cls, arr, *, tol: float = 0.0) -> "CSRMatrix":
        """Build from a dense 2-D array, dropping entries with ``|a| <= tol``."""
        arr = np.asarray(arr, dtype=VALUE_DTYPE)
        if arr.ndim != 2:
            raise ValueError("from_dense expects a 2-D array")
        mask = np.abs(arr) > tol
        counts = mask.sum(axis=1)
        indptr = np.zeros(arr.shape[0] + 1, dtype=INDEX_DTYPE)
        np.cumsum(counts, out=indptr[1:])
        rows, cols = np.nonzero(mask)
        return cls(arr.shape[0], arr.shape[1], indptr, cols, arr[rows, cols])

    @classmethod
    def from_coo(cls, n_rows, n_cols, rows, cols, vals) -> "CSRMatrix":
        """Build from COO triplets; duplicate entries are summed."""
        import scipy.sparse as sp

        m = sp.coo_matrix(
            (np.asarray(vals, dtype=VALUE_DTYPE), (rows, cols)),
            shape=(int(n_rows), int(n_cols)),
        )
        return cls.from_scipy(m)

    @classmethod
    def identity(cls, n: int) -> "CSRMatrix":
        """The n-by-n identity matrix."""
        idx = np.arange(n, dtype=INDEX_DTYPE)
        indptr = np.arange(n + 1, dtype=INDEX_DTYPE)
        return cls(n, n, indptr, idx, np.ones(n, dtype=VALUE_DTYPE))

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    def to_scipy(self):
        """Return an equivalent ``scipy.sparse.csr_matrix`` (copies)."""
        import scipy.sparse as sp

        return sp.csr_matrix(
            (self.data.copy(), self.indices.copy(), self.indptr.copy()),
            shape=self.shape,
        )

    def to_dense(self) -> np.ndarray:
        """Return an equivalent dense ``float64`` array."""
        out = np.zeros(self.shape, dtype=VALUE_DTYPE)
        for i in range(self.n_rows):
            cols, vals = self.row(i)
            out[i, cols] = vals
        return out

    def to_csc(self) -> "CSCMatrix":
        """Convert to :class:`~repro.sparse.csc.CSCMatrix` (same matrix)."""
        from .csc import CSCMatrix

        indptr, indices, data = _compressed_transpose(
            self.indptr, self.indices, self.data, self.n_cols
        )
        return CSCMatrix(
            self.n_rows, self.n_cols, indptr, indices, data, check=False
        )

    def transpose(self) -> "CSRMatrix":
        """Return the transpose, itself in CSR format."""
        indptr, indices, data = _compressed_transpose(
            self.indptr, self.indices, self.data, self.n_cols
        )
        return CSRMatrix(
            self.n_cols, self.n_rows, indptr, indices, data, check=False
        )

    def copy(self) -> "CSRMatrix":
        """Deep copy."""
        return CSRMatrix(
            self.n_rows,
            self.n_cols,
            self.indptr.copy(),
            self.indices.copy(),
            self.data.copy(),
            check=False,
        )

    # ------------------------------------------------------------------
    # Structure queries used by kernels and inspectors
    # ------------------------------------------------------------------
    def _diagonal_hits(self) -> np.ndarray:
        """Mask over ``data``: True where the entry lies on the diagonal."""
        rows = np.repeat(np.arange(self.n_rows, dtype=INDEX_DTYPE), self.row_nnz())
        return self.indices == rows

    def diagonal(self) -> np.ndarray:
        """Return the main diagonal as a dense vector (zeros where absent)."""
        out = np.zeros(min(self.n_rows, self.n_cols), dtype=VALUE_DTYPE)
        hit = self._diagonal_hits()
        out[self.indices[hit]] = self.data[hit]
        return out

    def diagonal_positions(self) -> np.ndarray:
        """Index into ``data`` of each row's diagonal entry.

        Raises ``ValueError`` if any row of a square matrix lacks a stored
        diagonal entry — kernels like SpTRSV and SpILU0 require a full
        diagonal.
        """
        if not self.is_square:
            raise ValueError("diagonal_positions requires a square matrix")
        pos = np.nonzero(self._diagonal_hits())[0].astype(INDEX_DTYPE)
        if pos.shape[0] < self.n_rows:
            has = np.zeros(self.n_rows, dtype=bool)
            has[self.indices[pos]] = True
            missing = int(np.argmin(has))
            raise ValueError(f"row {missing} has no stored diagonal entry")
        return pos

    def lower_triangle(self, *, strict: bool = False) -> "CSRMatrix":
        """Extract the lower triangle (including the diagonal unless *strict*)."""
        return self._triangle(keep_upper=False, strict=strict)

    def upper_triangle(self, *, strict: bool = False) -> "CSRMatrix":
        """Extract the upper triangle (including the diagonal unless *strict*)."""
        return self._triangle(keep_upper=True, strict=strict)

    def _triangle(self, *, keep_upper: bool, strict: bool) -> "CSRMatrix":
        rows = np.repeat(
            np.arange(self.n_rows, dtype=INDEX_DTYPE), np.diff(self.indptr)
        )
        if keep_upper:
            mask = self.indices > rows if strict else self.indices >= rows
        else:
            mask = self.indices < rows if strict else self.indices <= rows
        new_indices = self.indices[mask]
        new_data = self.data[mask]
        counts = np.bincount(rows[mask], minlength=self.n_rows)
        indptr = np.zeros(self.n_rows + 1, dtype=INDEX_DTYPE)
        np.cumsum(counts, out=indptr[1:])
        return CSRMatrix(
            self.n_rows, self.n_cols, indptr, new_indices, new_data, check=False
        )

    def is_lower_triangular(self) -> bool:
        """True when every stored entry satisfies ``col <= row``."""
        rows = np.repeat(
            np.arange(self.n_rows, dtype=INDEX_DTYPE), np.diff(self.indptr)
        )
        return bool(np.all(self.indices <= rows))

    # ------------------------------------------------------------------
    # Reference numerical operations (vectorized; used for validation and
    # as the "MKL-like" sequential baseline primitives)
    # ------------------------------------------------------------------
    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Dense ``y = A @ x``, bitwise the ``scipy.sparse`` product: one
        compiled pass of :func:`~repro.utils.arrays.row_block_matvec`."""
        x = np.asarray(x, dtype=VALUE_DTYPE)
        if x.shape != (self.n_cols,):
            raise ValueError(f"x has shape {x.shape}, expected ({self.n_cols},)")
        out = np.zeros(self.n_rows, dtype=VALUE_DTYPE)
        return row_block_matvec(self.indptr, self.indices, self.data, x, out)

    def __matmul__(self, x):
        return self.matvec(x)

    def equal_structure(self, other: "CSRMatrix") -> bool:
        """True when *other* has the identical sparsity pattern."""
        return (
            self.shape == other.shape
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        )

    def allclose(self, other: "CSRMatrix", *, rtol=1e-10, atol=1e-12) -> bool:
        """Structural equality plus ``np.allclose`` on values."""
        return self.equal_structure(other) and bool(
            np.allclose(self.data, other.data, rtol=rtol, atol=atol)
        )


def _compressed_transpose(indptr, indices, data, n_minor):
    """Transpose a compressed structure: returns new (indptr, indices, data).

    Shared by CSR<->CSC conversion and ``transpose``. One stable sort of
    the minor indices groups the entries by minor index; stability keeps
    each group in major order, so the output indices come out sorted.
    The sort is :func:`~repro.utils.intsort.stable_argsort`: one or two
    16-bit radix passes once there are enough entries to repay them.
    """
    nnz = indices.shape[0]
    n_major = indptr.shape[0] - 1
    counts = np.bincount(indices, minlength=n_minor)
    out_indptr = np.zeros(n_minor + 1, dtype=INDEX_DTYPE)
    np.cumsum(counts, out=out_indptr[1:])
    out_indices = np.empty(nnz, dtype=INDEX_DTYPE)
    out_data = np.empty(nnz, dtype=VALUE_DTYPE)
    order = stable_argsort(indices)
    majors = np.repeat(np.arange(n_major, dtype=INDEX_DTYPE), np.diff(indptr))
    out_indices[:] = majors[order]
    out_data[:] = data[order]
    return out_indptr, out_indices, out_data
