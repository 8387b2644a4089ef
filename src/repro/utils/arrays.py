"""Shared vectorized array helpers."""

from __future__ import annotations

import numpy as np

from ..sparse.base import INDEX_DTYPE

try:
    from scipy.sparse._sparsetools import csr_matvec as _csr_matvec
except ImportError:  # pragma: no cover - scipy moved its private routine
    _csr_matvec = None

__all__ = [
    "checked_vector",
    "group_sums",
    "multi_range",
    "row_block_matvec",
    "row_block_ptrs",
    "split_sizes",
]


def checked_vector(name: str, v, n: int) -> np.ndarray:
    """A float64 copy of the argument *name*, which must have shape ``(n,)``
    and hold finite values only.

    Raises ``ValueError`` naming the argument and the expected length, or
    the first NaN or infinity, so a bad vector fails before any work
    starts rather than as a NumPy broadcast error deep inside a solve or
    as a solve that iterates on NaN until its iteration limit.
    """
    out = np.array(v, dtype=np.float64)
    if out.shape != (n,):
        raise ValueError(f"{name} must have shape ({n},), got {out.shape}")
    finite = np.isfinite(out)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ValueError(f"{name}[{i}] is {out[i]}: must be finite")
    return out


def multi_range(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate ``range(starts[i], starts[i] + counts[i])``, vectorized.

    The gather-index builder behind batched kernel execution and the
    inspector's dataflow joins.
    """
    counts = np.asarray(counts)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=INDEX_DTYPE)
    reps = np.repeat(np.arange(starts.shape[0], dtype=INDEX_DTYPE), counts)
    offs = np.arange(total, dtype=INDEX_DTYPE) - np.repeat(
        np.cumsum(counts) - counts, counts
    )
    return np.asarray(starts, dtype=INDEX_DTYPE)[reps] + offs


def split_sizes(x: np.ndarray, sizes) -> list[np.ndarray]:
    """*x* cut into consecutive pieces (views) of the given *sizes*."""
    ends = np.cumsum(sizes).tolist()
    return [x[a:b] for a, b in zip([0, *ends[:-1]], ends)]


def group_sums(counts: np.ndarray, sizes) -> np.ndarray:
    """Sums of *counts* over consecutive groups of the given *sizes*.

    With per-item output counts and per-step item counts, this is each
    step's share of a concatenated output — the *sizes* that
    :func:`split_sizes` needs to cut that output back into steps.
    """
    ends = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=ends[1:])
    bounds = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=bounds[1:])
    return np.diff(ends[bounds])


def row_block_ptrs(counts: np.ndarray, sizes) -> list[np.ndarray]:
    """The CSR row pointers of consecutive row blocks whose rows hold
    *counts* entries each.

    Block ``g`` is the next ``sizes[g]`` rows; its pointer array has
    ``sizes[g] + 1`` entries and starts at 0, counted from the block's own
    first entry. Plan compilation calls this once per loop for all of its
    level steps, so each step's :func:`row_block_matvec` gets its pointers
    ready-made. One pass over all blocks.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    ends = np.zeros(len(counts) + 1, dtype=INDEX_DTYPE)
    np.cumsum(counts, out=ends[1:])
    bounds = np.zeros(sizes.shape[0] + 1, dtype=np.int64)
    np.cumsum(sizes, out=bounds[1:])
    ptrs = ends[multi_range(bounds[:-1], sizes + 1)] - np.repeat(
        ends[bounds[:-1]], sizes + 1
    )
    return split_sizes(ptrs, sizes + 1)


def row_block_matvec(
    ptr: np.ndarray,
    cols: np.ndarray,
    vals: np.ndarray,
    x: np.ndarray,
    out: np.ndarray,
) -> np.ndarray:
    """``out += A @ x`` in place for the CSR row block ``A = (vals, cols,
    ptr)`` of ``len(out)`` rows; returns *out*.

    Each row's sum starts at its entry of *out* and adds the products
    left to right, in one compiled pass
    (``scipy.sparse._sparsetools.csr_matvec``, the routine behind
    ``csr_array @ x``). With *out* all zeros the result is therefore
    bitwise the public product. The routine checks no bounds: *ptr* must
    run from 0 to ``len(cols)`` without decreasing, every column must
    index *x*, *ptr* and *cols* share one integer dtype, and *out* is a
    contiguous array of *vals*' dtype. Where scipy lacks the private name,
    the public ``csr_array`` product is added instead, which rounds the
    right-hand side in after the row sum rather than before it.
    """
    if _csr_matvec is not None:
        _csr_matvec(out.shape[0], x.shape[0], ptr, cols, vals, x, out)
    else:
        from scipy.sparse import csr_array

        out += csr_array((vals, cols, ptr), shape=(out.shape[0], x.shape[0])) @ x
    return out
