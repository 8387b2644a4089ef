"""Shared vectorized array helpers."""

from __future__ import annotations

import numpy as np

from ..sparse.base import INDEX_DTYPE

__all__ = [
    "checked_vector",
    "distinct",
    "group_sums",
    "multi_range",
    "segment_boundaries_split",
    "segment_sums_at",
    "split_sizes",
]


def checked_vector(name: str, v, n: int) -> np.ndarray:
    """A float64 copy of the argument *name*, which must have shape ``(n,)``.

    Raises ``ValueError`` naming the argument and the expected length, so
    a wrong-length vector fails before any work starts rather than as a
    NumPy broadcast error deep inside a solve.
    """
    out = np.array(v, dtype=np.float64)
    if out.shape != (n,):
        raise ValueError(f"{name} must have shape ({n},), got {out.shape}")
    return out


def distinct(x: np.ndarray) -> np.ndarray:
    """Sorted distinct values of *x* (a sort plus run heads).

    Several times faster than ``np.unique`` on the integer keys used
    here, whose NumPy 2 implementation hashes.
    """
    x = np.sort(x)
    return x[np.r_[True, x[1:] != x[:-1]]] if x.shape[0] else x


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


def segment_boundaries_split(
    counts: np.ndarray, sizes
) -> list[tuple[np.ndarray, np.ndarray]]:
    """The :func:`segment_sums_at` reduction plans of consecutive groups
    of segments with the given *counts*.

    Group ``g`` is the next ``sizes[g]`` segments; its plan is
    ``(reduce_starts, nonempty)``, with reduce starts counted from the
    group's own first element. Plan compilation calls this once per loop
    for all of its level steps, so that repeated sweeps pay only the
    ``np.add.reduceat`` itself. One pass over all groups.
    """
    counts = np.asarray(counts)
    nonempty = counts > 0
    ends = np.zeros(counts.shape[0] + 1, dtype=INDEX_DTYPE)
    np.cumsum(counts, out=ends[1:])
    bounds = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=bounds[1:])
    starts = ends[:-1] - np.repeat(ends[bounds[:-1]], sizes)
    return list(
        zip(
            split_sizes(starts[nonempty], group_sums(nonempty, sizes)),
            split_sizes(nonempty, sizes),
        )
    )


def segment_sums_at(
    values: np.ndarray,
    n_segments: int,
    reduce_starts: np.ndarray,
    nonempty: np.ndarray,
) -> np.ndarray:
    """Sums of *values* over *n_segments* consecutive segments, with the
    boundaries from :func:`segment_boundaries_split`.

    Empty segments sum to 0.0. The reduction runs only at the starts of
    non-empty segments: consecutive non-empty starts bracket exactly one
    segment's elements, whereas ``np.add.reduceat`` at every start would
    repeat the neighbouring segment's value at an empty segment, and
    clipping out-of-range starts would split the last non-empty segment.
    When no segment is empty, ``np.add.reduceat`` alone is the result —
    bitwise the masked assignment, without the zeroed output array.
    """
    if reduce_starts.shape[0] == n_segments:
        return np.add.reduceat(values, reduce_starts)
    out = np.zeros(n_segments, dtype=values.dtype)
    if reduce_starts.shape[0]:
        out[nonempty] = np.add.reduceat(values, reduce_starts)
    return out
