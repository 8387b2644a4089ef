"""Stable sorts and ``unique`` on bounded non-negative integer keys.

The inspector sorts small non-negative integers everywhere: vertex ids,
CSR indices, levels, partition ids, cache lines. NumPy runs
``argsort(kind="stable")`` and ``lexsort`` on such ``int64`` keys as a
timsort, and NumPy 2's ``np.unique`` hashes (or, for an inverse, sorts).
Both are far slower than the radix sort NumPy already runs for 16-bit
keys, so these helpers reduce a bounded key to 16-bit digits and sort
digit by digit, least significant first, and :func:`unique` counts:

* :func:`stable_argsort` — ``np.argsort(keys, kind="stable")``;
* :func:`stable_lexsort` — ``np.lexsort(keys)``;
* :func:`unique` — ``np.unique(x)`` and ``np.unique(x, return_inverse=True)``.

A stable sort's permutation is unique, so each result is bit-identical to
NumPy's, dtypes included. Keys outside the fast range — not a 1-D
integer array, a negative value, a maximum of ``2**32`` or more, or too
few keys to repay the digit passes — go to NumPy itself.

Measured on a 2-vCPU x86-64 VM (NumPy 2.4, best of 5), stable argsort of
uniform random ``int64`` keys:

=====  ==============  ==============  ==============
keys   timsort         one 16-bit pass two 16-bit passes
=====  ==============  ==============  ==============
256    4.2 µs          5.2 µs          11.0 µs
512    7.7 µs          6.3 µs          15.7 µs
1024   18 µs           8.2 µs          20.4 µs
4096   255 µs          24 µs           65 µs
12000  860 µs          75 µs           160 µs
=====  ==============  ==============  ==============

The one-pass timings include the ``min``/``max`` scan that bounds the
keys. Timsort wins on input that is already sorted or made of a few
sorted runs (11 against 17 µs for 12,000 sorted keys, 38 against 71 µs
for 11,232 keys in two sorted runs); call sites with such input keep
``np.argsort``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["stable_argsort", "stable_lexsort", "unique"]

#: Fewest keys for which one 16-bit pass (plus the bounding scan) beats
#: timsort: 8.2 against 18 µs at 1024 random keys, 6.3 against 7.7 µs
#: at 512. The inspector's keys are rarely random, and partly sorted
#: input favours timsort, so the cut sits at 1024.
_MIN_ONE_PASS = 1024
#: Fewest keys for which two 16-bit passes beat timsort: 23 against
#: 32 µs at 1280 keys, 25 against 15 µs at 1152.
_MIN_TWO_PASSES = 1280
#: Fewest values for which the counting ``unique`` beats ``np.unique``:
#: 4.9 against 5.0 µs at 64 values, 5.0 against 6.8 µs at 96.
_MIN_COUNT = 64
#: The counting ``unique`` marks values in a table of ``max + 1`` flags.
#: It beats sorting the values while the table has at most this many
#: flags per value, plus a fixed allowance: 10.4 against 12.9 µs for
#: 1024 values below 20,480, 64 against 33 µs for 4096 below 69,632.
_COUNT_FLAGS_PER_VALUE = 8
_COUNT_FLAGS_FIXED = 4096

_DIGIT = 1 << 16
_SPAN = 1 << 32


def _bound(keys: np.ndarray, min_size: int) -> int | None:
    """``keys.max()`` when *keys* is a 1-D array of at least *min_size*
    non-negative integers below ``2**32``, else ``None``."""
    if keys.ndim != 1 or keys.dtype.kind not in "iu" or keys.shape[0] < min_size:
        return None
    if keys.dtype.kind == "i" and keys.min() < 0:
        return None
    hi = int(keys.max())
    return hi if hi < _SPAN else None


def _radix_argsort(keys: np.ndarray, hi: int) -> np.ndarray:
    """Stable argsort of non-negative integer *keys* bounded by *hi*
    (``< 2**32``): one or two 16-bit LSD passes, each a NumPy radix sort."""
    if hi < _DIGIT:
        return np.argsort(keys.astype(np.uint16), kind="stable")
    low = np.argsort((keys & 0xFFFF).astype(np.uint16), kind="stable")
    high = (keys >> 16).astype(np.uint16)[low]
    return low[np.argsort(high, kind="stable")]


def _passes_pay(n: int, hi: int) -> bool:
    return n >= (_MIN_ONE_PASS if hi < _DIGIT else _MIN_TWO_PASSES)


def stable_argsort(keys) -> np.ndarray:
    """``np.argsort(keys, kind="stable")``, bit for bit.

    Non-negative integer keys below ``2**32`` sort in one 16-bit radix
    pass when their maximum is below ``2**16`` and in two otherwise.
    """
    keys = np.asarray(keys)
    hi = _bound(keys, _MIN_ONE_PASS)
    if hi is None or not _passes_pay(keys.shape[0], hi):
        return np.argsort(keys, kind="stable")
    return _radix_argsort(keys, hi)


def stable_lexsort(keys) -> np.ndarray:
    """``np.lexsort(keys)``, bit for bit: the last key is the primary one.

    Consecutive keys are grouped, least significant first, while the
    product of their spans stays within ``2**32``; each group is packed
    into one composite key, and the composites sort by
    :func:`stable_argsort`'s passes, least significant first. Keys of
    one bounded span thus cost one or two radix passes in all.
    """
    arrays = [np.asarray(k) for k in keys]
    if (
        not arrays
        or arrays[0].ndim != 1
        or arrays[0].shape[0] < _MIN_ONE_PASS
        or len({k.shape for k in arrays}) != 1
    ):
        return np.lexsort(keys)
    highs = [_bound(k, _MIN_ONE_PASS) for k in arrays]
    if None in highs:
        return np.lexsort(keys)
    groups: list[tuple[list[int], int]] = []  # (key indices, span)
    for i, hi in enumerate(highs):
        if groups and groups[-1][1] * (hi + 1) <= _SPAN:
            groups[-1] = (groups[-1][0] + [i], groups[-1][1] * (hi + 1))
        else:
            groups.append(([i], hi + 1))
    n = arrays[0].shape[0]
    if not all(_passes_pay(n, span - 1) for _, span in groups):
        return np.lexsort(keys)
    order = None
    for members, span in groups:
        key, scale = arrays[members[0]], highs[members[0]] + 1
        if len(members) > 1:
            # int64 throughout: uint64 mixed with int64 would give float64
            key = key.astype(np.int64)
        for i in members[1:]:
            key += arrays[i].astype(np.int64) * scale
            scale *= highs[i] + 1
        if order is None:
            order = _radix_argsort(key, span - 1)
        else:
            order = order[_radix_argsort(key[order], span - 1)]
    return order


def unique(x, return_inverse: bool = False):
    """``np.unique(x)`` or ``np.unique(x, return_inverse=True)``, bit for bit.

    Non-negative integers with a maximum not far above their count are
    counted: one table of ``max + 1`` flags marks the values present, and
    a table of ranks scattered at them maps each value to its rank. Wider
    values are sorted and their run heads kept (16 against 84 µs for 1024
    values below ``10**7``). With an inverse, wider values go to
    ``np.unique``, which then sorts rather than hashes.
    """
    x = np.asarray(x)
    hi = _bound(x, _MIN_COUNT)
    if hi is None:
        return np.unique(x, return_inverse=return_inverse)
    n = x.shape[0]
    if hi < _COUNT_FLAGS_PER_VALUE * n + _COUNT_FLAGS_FIXED:
        present = np.zeros(hi + 1, dtype=bool)
        present[x] = True
        values = np.flatnonzero(present).astype(x.dtype, copy=False)
        if not return_inverse:
            return values
        rank = np.empty(hi + 1, dtype=np.intp)
        rank[values] = np.arange(values.shape[0])
        return values, rank[x]
    if return_inverse:
        return np.unique(x, return_inverse=True)
    xs = np.sort(x)
    return xs[np.r_[True, xs[1:] != xs[:-1]]]
