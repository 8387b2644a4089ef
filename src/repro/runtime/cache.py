"""Two-level LRU cache model, priced by stack distances.

The paper measures locality with PAPI counters (L1/LLC/TLB accesses) and
reports an *average memory access latency* proxy (Fig. 6 top). Offline we
obtain the same proxy from a small cache model: each simulated thread
owns a private L1 and an LLC slice, both fully-associative LRU over
64-byte lines, and every element access costs the latency of the level
that hits.

Address space (:func:`line_layout`): every state variable starts on a
fresh line, in name order, so element ``i`` of variable ``v`` lives on
line ``base_v + i // 8`` (8 doubles per line). This is deliberately
simple — no associativity, no prefetch — but it prices exactly the two
effects sparse fusion optimizes: *temporal* reuse across kernels
(interleaved packing keeps shared lines hot) and *spatial* reuse within
a kernel (separated packing streams consecutive rows/columns).

Nothing is replayed access by access. A fully-associative LRU cache of
``c`` lines hits an access exactly when its *stack distance* — the
number of distinct lines touched since the previous access to the same
line — is below ``c``. :func:`cache_levels` decides most verdicts from
two upper bounds of that distance, the reuse window and the stream's
working set; :func:`stack_distances` computes exact distances in one
offline pass, for the streams no bound decides and on demand.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from ..utils.intsort import stable_argsort, unique

__all__ = ["CacheConfig", "stack_distances", "line_layout", "cache_levels"]

#: :func:`cache_levels` verdicts
L1, LLC, DRAM = 0, 1, 2


class CacheConfig:
    """Latency/size parameters of the simulated hierarchy.

    Defaults approximate one CascadeLake core's share: 32 KiB L1 (512
    lines), a 1.65 MiB LLC slice (27k lines ≈ 33 MiB / 20 cores), and
    load-to-use latencies of 1 / 14 / 70 cycles for L1 / LLC / DRAM.
    """

    __slots__ = ("line_elems", "l1_lines", "llc_lines", "lat_l1", "lat_llc", "lat_mem")

    def __init__(
        self,
        *,
        line_elems: int = 8,
        l1_lines: int = 512,
        llc_lines: int = 27_000,
        lat_l1: float = 1.0,
        lat_llc: float = 14.0,
        lat_mem: float = 70.0,
    ):
        self.line_elems = int(line_elems)
        self.l1_lines = int(l1_lines)
        self.llc_lines = int(llc_lines)
        self.lat_l1 = float(lat_l1)
        self.lat_llc = float(lat_llc)
        self.lat_mem = float(lat_mem)

    @property
    def latencies(self) -> np.ndarray:
        """Cycles per access served by ``[L1, LLC, DRAM]``."""
        return np.array([self.lat_l1, self.lat_llc, self.lat_mem])


def stack_distances(keys: np.ndarray) -> np.ndarray:
    """Exact LRU stack distance of every access in *keys*.

    ``d[t]`` is the number of distinct keys strictly between the
    previous occurrence ``p`` of ``keys[t]`` and ``t``, or ``-1`` for a
    first touch. A position ``j`` in ``(p, t)`` holds a key not seen
    earlier in the window exactly when ``prev[j] <= p``, and ``prev[j]
    > p`` already implies ``j > p``, so

        d[t] = (t - p - 1) - #{j < t : prev[j] > p}.

    Only reuses (``prev >= 0``) can be counted, and their ``prev``
    values are distinct (an access precedes at most one next
    occurrence), so the count is a per-element inversion count over the
    reuses in stream order. A bottom-up merge sort computes it in
    ⌈log₂ n⌉ passes of one stable ``argsort`` each: when two sorted
    halves merge, a right-half element at merged rank ``r`` that is
    ``i``-th in its own half follows ``r - i`` smaller left-half
    elements, and the rest of the left half is larger. O(n log² n)
    worst case, no per-access Python.

    Independent streams go through one call: concatenate them and make
    their keys disjoint (e.g. ``stream * n_lines + line``).
    """
    keys = np.asarray(keys, dtype=np.int64)
    n = keys.shape[0]
    dist = np.full(n, -1, dtype=np.int64)
    if n < 2:
        return dist
    repeat = np.zeros(n, dtype=bool)
    repeat[1:] = keys[1:] == keys[:-1]
    if repeat.any():
        # an immediate repeat has distance 0 and changes no other
        # access's distance: solve the run heads only
        dist[repeat] = 0
        dist[~repeat] = stack_distances(keys[~repeat])
        return dist
    order = stable_argsort(keys)
    same = keys[order[1:]] == keys[order[:-1]]
    prev = np.full(n, -1, dtype=np.int64)
    prev[order[1:][same]] = order[:-1][same]
    t = np.flatnonzero(prev >= 0)
    m = t.shape[0]
    if m == 0:
        return dist
    p = prev[t]
    later = np.zeros(m, dtype=np.int64)  # #{earlier reuse with larger prev}
    vals = p
    ids = pos = np.arange(m, dtype=np.int64)
    for k in range((m - 1).bit_length()):
        half = 1 << k
        # merge sorted runs of 2**k into runs of 2**(k+1); the block id
        # in the high digits keeps every merge inside its block. Timsort
        # merges such runs in linear time (6-7 against ~45 us a pass for
        # a radix sort at 3.5-4.2k keys), so this sort stays on NumPy.
        src = np.argsort((pos >> (k + 1)) * n + vals, kind="stable")
        right = np.flatnonzero(src & half)
        s = src[right]
        later[ids[s]] += half - (right & (2 * half - 1)) + (s & (half - 1))
        vals = vals[src]
        ids = ids[src]
    dist[t] = (t - p - 1) - later
    return dist


def line_layout(sizes: Mapping[str, int], line_elems: int) -> dict[str, int]:
    """First cache line of every variable in *sizes*.

    Variables are laid out in name order, each starting on a fresh line
    (as separate allocations would), so no two variables share a line
    and element ``e`` of ``var`` lives on line
    ``base[var] + e // line_elems``.
    """
    bases: dict[str, int] = {}
    nxt = 0
    for var in sorted(sizes):
        bases[var] = nxt
        nxt += -(-int(sizes[var]) // line_elems)
    return bases


def _lru_hits(keys: np.ndarray, streams: np.ndarray, capacity: int) -> np.ndarray:
    """Hit verdicts ``0 <= d < capacity`` of every access of *keys*, with
    ``d`` its stack distance on its stream (keys disjoint per stream,
    each stream's accesses contiguous).

    Two upper bounds of a reuse's distance decide most verdicts: its
    window ``t - p - 1`` in the stream with immediate repeats (distance
    0) removed, and its stream's working set less one. Only the streams
    holding a reuse that neither bound puts below *capacity* are counted
    exactly, each alone.
    """
    n = keys.shape[0]
    hit = np.zeros(n, dtype=bool)
    if n == 0 or capacity <= 0:
        return hit
    hit[1:] = keys[1:] == keys[:-1]  # immediate repeats: distance 0
    head = np.flatnonzero(~hit)
    k = keys[head]
    order = stable_argsort(k)
    same = k[order[1:]] == k[order[:-1]]
    window = np.full(k.shape[0], -1, dtype=np.int64)
    window[order[1:][same]] = order[1:][same] - order[:-1][same] - 1
    s = streams[head]
    working_set = np.bincount(s[window < 0])
    bound = np.minimum(window, working_set[s] - 1)
    hit[head[(window >= 0) & (bound < capacity)]] = True
    undecided = unique(s[bound >= capacity])
    if undecided.shape[0]:
        sel = np.flatnonzero(np.isin(streams, undecided))
        d = stack_distances(keys[sel])
        hit[sel] = (d >= 0) & (d < capacity)
    return hit


def cache_levels(
    lines: np.ndarray, streams: np.ndarray, calls: np.ndarray, config: CacheConfig
) -> np.ndarray:
    """Level (``L1``/``LLC``/``DRAM``) serving each line access.

    ``streams[t]`` names the thread whose private L1 + LLC slice serves
    access ``t``; each thread's accesses are contiguous, in its
    execution order, and all streams start cold. ``calls`` groups the
    accesses of one vector load: a repeat of the previous access's line
    within one call is coalesced into an L1 hit (the hardware would
    replay it from the load buffer), which is what rewards unit-stride
    access.

    The hierarchy is non-inclusive: L1 is an LRU over the thread's
    whole line stream, and the LLC an LRU over its L1 *misses* only. A
    coalesced repeat has stack distance 0 and leaves the LRU order
    unchanged, so each level's verdict is ``distance < capacity`` on
    its own stream. Verdicts come from upper bounds of the distance;
    exact distances are computed only for the streams the bounds leave
    undecided (:func:`_lru_hits`).
    """
    lines = np.asarray(lines, dtype=np.int64)
    n = lines.shape[0]
    levels = np.full(n, DRAM, dtype=np.int8)
    if n == 0:
        return levels
    streams = np.asarray(streams, dtype=np.int64)
    keys = streams * (int(lines.max()) + 1) + lines
    coalesced = np.zeros(n, dtype=bool)
    coalesced[1:] = (calls[1:] == calls[:-1]) & (lines[1:] == lines[:-1])
    l1 = coalesced | _lru_hits(keys, streams, config.l1_lines)
    miss = np.flatnonzero(~l1)
    levels[l1] = L1
    levels[miss[_lru_hits(keys[miss], streams[miss], config.llc_lines)]] = LLC
    return levels
