"""Shared partitioning utilities: union-find, component grouping, LPT packing.

The union-find and the window component grouping are the inspector's
innermost primitives — LBC calls them once per absorbed wavefront and
ICO once per preamble/merge decision. Both are vectorized here:
:meth:`UnionFind.unite_edges` merges a whole edge batch with min-id
hooking rounds (``np.minimum.at``) and :func:`window_components` groups
a window in one ``lexsort`` instead of a per-vertex dict walk. The
original per-vertex implementations are preserved verbatim in
:mod:`repro.schedule.reference` as the equivalence oracle.
"""

from __future__ import annotations

import heapq

import numpy as np

from ..graph.dag import DAG
from ..sparse.base import INDEX_DTYPE
from ..utils.arrays import multi_range

__all__ = [
    "UnionFind",
    "group_by_roots",
    "lpt_pack",
    "pack_components",
    "window_components",
    "chunk_by_cost",
]


class UnionFind:
    """NumPy-backed union-find with scalar and bulk operations.

    Scalar :meth:`find`/:meth:`union` keep the original path-halving /
    union-by-size behaviour for small instances (e.g. ICO's ``2r``-node
    cluster merge). Bulk :meth:`unite_edges` uses *min-id hooking*
    instead: each round hooks every edge's larger root onto the smaller
    one via ``np.minimum.at``, which keeps parent pointers strictly
    decreasing (hence acyclic) no matter how many edges collide on one
    root in a single round. The two strategies share the same parent
    array and compose freely — any root is a valid representative.
    """

    __slots__ = ("parent", "size", "_scratch")

    def __init__(self, n: int):
        self.parent = np.arange(n, dtype=INDEX_DTYPE)
        self.size = np.ones(n, dtype=INDEX_DTYPE)
        self._scratch = None  # lazy bool[n] for distinct-root counting

    def find(self, x: int) -> int:
        """Root of *x*'s set (path halving)."""
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = int(parent[x])
        return int(x)

    def union(self, a: int, b: int) -> bool:
        """Merge the sets of *a* and *b*; True if they were distinct."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        return True

    def find_many(self, xs: np.ndarray) -> np.ndarray:
        """Roots of every vertex in *xs* (bulk, with path compression)."""
        parent = self.parent
        xs = np.asarray(xs, dtype=INDEX_DTYPE)
        if xs.shape[0] == 0:
            return xs
        roots = parent[xs]
        while True:
            nxt = parent[roots]
            if bool((nxt == roots).all()):
                break
            roots = parent[nxt]  # pointer jumping: two hops per round
        parent[xs] = roots
        return roots

    def unite_edges(self, src: np.ndarray, dst: np.ndarray) -> int:
        """Union every edge ``src[i] -- dst[i]``; return sets merged.

        Min-id hooking: every round computes both endpoints' roots and
        hooks the larger root onto the smaller. Colliding hooks within a
        round are resolved by ``np.minimum.at`` (the smallest competitor
        wins), so parents strictly decrease and no cycle can form; the
        remaining edges converge in O(log n) rounds.
        """
        if src.shape[0] == 0:
            return 0
        parent = self.parent
        scratch = self._scratch
        if scratch is None:
            scratch = self._scratch = np.zeros(parent.shape[0], dtype=bool)
        a = self.find_many(src)
        b = self.find_many(dst)
        merged = 0
        live = a != b
        while live.any():
            a = a[live]
            b = b[live]
            hi = np.maximum(a, b)
            lo = np.minimum(a, b)
            np.minimum.at(parent, hi, lo)
            # every distinct hi was a root entering this round and is
            # hooked below a smaller id now — one eliminated root per
            # merge, and a root never comes back, so no double counting
            # (mark-and-count beats a sort-based np.unique here)
            scratch[hi] = True
            merged += int(np.count_nonzero(scratch))
            scratch[hi] = False
            a = self.find_many(a)
            b = self.find_many(b)
            live = a != b
        return merged


def lpt_pack(groups: list[np.ndarray], costs: list[float], n_bins: int) -> list[np.ndarray]:
    """Longest-processing-time bin packing of vertex groups into bins.

    Groups are assigned, heaviest first, to the currently lightest bin;
    empty bins are dropped. Vertices within each bin are sorted ascending
    (iteration order — always dependence-safe for naturally ordered DAGs).
    """
    n_bins = max(1, min(n_bins, len(groups)))
    order = sorted(range(len(groups)), key=lambda g: -costs[g])
    heap = [(0.0, b) for b in range(n_bins)]
    heapq.heapify(heap)
    bins: list[list[np.ndarray]] = [[] for _ in range(n_bins)]
    for g in order:
        load, b = heapq.heappop(heap)
        bins[b].append(groups[g])
        heapq.heappush(heap, (load + costs[g], b))
    out = []
    for b in bins:
        if b:
            out.append(np.sort(np.concatenate(b)))
    return out


def group_by_roots(
    verts: np.ndarray, roots: np.ndarray, weights: np.ndarray | None = None
):
    """Group *verts* by union-find *roots* into sorted component arrays.

    Components are ordered by the first occurrence (in *verts* order) of
    any of their members — the same order a per-vertex dict walk produces
    via insertion, which downstream LPT packing is sensitive to. With
    *weights*, also returns the per-component cost list (one bulk
    ``reduceat`` instead of one ``.sum()`` per component).
    """
    nv = verts.shape[0]
    uniq, inv = np.unique(roots, return_inverse=True)
    first = np.full(uniq.shape[0], nv, dtype=INDEX_DTYPE)
    np.minimum.at(first, inv, np.arange(nv, dtype=INDEX_DTYPE))
    rank = first[inv]
    order = np.lexsort((verts, rank))
    vsort = verts[order]
    bounds = np.nonzero(np.diff(rank[order]))[0] + 1
    starts = np.concatenate([[0], bounds])
    ends = np.concatenate([bounds, [nv]])
    comps = [vsort[a:b] for a, b in zip(starts.tolist(), ends.tolist())]
    if weights is None:
        return comps
    costs = np.add.reduceat(weights[vsort], starts).tolist()
    return comps, costs


def window_components(
    dag: DAG,
    verts: np.ndarray,
    member: np.ndarray,
    *,
    weights: np.ndarray | None = None,
):
    """Weakly-connected components of the subgraph induced on *verts*.

    ``member`` must be a boolean mask over all DAG vertices that is True
    exactly on *verts* (passed in to avoid re-allocating per call).
    Returns each component as a sorted vertex array, in the same order as
    the per-vertex reference (see :func:`group_by_roots`); with *weights*
    returns ``(components, costs)``.
    """
    nv = verts.shape[0]
    if nv == 0:
        return [] if weights is None else ([], [])
    uf = UnionFind(dag.n)
    starts = dag.indptr[verts]
    counts = dag.indptr[verts + 1] - starts
    src = np.repeat(verts, counts)
    dst = dag.indices[multi_range(starts, counts)]
    keep = member[dst]
    uf.unite_edges(src[keep], dst[keep])
    roots = uf.find_many(verts)
    return group_by_roots(verts, roots, weights)


def chunk_by_cost(verts: np.ndarray, weights: np.ndarray, n_chunks: int) -> list[np.ndarray]:
    """Split sorted *verts* into up to *n_chunks* contiguous, cost-balanced runs.

    Used for parallel loops: contiguity preserves spatial locality and
    ascending order is dependence-safe.
    """
    if verts.shape[0] == 0:
        return []
    n_chunks = max(1, min(n_chunks, verts.shape[0]))
    if n_chunks == 1:  # one thread or one vertex: nothing to balance
        return [verts]
    w = weights[verts]
    cum = np.cumsum(w)
    total = cum[-1]
    bounds = [0]
    for k in range(1, n_chunks):
        cut = int(np.searchsorted(cum, total * k / n_chunks))
        bounds.append(max(bounds[-1], min(cut, verts.shape[0])))
    bounds.append(verts.shape[0])
    out = []
    for a, b in zip(bounds[:-1], bounds[1:]):
        if b > a:
            out.append(verts[a:b])
    return out


def pack_components(
    groups: list[np.ndarray], costs: list[float], n_bins: int
) -> list[np.ndarray]:
    """Pack independent vertex groups into balanced bins, locality-aware.

    Two regimes:

    * few, large groups (``len(groups) <= 4 * n_bins``) — LPT packing,
      which balances best when group sizes dominate;
    * many small groups (e.g. the singleton components of a parallel
      loop) — groups are kept in ascending-vertex order and cut into
      ``n_bins`` contiguous, cost-balanced runs. Heaviest-first LPT would
      interleave neighbouring iterations across bins and destroy the
      unit-stride access the kernels rely on (each thread would touch
      every ``n_bins``-th row).
    """
    if len(groups) <= 4 * n_bins:
        return lpt_pack(groups, costs, n_bins)
    firsts = np.fromiter(
        (g[0] for g in groups), dtype=INDEX_DTYPE, count=len(groups)
    )
    order = np.argsort(firsts, kind="stable")
    cum = np.cumsum(np.asarray(costs, dtype=np.float64)[order])
    total = float(cum[-1]) if len(cum) else 0.0
    bounds = [0]
    for k in range(1, n_bins):
        cut = int(np.searchsorted(cum, total * k / n_bins))
        bounds.append(max(bounds[-1], min(cut, len(order))))
    bounds.append(len(order))
    out = []
    for a, b in zip(bounds[:-1], bounds[1:]):
        if b > a:
            out.append(np.sort(np.concatenate([groups[g] for g in order[a:b].tolist()])))
    return out
