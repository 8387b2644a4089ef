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
from ..utils.arrays import multi_range, split_sizes
from ..utils.intsort import stable_argsort, stable_lexsort, unique

__all__ = [
    "UnionFind",
    "components_flat",
    "lpt_pack",
    "pack_components",
    "pack_flat",
    "window_components",
    "window_roots",
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


def components_flat(
    verts: np.ndarray, roots: np.ndarray, weights: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Group *verts* by union-find *roots*, as flat arrays.

    Returns ``(members, starts, costs)``: *verts* reordered component by
    component, each component ascending, and ``starts[c]`` the offset of
    component ``c`` in ``members``. Components are ordered by the first
    occurrence (in *verts* order) of any of their members — the same
    order a per-vertex dict walk produces via insertion, which
    downstream LPT packing is sensitive to. ``costs`` holds each
    component's weight sum (one bulk ``reduceat``), or ``None`` without
    *weights*.
    """
    nv = verts.shape[0]
    uniq, inv = unique(roots, return_inverse=True)
    first = np.full(uniq.shape[0], nv, dtype=INDEX_DTYPE)
    np.minimum.at(first, inv, np.arange(nv, dtype=INDEX_DTYPE))
    rank = first[inv]
    order = stable_lexsort((verts, rank))
    members = verts[order]
    head = np.ones(nv, dtype=bool)
    head[1:] = np.diff(rank[order]) != 0
    starts = np.flatnonzero(head)
    costs = None if weights is None else np.add.reduceat(weights[members], starts)
    return members, starts, costs


def window_roots(dag: DAG, verts: np.ndarray, member: np.ndarray) -> np.ndarray:
    """Union-find root of each of *verts* over the subgraph induced on
    *verts*: two vertices share a root iff they are weakly connected.

    ``member`` must be a boolean mask over all DAG vertices that is True
    exactly on *verts* (passed in to avoid re-allocating per call).
    """
    uf = UnionFind(dag.n)
    starts = dag.indptr[verts]
    counts = dag.indptr[verts + 1] - starts
    src = np.repeat(verts, counts)
    dst = dag.indices[multi_range(starts, counts)]
    keep = member[dst]
    uf.unite_edges(src[keep], dst[keep])
    return uf.find_many(verts)


def window_components(
    dag: DAG,
    verts: np.ndarray,
    member: np.ndarray,
    *,
    weights: np.ndarray | None = None,
):
    """Weakly-connected components of the subgraph induced on *verts*.

    Returns each component as a sorted vertex array, in the same order as
    the per-vertex reference (see :func:`components_flat`); with
    *weights* returns ``(components, costs)``. ``member`` is as for
    :func:`window_roots`.
    """
    if verts.shape[0] == 0:
        return [] if weights is None else ([], [])
    members, starts, costs = components_flat(
        verts, window_roots(dag, verts, member), weights
    )
    comps = np.split(members, starts[1:])
    return comps if costs is None else (comps, costs.tolist())


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
    """:func:`pack_flat` of a list of sorted vertex groups."""
    if not groups:
        return []
    sizes = np.array([g.shape[0] for g in groups], dtype=np.int64)
    return pack_flat(
        np.concatenate(groups),
        np.cumsum(sizes) - sizes,
        np.asarray(costs, dtype=np.float64),
        n_bins,
    )


def pack_flat(
    members: np.ndarray, starts: np.ndarray, costs: np.ndarray, n_bins: int
) -> list[np.ndarray]:
    """Pack independent vertex groups into balanced bins, locality-aware.

    The groups come flat, as from :func:`components_flat`: group ``g`` is
    ``members[starts[g]:starts[g + 1]]``, sorted, with cost ``costs[g]``.
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
    n_groups = starts.shape[0]
    ends = np.append(starts[1:], members.shape[0])
    if n_groups <= 4 * n_bins:
        groups = [members[a:b] for a, b in zip(starts.tolist(), ends.tolist())]
        return lpt_pack(groups, costs.tolist(), n_bins)
    # Groups in ascending first-vertex order, cut into contiguous
    # cost-balanced runs; then one lexsort sorts every bin's vertices.
    order = stable_argsort(members[starts])
    cum = np.cumsum(costs[order])
    cuts = np.searchsorted(cum, float(cum[-1]) * np.arange(1, n_bins) / n_bins)
    bounds = np.concatenate(
        ([0], np.maximum.accumulate(np.minimum(cuts, n_groups)), [n_groups])
    )
    group_bin = np.empty(n_groups, dtype=np.int64)
    group_bin[order] = np.repeat(np.arange(n_bins), np.diff(bounds))
    member_bin = np.repeat(group_bin, ends - starts)
    packed = members[stable_lexsort((members, member_bin))]
    sizes = np.bincount(member_bin, minlength=n_bins)
    return [b for b in split_sizes(packed, sizes) if b.shape[0]]
