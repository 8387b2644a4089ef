"""Fill-reducing / parallelism-enhancing orderings — the METIS stand-in.

The paper reorders every matrix with METIS nested dissection before
scheduling ("Matrices are first reordered with METIS to improve thread
parallelism"). METIS is unavailable offline, so this module provides:

* :func:`reverse_cuthill_mckee` — bandwidth reduction via scipy,
* :func:`nested_dissection` — our own recursive graph-bisection ordering
  (the METIS substitute); separators go last, so the elimination tree
  branches and wavefront parallelism increases, which is precisely the
  property the paper relies on,
* :func:`permute_symmetric` — apply ``P A Pᵀ`` to a CSR matrix.

The bisection inside nested dissection is a BFS/level-structure split
(George–Liu style) with a small boundary-separator extraction; it is not
a multilevel FM partitioner, but produces the branching elimination trees
the schedulers need.
"""

from __future__ import annotations

import numpy as np

from .base import INDEX_DTYPE
from .csr import CSRMatrix

__all__ = [
    "reverse_cuthill_mckee",
    "nested_dissection",
    "permute_symmetric",
    "apply_ordering",
    "identity_ordering",
]


def identity_ordering(n: int) -> np.ndarray:
    """The identity permutation on *n* elements."""
    return np.arange(n, dtype=INDEX_DTYPE)


def reverse_cuthill_mckee(a: CSRMatrix) -> np.ndarray:
    """Reverse Cuthill–McKee ordering of a symmetric-pattern matrix.

    Returns a permutation ``perm`` such that ``A[perm][:, perm]`` has
    reduced bandwidth. Deep, narrow profiles after RCM make good *worst
    case* inputs for wavefront methods.
    """
    from scipy.sparse.csgraph import reverse_cuthill_mckee as _rcm

    perm = _rcm(a.to_scipy(), symmetric_mode=True)
    return np.asarray(perm, dtype=INDEX_DTYPE)


def _adjacency_lists(a: CSRMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric adjacency (indptr, indices) of the pattern, no self loops."""
    rows = np.repeat(np.arange(a.n_rows, dtype=INDEX_DTYPE), a.row_nnz())
    cols = a.indices
    keep = rows != cols
    rows, cols = rows[keep], cols[keep]
    # Symmetrize (patterns from our generators already are, but be safe).
    r = np.concatenate([rows, cols])
    c = np.concatenate([cols, rows])
    # imported here: repro.utils imports repro.sparse
    from ..utils.intsort import stable_lexsort

    order = stable_lexsort((c, r))
    r, c = r[order], c[order]
    if r.size:
        dedup = np.concatenate([[True], (r[1:] != r[:-1]) | (c[1:] != c[:-1])])
        r, c = r[dedup], c[dedup]
    indptr = np.zeros(a.n_rows + 1, dtype=INDEX_DTYPE)
    np.cumsum(np.bincount(r, minlength=a.n_rows), out=indptr[1:])
    return indptr, c


def _bfs_levels(indptr, indices, start, active_mask):
    """BFS level structure from *start* over active vertices.

    Returns (order, levels) arrays for reached vertices.
    """
    n = indptr.shape[0] - 1
    level = np.full(n, -1, dtype=INDEX_DTYPE)
    order = []
    frontier = [start]
    level[start] = 0
    depth = 0
    while frontier:
        order.extend(frontier)
        nxt = []
        for u in frontier:
            for v in indices[indptr[u] : indptr[u + 1]]:
                if active_mask[v] and level[v] < 0:
                    level[v] = depth + 1
                    nxt.append(int(v))
        frontier = nxt
        depth += 1
    return np.asarray(order, dtype=INDEX_DTYPE), level


def nested_dissection(a: CSRMatrix, *, leaf_size: int = 64) -> np.ndarray:
    """Recursive nested-dissection ordering (METIS substitute).

    At each level the active subgraph is split by a BFS level structure
    from a pseudo-peripheral vertex: vertices in the first half of the
    levels form part 0, the rest part 1, and the boundary vertices of
    part 0 adjacent to part 1 become the separator, ordered *after* both
    parts. Components smaller than ``leaf_size`` are ordered locally by
    BFS. The result is a permutation ``perm`` (new position -> old index)
    whose elimination tree branches at every separator.
    """
    n = a.n_rows
    if n == 0:
        return np.empty(0, dtype=INDEX_DTYPE)
    indptr, indices = _adjacency_lists(a)
    out = np.empty(n, dtype=INDEX_DTYPE)
    out_pos = 0

    # Iterative worklist of (vertex-set, write-offset) to avoid recursion
    # limits on deep graphs; sets are numpy index arrays.
    active = np.ones(n, dtype=bool)

    def order_component(comp: np.ndarray) -> np.ndarray:
        """Return a nested-dissection ordering of one connected component."""
        if comp.shape[0] <= leaf_size:
            return comp
        mask = np.zeros(n, dtype=bool)
        mask[comp] = True
        # Pseudo-peripheral start: BFS twice.
        start = int(comp[0])
        order1, _ = _bfs_levels(indptr, indices, start, mask)
        start = int(order1[-1])
        order2, level = _bfs_levels(indptr, indices, start, mask)
        if order2.shape[0] != comp.shape[0]:
            # Disconnected inside `comp` (should not happen; comp is a
            # component) — fall back to BFS order.
            return comp
        max_level = int(level[order2].max())
        if max_level == 0:
            return comp  # complete graph on comp; nothing to dissect
        half = max_level // 2
        in_a = np.zeros(n, dtype=bool)
        sel = order2[level[order2] <= half]
        in_a[sel] = True
        # Separator: vertices of part A adjacent to part B.
        sep_mask = np.zeros(n, dtype=bool)
        for u in sel:
            for v in indices[indptr[u] : indptr[u + 1]]:
                if mask[v] and not in_a[v]:
                    sep_mask[u] = True
                    break
        part_a = comp[in_a[comp] & ~sep_mask[comp]]
        part_b = comp[~in_a[comp]]
        sep = comp[sep_mask[comp]]
        if part_a.shape[0] == 0 or part_b.shape[0] == 0:
            return comp  # degenerate split; stop recursing
        ordered = [
            _order_subgraph(part_a),
            _order_subgraph(part_b),
            sep,
        ]
        return np.concatenate(ordered)

    def _order_subgraph(verts: np.ndarray) -> np.ndarray:
        """Order a vertex set: split into connected components, recurse."""
        if verts.shape[0] == 0:
            return verts
        mask = np.zeros(n, dtype=bool)
        mask[verts] = True
        seen = np.zeros(n, dtype=bool)
        pieces = []
        for v in verts:
            if not seen[v]:
                comp_order, _ = _bfs_levels(indptr, indices, int(v), mask & ~seen)
                seen[comp_order] = True
                pieces.append(order_component(comp_order))
        return np.concatenate(pieces)

    all_verts = np.arange(n, dtype=INDEX_DTYPE)
    result = _order_subgraph(all_verts)
    out[: result.shape[0]] = result
    out_pos = result.shape[0]
    assert out_pos == n, "nested dissection dropped vertices"
    return out


def permute_symmetric(a: CSRMatrix, perm: np.ndarray) -> CSRMatrix:
    """Apply the symmetric permutation ``B = A[perm][:, perm]``.

    ``perm[k]`` is the original index placed at new position ``k`` (the
    scipy ``csgraph`` convention).
    """
    perm = np.asarray(perm, dtype=INDEX_DTYPE)
    if perm.shape != (a.n_rows,) or a.n_rows != a.n_cols:
        raise ValueError("perm must be a permutation of the square matrix order")
    inv = np.empty_like(perm)
    inv[perm] = np.arange(perm.shape[0], dtype=INDEX_DTYPE)
    rows = np.repeat(np.arange(a.n_rows, dtype=INDEX_DTYPE), a.row_nnz())
    new_rows = inv[rows]
    new_cols = inv[a.indices]
    return CSRMatrix.from_coo(a.n_rows, a.n_cols, new_rows, new_cols, a.data)


def apply_ordering(a: CSRMatrix, method: str = "nd") -> tuple[CSRMatrix, np.ndarray]:
    """Reorder *a* with the named method; returns ``(reordered, perm)``.

    ``method`` is one of ``"nd"`` (nested dissection — the default, as in
    the paper's METIS step), ``"rcm"``, or ``"natural"`` (identity).
    """
    if method == "nd":
        perm = nested_dissection(a)
    elif method == "rcm":
        perm = reverse_cuthill_mckee(a)
    elif method == "natural":
        perm = identity_ordering(a.n_rows)
    else:
        raise ValueError(f"unknown ordering method {method!r}")
    return permute_symmetric(a, perm), perm
