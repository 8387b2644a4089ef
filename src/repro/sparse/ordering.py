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

from ..utils.intsort import stable_lexsort
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
    order = stable_lexsort((c, r))
    r, c = r[order], c[order]
    if r.size:
        dedup = np.concatenate([[True], (r[1:] != r[:-1]) | (c[1:] != c[:-1])])
        r, c = r[dedup], c[dedup]
    indptr = np.zeros(a.n_rows + 1, dtype=INDEX_DTYPE)
    np.cumsum(np.bincount(r, minlength=a.n_rows), out=indptr[1:])
    return indptr, c


def _bfs_levels(adj, start, mark):
    """BFS level structure from *start* over the vertices marked 1.

    *adj* holds one neighbour list per vertex and *mark* is a
    ``bytearray``; every vertex the search reaches is re-marked 2.
    Returns ``(order, ends)``: the vertices in BFS order and, per level,
    the position in ``order`` one past its last vertex.
    """
    mark[start] = 2
    order = [start]
    ends = []
    lo = 0
    while lo < len(order):
        hi = len(order)
        for u in order[lo:hi]:
            for v in adj[u]:
                if mark[v] == 1:
                    mark[v] = 2
                    order.append(v)
        ends.append(hi)
        lo = hi
    return order, ends


def nested_dissection(a: CSRMatrix, *, leaf_size: int = 64) -> np.ndarray:
    """Recursive nested-dissection ordering (METIS substitute).

    At each level the active subgraph is split by a BFS level structure
    from a pseudo-peripheral vertex: vertices in the first half of the
    levels form part 0, the rest part 1, and the boundary vertices of
    part 0 adjacent to part 1 become the separator, ordered *after* both
    parts. Components of at most ``leaf_size`` vertices are ordered
    locally by BFS. The result is a permutation ``perm`` (new position ->
    old index) whose elimination tree branches at every separator.

    Each bisection nests two Python frames. Both parts are non-empty and
    smaller than their component, so at most ``n - leaf_size``
    bisections nest. In practice they nest far less: 10 deep on a
    20,000-vertex path (about ``log2(n / leaf_size)``), 12 on ``lap3d:20``,
    72 on ``rand:20000``, well inside Python's recursion limit.
    """
    n = a.n_rows
    if n == 0:
        return np.empty(0, dtype=INDEX_DTYPE)
    indptr, indices = _adjacency_lists(a)
    ptr, nbr = indptr.tolist(), indices.tolist()
    adj = [nbr[ptr[v] : ptr[v + 1]] for v in range(n)]

    def order_component(comp: list) -> list:
        """Nested-dissection ordering of one connected component.

        *comp* is a BFS order from ``comp[0]``, so its last vertex is a
        farthest one: the pseudo-peripheral start.
        """
        if len(comp) <= leaf_size:
            return comp
        # mark: 1 = in comp, 2 = reached by the BFS (part 1 unless
        # re-marked), 3 = part 0, 4 = separator.
        mark = bytearray(n)
        for v in comp:
            mark[v] = 1
        order, ends = _bfs_levels(adj, comp[-1], mark)
        if len(ends) == 1:
            return comp  # a single vertex (leaf_size < 1)
        first_half = order[: ends[(len(ends) - 1) // 2]]
        for u in first_half:
            mark[u] = 3
        for u in first_half:
            for v in adj[u]:
                if mark[v] == 2:
                    mark[u] = 4
                    break
        part0 = [v for v in comp if mark[v] == 3]
        part1 = [v for v in comp if mark[v] == 2]
        if not part0 or not part1:
            return comp  # degenerate split; stop recursing
        sep = [v for v in comp if mark[v] == 4]
        return order_subgraph(part0) + order_subgraph(part1) + sep

    def order_subgraph(verts: list) -> list:
        """Order a vertex set: split into connected components, recurse."""
        mark = bytearray(n)
        for v in verts:
            mark[v] = 1
        out = []
        for v in verts:
            if mark[v] == 1:
                out += order_component(_bfs_levels(adj, v, mark)[0])
        return out

    return np.asarray(order_subgraph(list(range(n))), dtype=INDEX_DTYPE)


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
    Runs under an ``ordering`` span carrying ``method`` and ``rows``.
    """
    # Imported here: repro.obs imports the kernels, which import this package.
    from ..obs import current as current_recorder

    orderings = {
        "nd": nested_dissection,
        "rcm": reverse_cuthill_mckee,
        "natural": lambda m: identity_ordering(m.n_rows),
    }
    if method not in orderings:
        raise ValueError(f"unknown ordering method {method!r}")
    with current_recorder().span("ordering", method=method, rows=a.n_rows):
        perm = orderings[method](a)
        return permute_symmetric(a, perm), perm
