"""Data-flow DAGs over loop iterations.

A :class:`DAG` describes the dependencies between iterations of one sparse
kernel (the paper's ``G1``/``G2``): vertex ``i`` is iteration ``i`` of the
kernel's outermost loop, an edge ``u -> v`` means iteration ``v`` must
observe the result of iteration ``u``. Vertex weights ``c(v)`` are the
paper's computational load — "the total number of nonzeros touched" by
the iteration.

Every DAG built by this library is *naturally topologically ordered*
(``u < v`` for every edge): intra-kernel DAGs come from lower-triangular
matrices (a nonzero ``L[i, j]``, ``i > j`` is the edge ``j -> i``), and
joint DAGs place the first loop's vertices before the second loop's.
The implementation still supports arbitrary DAGs via an explicit Kahn
topological sort, but takes the fast path when natural order holds.
"""

from __future__ import annotations

import numpy as np

from ..sparse.base import INDEX_DTYPE, VALUE_DTYPE, as_index_array, as_value_array
from ..sparse.csc import CSCMatrix
from ..sparse.csr import CSRMatrix
from ..utils.arrays import multi_range

__all__ = ["DAG", "share_pattern_analyses"]

#: The memo slots :meth:`DAG.share_analyses` pools: all structural.
_ANALYSES = (
    "_pred_indptr",
    "_pred_indices",
    "_topo",
    "_levels",
    "_heights",
    "_wavefronts",
    "_slack",
)


class DAG:
    """A directed acyclic graph over ``n`` loop iterations.

    Successors are stored in CSR-style arrays (``indptr``, ``indices``);
    predecessors, levels, and heights are computed lazily and cached —
    schedulers query them repeatedly. Those analyses depend on the edges
    only, so DAGs of one pattern can compute them once between them
    (:meth:`share_analyses`); weights stay per DAG.

    Attributes
    ----------
    n:
        Number of vertices (loop iterations).
    indptr, indices:
        Successor adjacency: vertex ``u``'s successors are
        ``indices[indptr[u]:indptr[u+1]]``, each strictly increasing.
    weights:
        ``float64`` per-vertex cost ``c(v)``.
    """

    __slots__ = (
        "n",
        "indptr",
        "indices",
        "weights",
        "_pred_indptr",
        "_pred_indices",
        "_levels",
        "_heights",
        "_topo",
        "_wavefronts",
        "_slack",
        "_twin",
    )

    def __init__(self, n: int, indptr, indices, weights=None, *, check: bool = True):
        self.n = int(n)
        self.indptr = as_index_array(indptr, name="indptr")
        self.indices = as_index_array(indices, name="indices")
        if weights is None:
            self.weights = np.ones(self.n, dtype=VALUE_DTYPE)
        else:
            self.weights = as_value_array(weights, name="weights")
            if self.weights.shape != (self.n,):
                raise ValueError(
                    f"weights shape {self.weights.shape} != ({self.n},)"
                )
        if check:
            if self.indptr.shape[0] != self.n + 1 or self.indptr[0] != 0:
                raise ValueError("malformed indptr")
            if self.indptr[-1] != self.indices.shape[0]:
                raise ValueError("indptr[-1] must equal number of edges")
            if np.any(np.diff(self.indptr) < 0):
                raise ValueError("indptr must be non-decreasing")
            if self.indices.size and (
                self.indices.min() < 0 or self.indices.max() >= self.n
            ):
                raise ValueError("edge target out of range")
            srcs = np.repeat(
                np.arange(self.n, dtype=INDEX_DTYPE), np.diff(self.indptr)
            )
            if np.any(srcs == self.indices):
                raise ValueError("self-loops are not allowed")
        self._pred_indptr = None
        self._pred_indices = None
        self._levels = None
        self._heights = None
        self._topo = None
        self._wavefronts = None
        self._slack = None
        self._twin = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def empty(cls, n: int, weights=None) -> "DAG":
        """An edge-free DAG: a fully parallel loop of *n* iterations."""
        return cls(
            n,
            np.zeros(n + 1, dtype=INDEX_DTYPE),
            np.empty(0, dtype=INDEX_DTYPE),
            weights,
            check=False,
        )

    @classmethod
    def from_edges(cls, n: int, edges, weights=None) -> "DAG":
        """Build from ``(u, v)`` pairs (u before v), given as an
        ``(m, 2)`` array or an iterable of pairs."""
        if not isinstance(edges, np.ndarray):
            edges = list(edges)
        edges = np.asarray(edges, dtype=INDEX_DTYPE).reshape(-1, 2)
        if edges.size == 0:
            return cls.empty(n, weights)
        order = np.lexsort((edges[:, 1], edges[:, 0]))
        src, dst = edges[order, 0], edges[order, 1]
        dedup = np.concatenate([[True], (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])])
        src, dst = src[dedup], dst[dedup]
        indptr = np.zeros(n + 1, dtype=INDEX_DTYPE)
        np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
        return cls(n, indptr, dst, weights)

    @classmethod
    def from_lower_triangular(cls, low, weights=None) -> "DAG":
        """Dependency DAG of a kernel driven by lower-triangular ``low``.

        Each strictly-lower nonzero ``L[i, j]`` is the dependence
        ``j -> i``: iteration ``i`` reads a value iteration ``j`` produced
        (the SpTRSV and SpIC0/SpILU0 intra-DAG rule from Sec. 2.2 of the
        paper). Accepts :class:`CSRMatrix` or :class:`CSCMatrix`; the DAG's
        successor lists are exactly the strict-lower columns.

        Default vertex weights are the nonzeros touched per iteration
        (row nnz for CSR inputs, column nnz for CSC inputs).
        """
        if isinstance(low, CSRMatrix):
            csc = low.to_csc()
            default_w = low.row_nnz().astype(VALUE_DTYPE)
        elif isinstance(low, CSCMatrix):
            csc = low
            default_w = low.col_nnz().astype(VALUE_DTYPE)
        else:
            raise TypeError(f"expected CSRMatrix or CSCMatrix, got {type(low)}")
        if csc.n_rows != csc.n_cols:
            raise ValueError("dependency DAGs require square operands")
        n = csc.n_cols
        # Successors of j = strictly-lower rows of column j.
        cols = np.repeat(np.arange(n, dtype=INDEX_DTYPE), csc.col_nnz())
        mask = csc.indices > cols
        dst = csc.indices[mask]
        counts = np.bincount(cols[mask], minlength=n)
        indptr = np.zeros(n + 1, dtype=INDEX_DTYPE)
        np.cumsum(counts, out=indptr[1:])
        w = weights if weights is not None else default_w
        return cls(n, indptr, dst, w, check=False)

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    @property
    def n_edges(self) -> int:
        """Number of dependence edges."""
        return int(self.indices.shape[0])

    @property
    def has_edges(self) -> bool:
        """True when the loop has any carried dependence."""
        return self.n_edges > 0

    def successors(self, v: int) -> np.ndarray:
        """Vertices that depend on *v* (view)."""
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def predecessors(self, v: int) -> np.ndarray:
        """Vertices *v* depends on (view into the cached predecessor CSR)."""
        indptr, indices = self.predecessor_arrays()
        return indices[indptr[v] : indptr[v + 1]]

    def predecessor_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """``(indptr, indices)`` of the predecessor (transposed) adjacency."""
        if self._pred_indptr is None and self._twin is not None:
            self._pred_indptr, self._pred_indices = self._twin.predecessor_arrays()
        if self._pred_indptr is None:
            counts = np.bincount(self.indices, minlength=self.n)
            indptr = np.zeros(self.n + 1, dtype=INDEX_DTYPE)
            np.cumsum(counts, out=indptr[1:])
            order = np.argsort(self.indices, kind="stable")
            srcs = np.repeat(
                np.arange(self.n, dtype=INDEX_DTYPE), np.diff(self.indptr)
            )
            self._pred_indptr = indptr
            self._pred_indices = srcs[order]
        return self._pred_indptr, self._pred_indices

    def out_degrees(self) -> np.ndarray:
        """Successor counts per vertex."""
        return np.diff(self.indptr)

    def in_degrees(self) -> np.ndarray:
        """Predecessor counts per vertex."""
        return np.bincount(self.indices, minlength=self.n)

    def edge_list(self) -> np.ndarray:
        """All edges as an ``(m, 2)`` array of ``(u, v)`` rows."""
        srcs = np.repeat(np.arange(self.n, dtype=INDEX_DTYPE), np.diff(self.indptr))
        return np.stack([srcs, self.indices], axis=1)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DAG(n={self.n}, edges={self.n_edges})"

    # ------------------------------------------------------------------
    # Orders, levels, heights, slack
    # ------------------------------------------------------------------
    def is_naturally_ordered(self) -> bool:
        """True when every edge satisfies ``u < v`` (ids are a topo order)."""
        if self.n_edges == 0:
            return True
        srcs = np.repeat(np.arange(self.n, dtype=INDEX_DTYPE), np.diff(self.indptr))
        return bool(np.all(srcs < self.indices))

    def topological_order(self) -> np.ndarray:
        """A topological order of the vertices (cached).

        Natural order when the DAG is naturally ordered; otherwise Kahn's
        algorithm. Raises ``ValueError`` if a cycle is detected.
        """
        if self._topo is not None:
            return self._topo
        if self._twin is not None:
            self._topo = self._twin.topological_order()
            return self._topo
        if self.is_naturally_ordered():
            self._topo = np.arange(self.n, dtype=INDEX_DTYPE)
            return self._topo
        indptr = self.indptr.tolist()
        indices = self.indices.tolist()
        indeg = self.in_degrees().tolist()
        stack = [v for v in range(self.n) if indeg[v] == 0]
        order = []
        while stack:
            u = stack.pop()
            order.append(u)
            for v in indices[indptr[u] : indptr[u + 1]]:
                indeg[v] -= 1
                if indeg[v] == 0:
                    stack.append(v)
        if len(order) != self.n:
            raise ValueError("graph contains a cycle")
        self._topo = np.asarray(order, dtype=INDEX_DTYPE)
        return self._topo

    def levels(self) -> np.ndarray:
        """Wavefront number ``l(v)``: longest path (in edges) from a source.

        Vertices with equal level are mutually independent and form one
        wavefront of the classic wavefront-parallel execution.
        """
        if self._levels is None:
            self._levels = (
                self._twin.levels()
                if self._twin is not None
                else self._longest_path(reverse=False)
            )
        return self._levels

    def heights(self) -> np.ndarray:
        """``height(v)``: longest path (in edges) from *v* to a sink."""
        if self._heights is None:
            self._heights = (
                self._twin.heights()
                if self._twin is not None
                else self._longest_path(reverse=True)
            )
        return self._heights

    def _longest_path(self, *, reverse: bool) -> np.ndarray:
        """Longest-path labels via one pass in (reverse) topological order.

        Python-level loop over edge lists converted to lists once —
        ``O(V + E)`` with small constants, which beats per-level numpy
        dispatch on the deep, narrow DAGs of banded matrices.
        """
        topo = self.topological_order()
        out = [0] * self.n
        if not reverse:
            indptr, indices = self.predecessor_arrays()
            order = topo
        else:
            indptr, indices = self.indptr, self.indices
            order = topo[::-1]
        ptr = indptr.tolist()
        idx = indices.tolist()
        for v in order.tolist():
            lo, hi = ptr[v], ptr[v + 1]
            if hi > lo:
                best = -1
                for u in idx[lo:hi]:
                    lu = out[u]
                    if lu > best:
                        best = lu
                out[v] = best + 1
        return np.asarray(out, dtype=INDEX_DTYPE)

    @property
    def n_wavefronts(self) -> int:
        """Number of wavefronts (= critical path length in vertices)."""
        if self.n == 0:
            return 0
        return int(self.levels().max()) + 1

    @property
    def critical_path(self) -> int:
        """The paper's ``P_G``: critical path length in vertices."""
        return self.n_wavefronts

    def wavefronts(self) -> list[np.ndarray]:
        """Vertices grouped by level, each group sorted ascending.

        Memoized like :meth:`levels`: the wavefront scheduler, the plan
        compiler and the metrics all ask repeatedly. Callers must not
        mutate the returned arrays.
        """
        if self._wavefronts is None and self._twin is not None:
            self._wavefronts = self._twin.wavefronts()
        if self._wavefronts is None:
            lv = self.levels()
            # Stable: each level's vertices stay in ascending order.
            order = np.argsort(lv, kind="stable")
            sorted_lv = lv[order]
            boundaries = np.nonzero(np.diff(sorted_lv))[0] + 1
            self._wavefronts = np.split(order, boundaries) if self.n else []
        return self._wavefronts

    def slack_numbers(self) -> np.ndarray:
        """Per-vertex slack ``SN(v) = (P_G - 1) - l(v) - height(v)``.

        The paper counts ``P_G`` in wavefronts and defines slack as the
        number of wavefronts by which ``v``'s execution may be postponed
        without pushing any dependent past the last wavefront; with both
        ``l`` and ``height`` measured in edges this is
        ``(P_G - 1) - l(v) - height(v)`` and is always ``>= 0``.

        Memoized like :meth:`levels` (ICO's slack balancing and hdagg
        both re-ask); callers must not mutate the returned array.
        """
        if self.n == 0:
            return np.empty(0, dtype=INDEX_DTYPE)
        if self._slack is None and self._twin is not None:
            self._slack = self._twin.slack_numbers()
        if self._slack is None:
            self._slack = (
                (self.n_wavefronts - 1) - self.levels() - self.heights()
            )
        return self._slack

    def same_structure(self, other: "DAG") -> bool:
        """True when *other* has exactly this DAG's vertices and edges."""
        return (
            self.n == other.n
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        )

    def share_analyses(self, other: "DAG") -> None:
        """Compute the structural analyses of *self* and *other* once.

        Predecessor arrays, topological order, levels, heights,
        wavefronts and slack depend on the edges alone, so a DAG of the
        same structure — e.g. the intra-DAGs of two loops over one
        sparsity pattern — can answer them for both. Nothing is computed
        here: each memo stays lazy, and whichever DAG asks first fills it
        for the other. Memos either one already holds are pooled, and
        weights stay per DAG. Raises ``ValueError`` unless
        :meth:`same_structure` holds.
        """
        a, b = self._root(), other._root()
        if a is b:
            return
        if not a.same_structure(b):
            raise ValueError("share_analyses needs DAGs of the same structure")
        for slot in _ANALYSES:
            if getattr(b, slot) is None:
                setattr(b, slot, getattr(a, slot))
        # Only roots are linked, so the links form a forest: no cycles.
        a._twin = b

    def _root(self) -> "DAG":
        dag = self
        while dag._twin is not None:
            dag = dag._twin
        return dag

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def transpose(self) -> "DAG":
        """The reversed DAG (every edge flipped).

        Memos carry over instead of being recomputed: reversing edges
        swaps levels with heights, reverses any topological order, and
        leaves the per-vertex slack unchanged (``SN`` is symmetric in
        ``l`` and ``height``). Wavefronts are left to be rebuilt lazily
        from the carried levels. A DAG sharing its analyses carries the
        shared memos; the result shares nothing.
        """
        indptr, indices = self.predecessor_arrays()
        out = DAG(self.n, indptr.copy(), indices.copy(), self.weights, check=False)
        # the root of a sharing group holds every memo any member holds
        memo = self._root()
        out._pred_indptr = self.indptr
        out._pred_indices = self.indices
        out._levels = memo._heights
        out._heights = memo._levels
        out._topo = None if memo._topo is None else memo._topo[::-1].copy()
        out._slack = memo._slack
        return out

    def induced_subgraph(self, vertices: np.ndarray) -> tuple["DAG", np.ndarray]:
        """Subgraph on *vertices*; returns ``(sub_dag, vertex_map)``.

        ``vertex_map[k]`` is the original id of the subgraph's vertex
        ``k``; *vertices* need not be sorted but must be unique. The
        subgraph is a new DAG with fresh (empty) memos — levels and
        heights are not restrictions of the parent's, so nothing can be
        carried over.
        """
        vertices = np.asarray(vertices, dtype=INDEX_DTYPE)
        local = np.full(self.n, -1, dtype=INDEX_DTYPE)
        local[vertices] = np.arange(vertices.shape[0], dtype=INDEX_DTYPE)
        counts = self.indptr[vertices + 1] - self.indptr[vertices]
        src = local[np.repeat(vertices, counts)]
        dst = local[
            self.indices[multi_range(self.indptr[vertices], counts)]
        ]
        keep = dst >= 0
        edges = np.stack([src[keep], dst[keep]], axis=1)
        sub = DAG.from_edges(vertices.shape[0], edges, self.weights[vertices])
        return sub, vertices

    def to_networkx(self):  # pragma: no cover - convenience for notebooks
        """Export as a ``networkx.DiGraph`` with ``weight`` vertex attrs."""
        import networkx as nx

        g = nx.DiGraph()
        for v in range(self.n):
            g.add_node(int(v), weight=float(self.weights[v]))
        g.add_edges_from((int(u), int(v)) for u, v in self.edge_list())
        return g

    def validate_schedulable(self) -> None:
        """Raise unless the DAG is acyclic (delegates to topo sort)."""
        self.topological_order()


def share_pattern_analyses(dags: list[DAG]) -> int:
    """Link every DAG to the first earlier one of the same structure
    (:meth:`DAG.share_analyses`); return how many DAGs were linked.

    The lookup table lives for this call only: there is no process-wide
    registry of patterns.
    """
    firsts: dict[tuple[int, int], list[DAG]] = {}
    n_shared = 0
    for dag in dags:
        peers = firsts.setdefault((dag.n, dag.n_edges), [])
        match = next((p for p in peers if p is dag or p.same_structure(dag)), None)
        if match is None:
            peers.append(dag)
        else:
            dag.share_analyses(match)
            n_shared += 1
    return n_shared
