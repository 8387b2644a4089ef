"""The sparse-fusion inspector (Sec. 2.2 of the paper).

The paper generates, per kernel pair, specialized ``intra_DAG`` /
``inter_DAG`` / ``compute_reuse`` inspector components from the kernel
source. Here every kernel carries its dataflow declaratively
(:class:`repro.kernels.base.Kernel`), so one *generic* inspector covers
every combination:

* :func:`build_inter_dep` joins kernel 1's writes with kernel 2's reads
  (flow), reads with writes (anti), and writes with writes (output) over
  every shared variable, element-wise — the runtime equivalent of the
  paper's dependence analysis of the outermost loop bodies. For the
  Table 1 combinations this reproduces the paper's ``F`` matrices (e.g.
  Listing 2's diagonal ``F`` for TRSV→SpMV).
* :func:`compute_reuse` implements the reuse-ratio metric
  ``2 * common_accesses / max(kernel1_accesses, kernel2_accesses)``
  estimated from variable sizes, with kernel-internal variables excluded.
"""

from __future__ import annotations

import numpy as np

from ..graph.interdep import InterDep
from ..kernels.base import Kernel, internal_var
from ..obs import current as current_recorder
from ..obs import names
from ..sparse.base import INDEX_DTYPE
from ..utils.arrays import multi_range

__all__ = ["build_inter_dep", "compute_reuse", "shared_variables"]


def shared_variables(k1: Kernel, k2: Kernel) -> list[str]:
    """Non-internal variables touched by both kernels."""
    v1 = set(k1.all_vars)
    v2 = set(k2.all_vars)
    both = v1 & v2
    internal = {v for v in both if internal_var(v)}
    if internal:
        raise ValueError(
            f"internal variables shared across kernels: {sorted(internal)}"
        )
    return sorted(both)


def _join_maps(
    left: tuple[np.ndarray, np.ndarray],
    right: tuple[np.ndarray, np.ndarray],
) -> np.ndarray:
    """Pairs ``(left_iter, right_iter)`` whose element sets intersect.

    ``left``/``right`` are (indptr, element_indices) iteration→element
    maps. Complexity is linear in map sizes plus output size.
    """
    liptr, lelems = left
    riptr, relems = right
    if lelems.shape[0] == 0 or relems.shape[0] == 0:
        return np.empty((0, 2), dtype=INDEX_DTYPE)
    n_left = liptr.shape[0] - 1
    n_right = riptr.shape[0] - 1
    li = np.repeat(np.arange(n_left, dtype=INDEX_DTYPE), np.diff(liptr))
    ri = np.repeat(np.arange(n_right, dtype=INDEX_DTYPE), np.diff(riptr))
    order = np.argsort(lelems, kind="stable")
    le = lelems[order]
    li = li[order]
    starts = np.searchsorted(le, relems, side="left")
    ends = np.searchsorted(le, relems, side="right")
    counts = ends - starts
    out_left = li[multi_range(starts, counts)]
    out_right = np.repeat(ri, counts)
    return np.stack([out_left, out_right], axis=1)


def build_inter_dep(
    k1: Kernel,
    k2: Kernel,
    *,
    include_anti: bool = True,
    include_output: bool = True,
) -> InterDep:
    """The dependency matrix ``F`` between *k1* (first) and *k2* (second).

    A nonzero ``F[i, j]`` means iteration ``j`` of *k1* must precede
    iteration ``i`` of *k2*: flow (k1 writes, k2 reads), anti (k1 reads,
    k2 writes) and output (both write) dependencies over every shared
    variable. Redundant edges (already implied transitively) are harmless
    and retained — dedup only removes exact duplicates.

    Memoized on *k2* like its :meth:`~repro.kernels.base.Kernel.access_maps`:
    ``F`` depends only on the two kernels' immutable sparsity structure,
    so the inspector and the plan compiler share one join per pair. The
    cache key holds *k1* itself, so its ``id`` cannot be recycled.
    """
    cache = k2.__dict__.setdefault("_inter_deps", {})
    key = (k1, include_anti, include_output)
    f = cache.get(key)
    if f is None:
        f = cache[key] = _join(k1, k2, include_anti, include_output)
    return f


def _join(
    k1: Kernel, k2: Kernel, include_anti: bool, include_output: bool
) -> InterDep:
    rec = current_recorder()
    with rec.span("inspector.join", k1=k1.name, k2=k2.name) as sp:
        pairs = []
        shared = shared_variables(k1, k2)
        for var in shared:
            r1, w1 = k1.access_maps(var)
            r2, w2 = k2.access_maps(var)
            if w1 is not None and r2 is not None:
                pairs.append(_join_maps(w1, r2))
            if include_anti and r1 is not None and w2 is not None:
                pairs.append(_join_maps(r1, w2))
            if include_output and w1 is not None and w2 is not None:
                pairs.append(_join_maps(w1, w2))
        if pairs:
            edges = np.concatenate(pairs, axis=0)
        else:
            edges = np.empty((0, 2), dtype=INDEX_DTYPE)
        f = InterDep.from_edges(k2.n_iterations, k1.n_iterations, edges)
        sp.set(shared_vars=len(shared), raw_edges=int(edges.shape[0]), nnz=f.nnz)
        rec.count(names.INSPECTOR_JOIN_EDGES, f.nnz)
    return f


def compute_reuse(k1: Kernel, k2: Kernel) -> float:
    """The paper's reuse ratio:
    ``2 * common / max(kernel1_accesses, kernel2_accesses)``.

    Accesses are estimated by variable sizes (number of elements), the
    same estimate the paper's generated ``compute_reuse`` uses (e.g.
    ``2*x.n / max(A.size+x.n+y.n, L.size+x.n+b.n)`` for the running
    example). Internal (kernel-private) variables are excluded.
    """
    s1 = {v: s for v, s in k1.var_sizes().items() if not internal_var(v)}
    s2 = {v: s for v, s in k2.var_sizes().items() if not internal_var(v)}
    common = sum(min(s1[v], s2[v]) for v in set(s1) & set(s2))
    total1 = sum(s1.values())
    total2 = sum(s2.values())
    denom = max(total1, total2)
    if denom == 0:
        return 0.0
    return 2.0 * common / denom
