"""DAGP-style multilevel acyclic DAG partitioning.

The paper's fused-DAGP baseline partitions the joint DAG into ``r``
acyclic parts with DAGP (Herrmann et al., SIAM SISC 2019) and "executes
all independent partitions that are in the same wavefront in parallel".

This module implements the defining ingredients of that pipeline:

* **recursive acyclic bisection** — each bisection splits a (sub)DAG at a
  point of its topological order, which keeps the part-quotient graph
  acyclic by construction, with the split point chosen to balance vertex
  cost;
* **boundary refinement** — FM-style single-vertex moves across the cut
  that reduce the edge cut while preserving both acyclicity (a vertex may
  move forward only if it has no successor left behind, and backward only
  if it has no predecessor ahead) and the balance tolerance;
* **wavefront execution of the part-quotient DAG** — parts in the same
  quotient level become the w-partitions of one s-partition.

It is deliberately a faithful-in-spirit reimplementation, not a port;
like the original it is markedly more expensive than LBC (Fig. 8), which
the inspection-time benchmarks measure directly.
"""

from __future__ import annotations

import numpy as np

from ..graph.dag import DAG
from ..sparse.base import INDEX_DTYPE
from ..utils.intsort import stable_argsort
from .schedule import FusedSchedule

__all__ = ["dagp_schedule", "dagp_partition"]


def dagp_partition(
    dag: DAG,
    n_parts: int,
    *,
    imbalance: float = 0.10,
    refine_passes: int = 4,
) -> np.ndarray:
    """Partition *dag* into up to *n_parts* acyclic parts.

    Returns a per-vertex part id in ``[0, n_parts)``. Part ids are
    assigned so that every edge ``u -> v`` satisfies
    ``part[u] <= part[v]`` — the quotient graph over parts is acyclic
    with the natural id order as a topological order.
    """
    if n_parts < 1:
        raise ValueError("n_parts must be >= 1")
    part = np.zeros(dag.n, dtype=INDEX_DTYPE)
    if n_parts == 1 or dag.n <= 1:
        return part
    topo = dag.topological_order()
    _bisect_recursive(
        dag, topo, part, 0, n_parts, imbalance, refine_passes
    )
    return part


def _bisect_recursive(dag, order, part, base, n_parts, imbalance, refine_passes):
    """Recursively bisect the vertex set `order` (a topo order slice)."""
    if n_parts <= 1 or order.shape[0] <= 1:
        part[order] = base
        return
    left_parts = n_parts // 2
    right_parts = n_parts - left_parts
    w = dag.weights[order]
    cum = np.cumsum(w)
    total = cum[-1]
    target = total * left_parts / n_parts
    split = int(np.searchsorted(cum, target)) + 1
    split = min(max(split, 1), order.shape[0] - 1)
    side = np.zeros(dag.n, dtype=np.int8)  # 0 = outside, 1 = left, 2 = right
    side[order[:split]] = 1
    side[order[split:]] = 2
    left_cost = float(cum[split - 1])
    right_cost = float(total - left_cost)
    _refine_bisection(
        dag, order, side, left_cost, right_cost, target, imbalance, refine_passes
    )
    left = order[side[order] == 1]
    right = order[side[order] == 2]
    side[order] = 0
    if left.shape[0] == 0 or right.shape[0] == 0:
        part[order] = base
        return
    _bisect_recursive(dag, left, part, base, left_parts, imbalance, refine_passes)
    _bisect_recursive(
        dag, right, part, base + left_parts, right_parts, imbalance, refine_passes
    )


def _refine_bisection(dag, order, side, left_cost, right_cost, target, imbalance, passes):
    """FM-style boundary refinement preserving acyclicity and balance.

    A vertex in the left part may move right only if none of its
    successors is in the left part; a vertex in the right part may move
    left only if none of its predecessors is in the right part. Moves are
    greedy by cut-gain; each pass scans the current boundary once.
    """
    ptr, idx = dag.indptr, dag.indices
    pptr, pidx = dag.predecessor_arrays()
    weights = dag.weights
    total = left_cost + right_cost
    lo_bal = target - imbalance * total
    hi_bal = target + imbalance * total
    order_list = order.tolist()
    for _ in range(passes):
        moved = 0
        for v in order_list:
            sv = side[v]
            if sv == 1:
                # candidate move left -> right
                succ = idx[ptr[v] : ptr[v + 1]]
                if succ.size and np.any(side[succ] == 1):
                    continue
                preds = pidx[pptr[v] : pptr[v + 1]]
                gain = int(np.count_nonzero(side[succ] == 2)) - int(
                    np.count_nonzero(side[preds] == 1)
                )
                new_left = left_cost - float(weights[v])
                if gain > 0 and new_left >= lo_bal:
                    side[v] = 2
                    left_cost = new_left
                    right_cost = total - left_cost
                    moved += 1
            elif sv == 2:
                preds = pidx[pptr[v] : pptr[v + 1]]
                if preds.size and np.any(side[preds] == 2):
                    continue
                succ = idx[ptr[v] : ptr[v + 1]]
                gain = int(np.count_nonzero(side[preds] == 1)) - int(
                    np.count_nonzero(side[succ] == 2)
                )
                new_left = left_cost + float(weights[v])
                if gain > 0 and new_left <= hi_bal:
                    side[v] = 1
                    left_cost = new_left
                    right_cost = total - left_cost
                    moved += 1
        if moved == 0:
            break


def dagp_schedule(
    dag: DAG,
    r: int,
    *,
    parts_per_thread: int = 4,
    imbalance: float = 0.10,
    refine_passes: int = 4,
) -> FusedSchedule:
    """Schedule *dag* by DAGP partitioning + quotient-DAG wavefronts.

    The DAG is cut into ``r * parts_per_thread`` acyclic parts (more
    parts than threads gives the wavefront executor slack to overlap);
    parts in the same level of the part-quotient DAG run in parallel as
    the w-partitions of one s-partition.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    n_parts = max(1, r * parts_per_thread)
    part = dagp_partition(
        dag, n_parts, imbalance=imbalance, refine_passes=refine_passes
    )
    n_parts_actual = int(part.max()) + 1 if dag.n else 0
    # Quotient DAG levels: longest path over parts. Because
    # part[u] <= part[v] along every edge, part ids are already a topo
    # order of the quotient.
    qlevel = np.zeros(n_parts_actual, dtype=INDEX_DTYPE)
    edges = dag.edge_list()
    if edges.shape[0]:
        pu = part[edges[:, 0]]
        pv = part[edges[:, 1]]
        cross = pu != pv
        pu, pv = pu[cross], pv[cross]
        # Iterate parts in id order; relax cross edges grouped by target.
        order = stable_argsort(pv)
        pu, pv = pu[order], pv[order]
        starts = np.searchsorted(pv, np.arange(n_parts_actual))
        ends = np.searchsorted(pv, np.arange(n_parts_actual), side="right")
        for p in range(n_parts_actual):
            lo, hi = starts[p], ends[p]
            if hi > lo:
                qlevel[p] = int(qlevel[pu[lo:hi]].max()) + 1
    # Group parts by level -> s-partitions; parts -> w-partitions.
    s_partitions: list[list[np.ndarray]] = []
    max_level = int(qlevel.max()) if n_parts_actual else -1
    vert_ids = np.arange(dag.n, dtype=INDEX_DTYPE)
    for lvl in range(max_level + 1):
        parts_here = np.nonzero(qlevel == lvl)[0]
        wlist = []
        for p in parts_here:
            verts = vert_ids[part == p]
            if verts.shape[0]:
                wlist.append(verts)
        if wlist:
            s_partitions.append(wlist)
    sched = FusedSchedule((dag.n,), s_partitions, packing="none")
    sched.meta["scheduler"] = "dagp"
    sched.meta["n_parts"] = n_parts_actual
    return sched
