"""Load-Balanced Level Coarsening (LBC) — the ParSy partitioner.

LBC aggregates consecutive wavefronts of a DAG into **s-partitions** and
splits each s-partition into up to ``r`` independent, cost-balanced
**w-partitions**. Independence comes from using the weakly-connected
components of the subgraph induced on the aggregated wavefronts: two
different components share no edge, so they may run in parallel without
synchronization; components are LPT-packed into ``r`` bins by vertex
cost.

Coarsening heuristic (two regimes, mirroring LBC's behaviour on the
motivating example of Fig. 2c):

* **wide regime** — while the current window of levels still yields at
  least ``r`` components, keep absorbing the next level (components only
  merge or get added as new sources, so this maximizes barrier removal
  while preserving ``r``-way parallelism). The window is additionally
  cut when its aggregated cost reaches ``total_cost / initial_cut``;
  ``initial_cut=1`` (the default) disables that cap so the component
  rule alone decides, while larger values bound s-partition cost the
  way ParSy's ``initial_cut`` parameter bounds granularity.
* **narrow regime** — when even a single level has fewer than ``r``
  vertices (the parallelism taper of Fig. 1), absorb the whole run of
  consecutive narrow levels into one s-partition instead of emitting one
  barrier per level.

``coarsening_factor`` caps the number of levels per s-partition (the
paper tunes it to 400 for the joint-DAG experiments).
"""

from __future__ import annotations

import numpy as np

from ..graph.dag import DAG
from ..obs import current as current_recorder
from ..obs import names
from ..sparse.base import INDEX_DTYPE
from ..utils.arrays import multi_range
from .partition_utils import UnionFind, components_flat, pack_flat, window_roots
from .schedule import FusedSchedule

__all__ = ["lbc_schedule"]


def lbc_schedule(
    dag: DAG,
    r: int,
    *,
    initial_cut: int = 1,
    coarsening_factor: int = 400,
    balance_tolerance: float = 2.0,
) -> FusedSchedule:
    """Partition *dag* with LBC for *r* threads; see the module docstring.

    ``balance_tolerance`` bounds the wide-regime window growth: a window
    stops extending once its heaviest connected component exceeds
    ``balance_tolerance * window_cost / r`` — one component is one
    w-partition, so letting a component swallow the window would leave
    ``r - 1`` threads idle (the imbalance LBC exists to avoid).
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    if not dag.is_naturally_ordered():
        raise ValueError("lbc_schedule requires a naturally ordered DAG")
    if dag.n == 0:
        return FusedSchedule((0,), [], packing="none")
    rec = current_recorder()
    with rec.span("lbc", n=dag.n, r=r) as sp:
        s_partitions, n_levels = _lbc_partitions(
            dag, r, initial_cut, coarsening_factor, balance_tolerance
        )
        sp.set(levels=n_levels, spartitions=len(s_partitions))
    rec.count(names.LBC_LEVELS, n_levels)
    rec.count(names.LBC_SPARTITIONS, len(s_partitions))
    sched = FusedSchedule((dag.n,), s_partitions, packing="none")
    sched.meta["scheduler"] = "lbc"
    sched.meta["initial_cut"] = initial_cut
    sched.meta["coarsening_factor"] = coarsening_factor
    sched.meta["balance_tolerance"] = balance_tolerance
    return sched


def _lbc_partitions(
    dag: DAG,
    r: int,
    initial_cut: int,
    coarsening_factor: int,
    balance_tolerance: float,
) -> tuple[list[list[np.ndarray]], int]:
    """The LBC window-growing core; returns (s_partitions, n_levels)."""
    wavefronts = dag.wavefronts()
    n_levels = len(wavefronts)
    weights = dag.weights
    total_cost = float(weights.sum())
    cost_cap = total_cost / max(1, initial_cut)

    pred_ptr, pred_idx = dag.predecessor_arrays()

    member = np.zeros(dag.n, dtype=bool)
    s_partitions: list[list[np.ndarray]] = []

    lb = 0
    while lb < n_levels:
        # --- grow the window [lb, ub) -------------------------------------
        uf = UnionFind(dag.n)
        window: list[np.ndarray] = []
        window_cost = 0.0
        n_comps = 0
        max_comp = 0.0

        def absorb(level_verts: np.ndarray, track_balance: bool) -> int:
            """Add one level to the window; return new component count.

            The whole level's predecessor edges are unioned in one bulk
            :meth:`UnionFind.unite_edges` call; the component count is
            maintained from the merge count. ``max_comp`` (only read by
            the wide regime's balance check) is recomputed per absorb
            from the window's current roots — component costs only grow,
            so this equals the per-merge running max the per-vertex
            reference maintains.
            """
            nonlocal window_cost, n_comps, max_comp
            member[level_verts] = True
            window.append(level_verts)
            window_cost += float(weights[level_verts].sum())
            n_comps += level_verts.shape[0]
            starts = pred_ptr[level_verts]
            counts = pred_ptr[level_verts + 1] - starts
            src = pred_idx[multi_range(starts, counts)]
            dst = np.repeat(level_verts, counts)
            keep = member[src]
            n_comps -= uf.unite_edges(src[keep], dst[keep])
            if track_balance:
                wv = window[0] if len(window) == 1 else np.concatenate(window)
                roots = uf.find_many(wv)
                # roots are (min-id) vertex ids: bincount them directly —
                # O(n) but sort-free, cheaper than unique+inverse per level
                comp_costs = np.bincount(roots, weights=weights[wv])
                max_comp = float(comp_costs.max())
            return n_comps

        def balanced() -> bool:
            return max_comp <= balance_tolerance * window_cost / r

        first = wavefronts[lb]
        wide = first.shape[0] >= r
        absorb(first, wide)
        ub = lb + 1
        retracted = False
        if wide:
            # wide regime: extend while the window keeps >= r components
            # and stays balanced, under the caps
            while (
                ub < n_levels
                and (ub - lb) < coarsening_factor
                and window_cost < cost_cap
            ):
                nxt = wavefronts[ub]
                comps_before = n_comps
                cost_before = window_cost
                max_before = max_comp
                if absorb(nxt, True) >= r and balanced():
                    ub += 1
                else:
                    # retract the trial level
                    member[nxt] = False
                    window.pop()
                    window_cost = cost_before
                    n_comps = comps_before
                    max_comp = max_before
                    # union-find merges are not undone: the trial level's
                    # unions poison uf, so the final grouping below must
                    # rebuild from scratch.
                    retracted = True
                    break
        else:
            # narrow regime: absorb the run of consecutive narrow levels
            # (max_comp is never read here, so skip the balance tracking)
            while (
                ub < n_levels
                and (ub - lb) < coarsening_factor
                and wavefronts[ub].shape[0] < r
            ):
                absorb(wavefronts[ub], False)
                ub += 1

        verts = np.concatenate(window)
        if retracted:
            roots = window_roots(dag, verts, member)
        else:
            # uf holds exactly the window's internal edges (every level's
            # predecessor edges were unioned on absorb): group its roots
            # directly instead of re-unioning the whole window.
            roots = uf.find_many(verts)
        s_partitions.append(pack_flat(*components_flat(verts, roots, weights), r))
        member[verts] = False
        lb = ub

    return s_partitions, n_levels
