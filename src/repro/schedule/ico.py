"""Iteration Composition and Ordering (ICO) — the paper's core algorithm.

ICO (Algorithm 1) builds the fused partitioning ``V`` for two (or more)
loops without materializing the joint DAG, in three steps:

1. **Vertex partitioning and partition pairing** — the *head* DAG (the
   second loop's DAG when it has edges, else the first's) is partitioned
   with LBC; tail-DAG vertices are then *paired* with head partitions by
   walking the inter-dependence matrix ``F``: a tail vertex whose
   relevant cross/intra dependencies all resolve to one head w-partition
   joins that w-partition (a self-contained pair partition); vertices
   whose dependencies span several w-partitions of one s-partition are
   *uncontained* and are displaced one s-partition earlier (producers) or
   later (consumers), creating a preamble/appendix partition when they
   fall off either end.
2. **Merging and slack vertex assignment** — adjacent s-partitions whose
   cross w-partition dependence clusters don't reduce parallelism are
   merged (removing a barrier — the paper's zero-slack pair merge), then
   *slack vertices* (those whose dependence window spans several
   s-partitions) are pulled out and re-assigned to under-loaded
   w-partitions, deadline-first (``balance_with_slack`` +
   ``assign_even``).
3. **Packing** — within every w-partition, *separated* packing
   (``reuse_ratio < 1``) orders vertices by (loop, iteration) for spatial
   locality inside each kernel, while *interleaved* packing
   (``reuse_ratio >= 1``) emits consumers eagerly right after their
   producers (a topological order of the in-partition subgraph) for
   temporal locality across kernels.

The embedding is *frontier-at-a-time*: producer/consumer maps are flat
CSR arrays (one merged structure per tail loop) and whole wavefronts are
classified and placed with segment reductions instead of per-vertex
Python loops. Batched placements use a contiguous *waterfill* over the
current w-partition loads rather than the per-vertex sticky-bin walk of
the seed, so bin choices for free/displaced vertices may differ from the
per-vertex reference (:mod:`repro.schedule.reference`) while preserving
dependence validity and balance; equivalence is enforced by the tests
through :func:`repro.schedule.schedule.validate_schedule` plus cost
parity, as the per-vertex tie-breaking is not order-preserved.

The output always passes :func:`repro.schedule.schedule.validate_schedule`
— correctness is enforced by construction and double-checked in tests.
"""

from __future__ import annotations

import numpy as np

from ..graph.dag import DAG
from ..graph.interdep import InterDep
from ..obs import current as current_recorder
from ..obs import names
from ..sparse.base import INDEX_DTYPE
from ..utils.arrays import multi_range
from ..utils.intsort import stable_argsort, stable_lexsort, unique
from .lbc import lbc_schedule
from .partition_utils import UnionFind, components_flat, pack_flat
from .schedule import FusedSchedule

__all__ = ["ico_schedule"]

_UNPLACED = -2  # sp sentinel: not yet embedded
_NO_DEP = np.iinfo(np.int32).max  # frontier-reduce default for "no edges"


def ico_schedule(
    dags: list[DAG],
    inter: dict[tuple[int, int], InterDep],
    r: int,
    reuse_ratio: float,
    *,
    initial_cut: int = 1,
    coarsening_factor: int = 400,
    balance_eps_factor: float = 0.001,
    merge: bool = True,
    balance: bool = True,
) -> FusedSchedule:
    """Run ICO over *dags* (program order) and inter-dependencies *inter*.

    Parameters
    ----------
    dags:
        Intra-kernel DAGs in program order (two or more).
    inter:
        ``(producer_loop, consumer_loop) -> InterDep``.
    r:
        Number of requested w-partitions per s-partition (threads).
    reuse_ratio:
        The inspector's reuse metric; selects the packing strategy.
    initial_cut, coarsening_factor:
        Forwarded to LBC for the head partitioning.
    balance_eps_factor:
        The paper's ``eps = |V| * 0.001`` balance tolerance, as a factor
        of total vertex cost.
    merge, balance:
        Ablation switches for step 2's two halves.
    """
    if len(dags) < 2:
        raise ValueError("ICO fuses at least two loops")
    if r < 1:
        raise ValueError("r must be >= 1")
    rec = current_recorder()
    with rec.span("ico", loops=len(dags), r=r) as ico_span:
        builder = _IcoBuilder(dags, inter, r)
        rec.count(names.ICO_VERTICES, builder.n_total)

        # --- step 1: vertex partitioning + partition pairing -----------
        head = 1 if dags[1].has_edges else 0  # Algorithm 1, line 1
        with rec.span("ico.lbc_head", head=head):
            head_sched = lbc_schedule(
                dags[head],
                r,
                initial_cut=initial_cut,
                coarsening_factor=coarsening_factor,
            )
        with rec.span("ico.pairing"):
            builder.install_head(head, head_sched)
            if head == 1:
                builder.embed_backward(0)
            else:
                builder.embed_forward(1)
            for t in range(2, len(dags)):  # Sec. 3.3: one loop at a time
                builder.embed_forward(t)
            builder.finalize_partitions()

        # --- step 2: merging + slack vertex assignment -----------------
        if merge:
            before = builder.n_sparts
            with rec.span("ico.merge") as sp:
                builder.merge_adjacent()
                sp.set(merged=before - builder.n_sparts)
            rec.count(names.ICO_MERGED_SPARTITIONS, before - builder.n_sparts)
        if balance:
            with rec.span("ico.slack_balance"):
                builder.slack_balance(balance_eps_factor)

        # --- step 3: packing -------------------------------------------
        packing = "interleaved" if reuse_ratio >= 1.0 else "separated"
        with rec.span("ico.pack", packing=packing):
            sched = builder.build_schedule(packing)
        ico_span.set(spartitions=sched.n_spartitions, packing=packing)
        rec.count(names.ICO_SPARTITIONS, sched.n_spartitions)
    sched.meta["scheduler"] = "ico"
    sched.meta["head"] = head
    sched.meta["reuse_ratio"] = float(reuse_ratio)
    return sched


def _frontier_reduce(vals, counts, op, default):
    """Per-frontier-vertex reduction of gathered neighbour values.

    ``vals`` holds the concatenated neighbour attributes of a frontier,
    ``counts`` the per-vertex neighbour counts. Empty slots get
    *default*. The reduction runs only at non-empty starts: consecutive
    non-empty starts bracket exactly one vertex's values, whereas
    ``reduceat`` at an empty vertex's start would repeat its neighbour's
    first value there.
    """
    n = counts.shape[0]
    out = np.full(n, default, dtype=INDEX_DTYPE)
    if vals.shape[0] == 0 or n == 0:
        return out
    nonempty = counts > 0
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    out[nonempty] = op.reduceat(vals, starts[nonempty])
    return out


class _IcoBuilder:
    """Mutable partitioning state shared by the ICO steps.

    Vertices are global ids over the fused loops. ``sp``/``wp`` map each
    vertex to its s-/w-partition; ``-2`` marks "not yet placed" and a
    *preamble* uses ``sp == -1`` until :meth:`finalize_partitions`
    renumbers. ``loads[s]`` is the per-w-partition cost vector used for
    the waterfill balance decisions during embedding.
    """

    def __init__(self, dags, inter, r):
        self.dags = dags
        self.inter = inter
        self.r = r
        self.offsets = np.zeros(len(dags) + 1, dtype=INDEX_DTYPE)
        np.cumsum([d.n for d in dags], out=self.offsets[1:])
        self.n_total = int(self.offsets[-1])
        self.weights = np.concatenate([d.weights for d in dags])
        self.sp = np.full(self.n_total, _UNPLACED, dtype=INDEX_DTYPE)
        self.wp = np.full(self.n_total, -1, dtype=INDEX_DTYPE)
        self.loads: list[np.ndarray] = []
        self.preamble: list[int] = []
        self.n_sparts = 0
        # Full global adjacency exists after finalize_partitions (merging
        # and balancing need it); embedding uses per-loop CSR maps only.
        self._g_pred = None
        self._g_succ = None
        self._loops = None

    # ------------------------------------------------------------------
    # Step 1 helpers
    # ------------------------------------------------------------------
    def install_head(self, head: int, head_sched: FusedSchedule) -> None:
        """Adopt the LBC partitioning of the head loop."""
        off = int(self.offsets[head])
        self.n_sparts = head_sched.n_spartitions
        self.loads = []
        for s, wlist in enumerate(head_sched.s_partitions):
            loads = np.zeros(self.r)
            for w, verts in enumerate(wlist):
                g = verts + off
                self.sp[g] = s
                self.wp[g] = w
                loads[w] = float(self.weights[g].sum())
            self.loads.append(loads)

    def _producers_csr(self, t: int) -> tuple[np.ndarray, np.ndarray]:
        """Merged producer map of loop *t* as flat CSR in global ids.

        Row ``i`` concatenates the intra predecessors of iteration ``i``
        and its F-producers from every earlier loop — one structure per
        loop instead of a per-vertex Python closure, so whole wavefronts
        gather their producers with a single ``multi_range`` join.
        """
        dag = self.dags[t]
        pred_ptr, pred_idx = dag.predecessor_arrays()
        parts = [(pred_ptr, pred_idx, int(self.offsets[t]))]
        for e in range(t):
            f = self.inter.get((e, t))
            if f is not None and f.nnz:
                parts.append((f.row_indptr, f.row_indices, int(self.offsets[e])))
        return self._merge_csr(dag.n, parts)

    def _consumers_csr(self, t: int) -> tuple[np.ndarray, np.ndarray]:
        """Merged consumer map of loop *t* (intra succs + F-consumers)."""
        dag = self.dags[t]
        parts = [(dag.indptr, dag.indices, int(self.offsets[t]))]
        for c in range(t + 1, len(self.dags)):
            f = self.inter.get((t, c))
            if f is not None and f.nnz:
                parts.append((f.col_indptr, f.col_indices, int(self.offsets[c])))
        return self._merge_csr(dag.n, parts)

    @staticmethod
    def _merge_csr(n, parts):
        """Row-wise concatenation of CSR structures, offsets applied."""
        total = np.zeros(n, dtype=INDEX_DTYPE)
        for ptr, _, _ in parts:
            total += np.diff(ptr)
        indptr = np.zeros(n + 1, dtype=INDEX_DTYPE)
        np.cumsum(total, out=indptr[1:])
        indices = np.empty(int(indptr[-1]), dtype=INDEX_DTYPE)
        fill = indptr[:-1].copy()
        for ptr, idx, off in parts:
            counts = np.diff(ptr)
            # CSR data is laid out row-contiguously, so the source gather
            # is just the data array itself.
            indices[multi_range(fill, counts)] = idx + off
            fill += counts
        return indptr, indices

    def _append_spartition(self) -> int:
        self.loads.append(np.zeros(self.r))
        self.n_sparts += 1
        return self.n_sparts - 1

    def _assign_stream(self, s: int, gverts: np.ndarray, level: float | None = None) -> None:
        """Place an id-ordered batch into s-partition *s* by waterfill.

        Bins are filled lowest-load first up to a common water *level*
        (computed from the batch weight when not given), and the batch is
        cut into contiguous runs — one per bin — so consecutive
        iterations stay on one thread (the locality the per-vertex
        sticky-bin walk bought, without its sequential load updates).
        """
        if gverts.shape[0] == 0:
            return
        loads = self.loads[s]
        w = self.weights[gverts]
        total = float(w.sum())
        r = loads.shape[0]
        order = np.argsort(loads, kind="stable")
        lo_sorted = loads[order]
        csum = np.cumsum(lo_sorted)
        if level is None:
            # water used when the level reaches bin j's load:
            # f(lo_sorted[j]) = j * lo_sorted[j] - sum(lo_sorted[:j])
            fill_at = np.arange(r) * lo_sorted - np.concatenate([[0.0], csum[:-1]])
            m = max(1, min(int(np.searchsorted(fill_at, total, side="right")), r))
            level = (total + csum[m - 1]) / m
        caps = np.maximum(level - lo_sorted, 0.0)
        cuts = np.searchsorted(np.cumsum(w), np.cumsum(caps), side="right")
        cuts[-1] = gverts.shape[0]  # rounding overflow goes to the last bin
        bounds = np.concatenate([[0], cuts])
        for k in range(r):
            a, b = int(bounds[k]), int(bounds[k + 1])
            if b > a:
                run = gverts[a:b]
                bin_ = int(order[k])
                self.sp[run] = s
                self.wp[run] = bin_
                loads[bin_] += float(w[a:b].sum())

    def _bulk_place(self, gverts, s_arr, w_arr) -> None:
        """Record pre-decided (s, w) placements and update loads."""
        self.sp[gverts] = s_arr
        self.wp[gverts] = w_arr
        for s in unique(s_arr).tolist():
            m = s_arr == s
            np.add.at(self.loads[s], w_arr[m], self.weights[gverts[m]])

    def embed_forward(self, t: int) -> None:
        """Pair loop *t* (a consumer loop) with the existing partitioning.

        Wavefront-at-a-time: every producer of a frontier vertex is
        already placed (intra predecessors live in earlier wavefronts,
        F-producers in earlier loops), so a whole wavefront is classified
        with segment reductions — paired with its latest producer when
        that producer's w-partition is unique, displaced one s-partition
        later otherwise (the uncontained case).
        """
        indptr, indices = self._producers_csr(t)
        off = int(self.offsets[t])
        for lv in self.dags[t].wavefronts():
            gv = lv + off
            starts = indptr[lv]
            counts = indptr[lv + 1] - starts
            prods = indices[multi_range(starts, counts)]
            psp = self.sp[prods]
            s_max = _frontier_reduce(psp, counts, np.maximum, -_NO_DEP)
            # free vertices (no producers) and vertices whose producers
            # all sit in the preamble both start from s-partition 0
            streamed = s_max < 0
            live = ~streamed
            pwp = self.wp[prods]
            at_max = psp == np.repeat(s_max, counts)
            wmax = _frontier_reduce(
                np.where(at_max, pwp, -1), counts, np.maximum, -1
            )
            wmin = _frontier_reduce(
                np.where(at_max, pwp, _NO_DEP), counts, np.minimum, _NO_DEP
            )
            paired = live & (wmax == wmin)
            if paired.any():
                self._bulk_place(gv[paired], s_max[paired], wmax[paired])
            self._assign_stream(0, gv[streamed])
            displaced = live & ~paired
            if displaced.any():
                targets = s_max[displaced] + 1
                dv = gv[displaced]
                while self.n_sparts <= int(targets.max()):
                    self._append_spartition()
                for s_t in unique(targets).tolist():
                    self._assign_stream(int(s_t), dv[targets == s_t])

    def embed_backward(self, t: int) -> None:
        """Pair loop *t* (a producer loop) with the existing partitioning.

        Height-frontier-at-a-time (height 0 = no intra successors, so
        every consumer of a frontier vertex is already placed); each
        vertex lands with its earliest consumer when unique, one
        s-partition earlier otherwise; vertices forced before s-partition
        0 go to the preamble (``sp == -1``).
        """
        indptr, indices = self._consumers_csr(t)
        off = int(self.offsets[t])
        heights = self.dags[t].heights()
        # stable: each height's vertices stay in ascending order
        hsort = stable_argsort(heights)
        bounds = np.nonzero(np.diff(heights[hsort]))[0] + 1
        last = self.n_sparts - 1
        for lv in np.split(hsort, bounds):
            gv = lv + off
            starts = indptr[lv]
            counts = indptr[lv + 1] - starts
            cons = indices[multi_range(starts, counts)]
            csp = self.sp[cons]
            s_min = _frontier_reduce(csp, counts, np.minimum, _NO_DEP)
            free = s_min == _NO_DEP
            # earliest consumer already in the preamble (or, for >2 loop
            # programs, not yet embedded): join the preamble — it runs
            # before every numbered s-partition, so the dependence holds
            pre = (~free) & (s_min < 0)
            live = ~(free | pre)
            cwp = self.wp[cons]
            at_min = csp == np.repeat(s_min, counts)
            wmax = _frontier_reduce(
                np.where(at_min, cwp, -1), counts, np.maximum, -1
            )
            wmin = _frontier_reduce(
                np.where(at_min, cwp, _NO_DEP), counts, np.minimum, _NO_DEP
            )
            paired = live & (wmax == wmin)
            if paired.any():
                self._bulk_place(gv[paired], s_min[paired], wmax[paired])
            self._assign_stream(last, gv[free])
            displaced = live & ~paired
            if displaced.any():
                targets = s_min[displaced] - 1
                dv = gv[displaced]
                to_pre = targets < 0
                if to_pre.any():
                    self.sp[dv[to_pre]] = -1
                    self.preamble.extend(dv[to_pre].tolist())
                for s_t in unique(targets[~to_pre]).tolist():
                    self._assign_stream(int(s_t), dv[~to_pre][targets[~to_pre] == s_t])
            if pre.any():
                self.sp[gv[pre]] = -1
                self.preamble.extend(gv[pre].tolist())

    def finalize_partitions(self) -> None:
        """Materialize the preamble (if any) and the global adjacency."""
        current_recorder().count(names.ICO_PREAMBLE_VERTICES, len(self.preamble))
        self._build_global_adjacency()
        if self.preamble:
            # Group preamble vertices into independent w-partitions via
            # connected components of their induced subgraph (all belong
            # to producer loops; every dependence among them stays inside
            # one component, so component grouping is dependence-safe).
            verts = np.asarray(sorted(self.preamble), dtype=INDEX_DTYPE)
            packed = pack_flat(*self._global_components(verts), self.r)
            self.sp[self.sp >= 0] += 1
            self.n_sparts += 1
            loads = np.zeros(self.r)
            for w, grp in enumerate(packed):
                self.sp[grp] = 0
                self.wp[grp] = w
                loads[w] = float(self.weights[grp].sum())
            self.loads.insert(0, loads)
            self.preamble = []

    def _build_global_adjacency(self) -> None:
        """Union of all intra-DAG and inter-loop edges in global ids."""
        srcs, dsts = [], []
        for k, d in enumerate(self.dags):
            if d.n_edges:
                e = d.edge_list() + int(self.offsets[k])
                srcs.append(e[:, 0])
                dsts.append(e[:, 1])
        for (a, b), f in self.inter.items():
            if f.nnz:
                e = f.edge_list()
                srcs.append(e[:, 0] + int(self.offsets[a]))
                dsts.append(e[:, 1] + int(self.offsets[b]))
        if srcs:
            src = np.concatenate(srcs)
            dst = np.concatenate(dsts)
        else:
            src = dst = np.empty(0, dtype=INDEX_DTYPE)
        self._g_edges = (src, dst)
        n = self.n_total
        # src is a few ascending runs (each loop's edge list is
        # source-major), which timsort merges in linear time (78 against
        # 283 us per perfbench `cold` pass); dst is not.
        order = np.argsort(src, kind="stable")
        sptr = np.zeros(n + 1, dtype=INDEX_DTYPE)
        np.cumsum(np.bincount(src, minlength=n), out=sptr[1:])
        self._g_succ = (sptr, dst[order])
        order = stable_argsort(dst)
        pptr = np.zeros(n + 1, dtype=INDEX_DTYPE)
        np.cumsum(np.bincount(dst, minlength=n), out=pptr[1:])
        self._g_pred = (pptr, src[order])

    def _global_components(self, verts: np.ndarray):
        """Weakly-connected components among *verts* over all edges, as
        :func:`~repro.schedule.partition_utils.components_flat` arrays."""
        member = np.zeros(self.n_total, dtype=bool)
        member[verts] = True
        src, dst = self._g_edges
        keep = member[src] & member[dst]
        uf = UnionFind(self.n_total)
        uf.unite_edges(src[keep], dst[keep])
        roots = uf.find_many(verts)
        return components_flat(verts, roots, self.weights)

    # ------------------------------------------------------------------
    # Step 2: merging + slack balancing
    # ------------------------------------------------------------------
    def merge_adjacent(self) -> None:
        """Merge adjacent s-partitions when no parallelism is lost.

        Two consecutive s-partitions merge by clustering their
        w-partitions through the cross-dependence edges (a union-find):
        if the resulting independent clusters are at least as many as the
        wider of the two inputs (and at most ``r``), the barrier between
        them is free to remove — the paper's zero-slack pair merge.
        """
        changed = True
        while changed:
            changed = False
            s = 0
            while s + 1 < self.n_sparts:
                if self._try_merge(s):
                    changed = True
                else:
                    s += 1

    def _try_merge(self, s: int) -> bool:
        mask_a = self.sp == s
        mask_b = self.sp == s + 1
        if not mask_a.any() or not mask_b.any():
            self._drop_empty(s if not mask_a.any() else s + 1)
            return True
        used_a = unique(self.wp[mask_a])
        used_b = unique(self.wp[mask_b])
        width_a, width_b = used_a.shape[0], used_b.shape[0]
        # Cluster the w-partitions of both levels through the cross edges
        # (node ids: 0..r-1 -> level s, r..2r-1 -> level s+1), vectorized:
        # gather the unique (w_src, w_dst) pairs among edges s -> s+1.
        esrc, edst = self._g_edges
        cross = mask_a[esrc] & mask_b[edst]
        uf = UnionFind(2 * self.r)
        if cross.any():
            pair_ids = self.wp[esrc[cross]] * (2 * self.r) + (
                self.r + self.wp[edst[cross]]
            )
            for pid in unique(pair_ids).tolist():
                uf.union(pid // (2 * self.r), pid % (2 * self.r))
        used = set(used_a.tolist())
        used.update((self.r + used_b).tolist())
        roots = {uf.find(node) for node in used}
        n_clusters = len(roots)
        if n_clusters > self.r or n_clusters < max(width_a, width_b):
            return False
        # perform the merge: relabel w by cluster (vectorized lookup)
        cluster_of = {node: i for i, node in enumerate(sorted(roots))}
        lut = np.zeros(2 * self.r, dtype=INDEX_DTYPE)
        for node in used:
            lut[node] = cluster_of[uf.find(node)]
        self.wp[mask_a] = lut[self.wp[mask_a]]
        self.wp[mask_b] = lut[self.r + self.wp[mask_b]]
        self.sp[mask_b] = s
        self._recompute_loads_at(s)
        self._drop_empty(s + 1)
        return True

    def _drop_empty(self, s: int) -> None:
        self.sp[self.sp > s] -= 1
        del self.loads[s]
        self.n_sparts -= 1

    def _recompute_loads_at(self, s: int) -> None:
        verts = np.nonzero(self.sp == s)[0]
        self.loads[s] = np.bincount(
            self.wp[verts], weights=self.weights[verts], minlength=self.r
        )

    def slack_balance(self, eps_factor: float) -> None:
        """Rebalance w-partitions with slack vertices (Algorithm 1, 12-16).

        A vertex's *window* is the s-partition range its dependencies
        allow: ``lo = 1 + max(sp of preds)`` and ``hi = -1 + min(sp of
        succs)`` (unbounded ends clamp to the schedule). Vertices with a
        window wider than their current slot are pulled into a pool (an
        independent set, so windows stay valid as the pool drains) and
        re-placed deadline-first: at every deadline s-partition the due
        vertices waterfill in, and earlier-deadline capacity under the
        current peak is valley-filled with later-deadline vertices.
        """
        pptr, pidx = self._g_pred
        sptr, sidx = self._g_succ
        b = self.n_sparts
        if b == 0:
            return
        eps = eps_factor * float(self.weights.sum())
        # Strict dependence window: v may occupy ANY w-partition of an
        # s-partition in [lo, hi] (all preds strictly earlier, all succs
        # strictly later). A vertex *paired* into its producer's
        # s-partition currently sits at lo-1; it is still movable — into
        # its strict window — which is exactly what makes pairing safe to
        # undo for balance.
        lo = _segment_reduce(self.sp, pptr, pidx, np.maximum, 0, shift=1)
        hi = _segment_reduce(self.sp, sptr, sidx, np.minimum, b - 1, shift=-1)
        # Pool: vertices with a non-empty strict window, independent of
        # other pooled vertices (so windows stay valid as the pool
        # drains). Independence is enforced vectorized and conservatively
        # — both endpoints of any candidate-candidate edge are dropped.
        cand = (hi >= lo) & ~((hi == lo) & (self.sp == lo))
        src, dst = self._g_edges
        contested = cand[src] & cand[dst]
        cand[src[contested]] = False
        cand[dst[contested]] = False
        pool = np.nonzero(cand)[0]
        current_recorder().count(names.ICO_SLACK_POOLED, pool.shape[0])
        if pool.shape[0] == 0:
            return
        for s in unique(self.sp[pool]).tolist():
            m = self.sp[pool] == s
            np.add.at(self.loads[s], self.wp[pool[m]], -self.weights[pool[m]])
        self.sp[pool] = -3
        # Deadline-first (hi, id) order keeps consecutive iterations
        # adjacent inside each placement batch (spatial locality).
        order = np.lexsort((pool, hi[pool]))
        pool = pool[order]
        plo = lo[pool]
        phi = hi[pool]
        placed = np.zeros(pool.shape[0], dtype=bool)
        for s_e in unique(phi).tolist():
            elig = ~placed & (plo <= s_e) & (phi >= s_e)
            must = elig & (phi == s_e)
            if must.any():
                self._assign_stream(int(s_e), pool[must])
                placed |= must
            opt = elig & ~must
            if not opt.any():
                continue
            loads = self.loads[s_e]
            level = max(float(loads.max()), eps)
            capacity = float(np.maximum(level - loads, 0.0).sum())
            if capacity <= 0.0:
                continue
            idxs = np.nonzero(opt)[0]
            k = int(
                np.searchsorted(
                    np.cumsum(self.weights[pool[idxs]]), capacity, side="right"
                )
            )
            if k:
                sel = idxs[:k]
                self._assign_stream(int(s_e), pool[sel], level=level)
                placed[sel] = True
        # anything left (shouldn't be: every vertex is due at its hi)
        for v in pool[~placed].tolist():
            s = min(max(int(lo[v]), 0), b - 1)
            w = int(np.argmin(self.loads[s]))
            self.sp[v] = s
            self.wp[v] = w
            self.loads[s][w] += float(self.weights[v])

    # ------------------------------------------------------------------
    # Step 3: packing + schedule construction
    # ------------------------------------------------------------------
    def build_schedule(self, packing: str) -> FusedSchedule:
        verts = np.nonzero(self.sp >= 0)[0]
        loop_counts = tuple(d.n for d in self.dags)
        if verts.shape[0] == 0:
            return FusedSchedule(loop_counts, [], packing=packing)
        sp = self.sp[verts]
        wp = self.wp[verts]
        # verts ascend, so the stable sorts below keep them as the last key
        if packing == "interleaved":
            code = sp * (self.r + 1) + wp
            full_code = np.full(self.n_total, -1, dtype=INDEX_DTYPE)
            full_code[verts] = code
            anchor = self._interleave_keys(full_code)
            loop_of = self._loop_of()
            order = stable_lexsort((loop_of[verts], anchor[verts], wp, sp))
        else:
            order = stable_lexsort((wp, sp))
        vs = verts[order]
        sps = sp[order]
        wps = wp[order]
        change = np.nonzero((np.diff(sps) != 0) | (np.diff(wps) != 0))[0] + 1
        starts = np.concatenate([[0], change])
        ends = np.concatenate([change, [vs.shape[0]]])
        s_partitions: list[list[np.ndarray]] = []
        prev_s = None
        for a, b in zip(starts.tolist(), ends.tolist()):
            grp = vs[a:b].astype(INDEX_DTYPE, copy=False)
            s = int(sps[a])
            if s != prev_s:
                s_partitions.append([grp])
                prev_s = s
            else:
                s_partitions[-1].append(grp)
        return FusedSchedule(loop_counts, s_partitions, packing=packing)

    def repack_partitions(
        self, s_partitions: list[list[np.ndarray]], packing: str
    ) -> list[list[np.ndarray]]:
        """Re-order the vertices inside every given w-partition.

        Separated packing sorts ascending (loop, iteration); interleaved
        packing keys ALL partitions in one :meth:`_interleave_keys`
        sweep — the per-partition entry point :meth:`_interleave` would
        pay the full-graph cost once per w-partition instead.
        """
        if packing != "interleaved":
            return [[np.sort(v) for v in wlist] for wlist in s_partitions]
        code = np.full(self.n_total, -1, dtype=INDEX_DTYPE)
        cid = 0
        for wlist in s_partitions:
            for verts in wlist:
                code[verts] = cid
                cid += 1
        anchor = self._interleave_keys(code)
        loop_of = self._loop_of()
        return [
            [v[stable_lexsort((v, loop_of[v], anchor[v]))] for v in wlist]
            for wlist in s_partitions
        ]

    def _loop_of(self) -> np.ndarray:
        """Loop index of every global vertex id."""
        if self._loops is None:
            self._loops = (
                np.searchsorted(
                    self.offsets, np.arange(self.n_total), side="right"
                ).astype(INDEX_DTYPE)
                - 1
            )
        return self._loops

    def _interleave_keys(self, code: np.ndarray) -> np.ndarray:
        """Anchored interleave key of every vertex within its partition.

        ``code`` assigns each vertex a partition id (< 0 = ignore).
        Vertices of the first loop (the "backbone") get their own
        ``level * n + id`` key; every later-loop vertex inherits the
        maximum anchor among its in-partition producers, so sorting a
        partition by ``(anchor, loop, id)`` emits each consumer right
        after the producer run that enables it — the vectorized analogue
        of the per-partition DFS walk's eager interleaving (e.g. a SpMV
        iteration lands directly after the TRSV iteration feeding it).

        The order is dependence-safe: for any in-partition edge
        ``u -> v``, ``anchor(v) >= anchor(u)`` by construction, ties
        fall back to the loop index (inter-loop edges always point to
        later loops) and then the vertex id (intra-loop edges of
        naturally ordered DAGs always point to larger ids). All
        partitions are keyed simultaneously with one Kahn frontier sweep
        over the same-partition edges; a frontier vertex's round equals
        its local level, so backbone keys need no separate levelling
        pass.
        """
        n = self.n_total
        src, dst = self._g_edges
        same = (code[src] >= 0) & (code[src] == code[dst])
        es, ed = src[same], dst[same]
        indeg = np.bincount(ed, minlength=n).astype(INDEX_DTYPE)
        # es keeps the source-major runs of the global edge list
        order = np.argsort(es, kind="stable")
        sptr = np.zeros(n + 1, dtype=INDEX_DTYPE)
        np.cumsum(np.bincount(es, minlength=n), out=sptr[1:])
        sidx = ed[order]
        loop_of = self._loop_of()
        anchor = np.zeros(n, dtype=np.int64)
        prop = np.full(n, -1, dtype=np.int64)  # max producer anchor seen
        frontier = np.nonzero((code >= 0) & (indeg == 0))[0]
        depth = 0
        while frontier.shape[0]:
            own = np.int64(depth) * np.int64(n) + frontier.astype(np.int64)
            inherited = prop[frontier]
            a = np.where(
                (loop_of[frontier] == 0) | (inherited < 0), own, inherited
            )
            anchor[frontier] = a
            starts = sptr[frontier]
            counts = sptr[frontier + 1] - starts
            nbr = sidx[multi_range(starts, counts)]
            if nbr.shape[0] == 0:
                break
            np.maximum.at(prop, nbr, np.repeat(a, counts))
            np.subtract.at(indeg, nbr, 1)
            cand = unique(nbr)
            frontier = cand[indeg[cand] == 0]
            depth += 1
        return anchor

    def _interleave(self, verts: np.ndarray) -> np.ndarray:
        """Interleaved order of one vertex set (see :meth:`_interleave_keys`)."""
        code = np.full(self.n_total, -1, dtype=INDEX_DTYPE)
        code[verts] = 0
        anchor = self._interleave_keys(code)
        loop_of = self._loop_of()
        return verts[stable_lexsort((verts, loop_of[verts], anchor[verts]))].astype(
            INDEX_DTYPE, copy=False
        )


def _segment_reduce(values, indptr, indices, op, default, *, shift):
    """Per-segment reduction ``op`` of ``values[indices]`` with *default*
    for empty segments, plus a constant *shift* on non-empty results.

    The vectorized core of the slack-window computation: ``lo`` is the
    segment-max of predecessor s-partitions plus one, ``hi`` the
    segment-min of successor s-partitions minus one.
    """
    n = indptr.shape[0] - 1
    out = np.full(n, default, dtype=INDEX_DTYPE)
    vals = values[indices]
    if vals.shape[0] == 0:
        return out
    starts = indptr[:-1]
    nonempty = np.diff(indptr) > 0
    # Reduce only at non-empty segment starts: reduceat at an empty
    # segment's start would repeat the next segment's first value, and
    # clipped starts for trailing empty segments would split the last
    # non-empty segment's range.
    out[nonempty] = op.reduceat(vals, starts[nonempty]) + shift
    return out
