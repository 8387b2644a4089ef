"""The fused schedule type and its validity checker.

A :class:`FusedSchedule` is the output of every scheduler in this library
(ICO, LBC, DAGP, wavefront, and the unfused baselines): an ordered list
of **s-partitions** executed sequentially with a barrier between them;
each s-partition holds up to ``r`` independent **w-partitions** executed
in parallel; each w-partition is an *ordered* list of vertices executed
sequentially by one thread.

Vertices live in a *global id space* covering all fused loops: loop
``k``'s iteration ``i`` has id ``offsets[k] + i`` (the joint-DAG
numbering of :mod:`repro.graph.joint`). A schedule over a single loop is
just the special case of one loop.

:func:`validate_schedule` is the single correctness oracle used by every
test: it checks the *completeness* (each iteration exactly once) and the
*dependence rule* — for every edge ``u -> v`` (intra-DAG or inter-kernel
via ``F``), either ``spart(u) < spart(v)``, or both run in the same
w-partition with ``u`` ordered before ``v``.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from ..graph.dag import DAG
from ..graph.interdep import InterDep
from ..sparse.base import INDEX_DTYPE

__all__ = [
    "FusedSchedule",
    "ScheduleError",
    "validate_schedule",
    "happens_before",
    "dependence_edge_sets",
    "dependence_edges",
    "check_loop_counts",
    "concatenate_schedules",
    "PLAN_MEMO_KEY",
    "PLAN_STORE_KEY",
    "RUNTIME_META_KEYS",
]

#: ``meta`` key of the compiled-plan memo (:func:`repro.runtime.plan.plan_for`).
PLAN_MEMO_KEY = "_execution_plans"
#: ``meta`` key of the :class:`~repro.schedule.cache.ScheduleCache` that
#: :func:`repro.fusion.fuse` bound for storing this schedule's plans.
PLAN_STORE_KEY = "_plan_store"
#: ``meta`` key of the dependence-edge memo (:func:`dependence_edges`).
EDGES_MEMO_KEY = "_dependence_edges"
#: ``meta`` keys that belong to one in-process schedule object: none is
#: serialized, and :meth:`FusedSchedule.copy` drops them all.
RUNTIME_META_KEYS = (PLAN_MEMO_KEY, PLAN_STORE_KEY, EDGES_MEMO_KEY)


class ScheduleError(AssertionError):
    """Raised when a schedule violates completeness or a dependence."""


@dataclass
class FusedSchedule:
    """Schedule of one or more fused loops (see module docstring).

    Attributes
    ----------
    loop_counts:
        Iteration count of every fused loop, in program order.
    s_partitions:
        ``s_partitions[s][w]`` is the ordered ``int64`` vertex array of
        w-partition ``w`` inside s-partition ``s``.
    packing:
        ``"separated"``, ``"interleaved"`` or ``"none"`` — which packing
        produced the within-w-partition order (informational).
    fusion:
        False for unfused baselines (each loop scheduled in its own span
        of s-partitions).
    """

    loop_counts: tuple[int, ...]
    s_partitions: list[list[np.ndarray]]
    packing: str = "none"
    fusion: bool = True
    meta: dict = field(default_factory=dict)

    # ------------------------------------------------------------------
    @property
    def offsets(self) -> np.ndarray:
        """Global-id offset of each loop (prefix sums of loop_counts)."""
        out = np.zeros(len(self.loop_counts) + 1, dtype=INDEX_DTYPE)
        np.cumsum(np.asarray(self.loop_counts, dtype=INDEX_DTYPE), out=out[1:])
        return out

    @property
    def n_vertices(self) -> int:
        """Total iterations across all loops."""
        return int(sum(self.loop_counts))

    @property
    def n_spartitions(self) -> int:
        """Number of s-partitions (sequential phases)."""
        return len(self.s_partitions)

    @property
    def n_barriers(self) -> int:
        """Synchronizations in the executor: one per s-partition boundary."""
        return max(0, len(self.s_partitions) - 1)

    def widths(self) -> list[int]:
        """Number of w-partitions per s-partition."""
        return [len(s) for s in self.s_partitions]

    def loop_of(self) -> np.ndarray:
        """Loop index of every global vertex id, as one array."""
        return np.repeat(
            np.arange(len(self.loop_counts), dtype=INDEX_DTYPE),
            np.asarray(self.loop_counts, dtype=INDEX_DTYPE),
        )

    def vertex_loop(self, v: int) -> int:
        """Loop index owning global vertex *v*."""
        off = self.offsets
        return int(np.searchsorted(off, v, side="right") - 1)

    def split_vertex(self, v: int) -> tuple[int, int]:
        """Global vertex id -> ``(loop_index, iteration)``."""
        k = self.vertex_loop(v)
        return k, int(v - self.offsets[k])

    def assignment(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-vertex ``(spart, wpart, position)`` arrays.

        Unscheduled vertices (a completeness error) keep ``-1``.
        """
        sp, wp, pos, _ = self._assign()
        return sp, wp, pos

    def _assign(self):
        """:meth:`assignment` plus every scheduled vertex in schedule
        order, all from one concatenate and a few repeats."""
        n = self.n_vertices
        sp = np.full(n, -1, dtype=INDEX_DTYPE)
        wp = np.full(n, -1, dtype=INDEX_DTYPE)
        pos = np.full(n, -1, dtype=INDEX_DTYPE)
        parts = [v for wlist in self.s_partitions for v in wlist]
        if not parts:
            return sp, wp, pos, np.empty(0, dtype=INDEX_DTYPE)
        verts = np.concatenate(parts)
        sizes = np.array([v.shape[0] for v in parts], dtype=INDEX_DTYPE)
        widths = np.array(self.widths(), dtype=INDEX_DTYPE)
        # global w-partition index -> its s-partition and its index there
        w_spart = np.repeat(np.arange(widths.shape[0], dtype=INDEX_DTYPE), widths)
        w_local = np.arange(sizes.shape[0], dtype=INDEX_DTYPE) - np.repeat(
            np.cumsum(widths) - widths, widths
        )
        starts = np.cumsum(sizes) - sizes
        sp[verts] = np.repeat(w_spart, sizes)
        wp[verts] = np.repeat(w_local, sizes)
        pos[verts] = np.arange(verts.shape[0], dtype=INDEX_DTYPE) - np.repeat(
            starts, sizes
        )
        return sp, wp, pos, verts

    def partition_costs(self, weights: np.ndarray) -> list[np.ndarray]:
        """Total vertex weight of each w-partition, grouped by s-partition."""
        return [
            np.array([float(weights[w].sum()) for w in wlist])
            for wlist in self.s_partitions
        ]

    def iter_all(self):
        """Yield ``(s, w, vertex_array)`` triples."""
        for s, wlist in enumerate(self.s_partitions):
            for w, verts in enumerate(wlist):
                yield s, w, verts

    def copy(self) -> "FusedSchedule":
        """Deep copy (vertex arrays copied).

        Compiled execution plans (:mod:`repro.runtime.plan`) memoized in
        ``meta`` are *not* carried over: a copy exists to be modified,
        and a stale plan compiled against the original vertex order
        would silently execute the wrong schedule. Nor is the plan store
        ``fuse`` bound (:data:`RUNTIME_META_KEYS`), so a copy compiles
        its plans afresh.
        """
        meta = {
            k: v for k, v in self.meta.items() if k not in RUNTIME_META_KEYS
        }
        return FusedSchedule(
            self.loop_counts,
            [[v.copy() for v in wlist] for wlist in self.s_partitions],
            packing=self.packing,
            fusion=self.fusion,
            meta=meta,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FusedSchedule(loops={self.loop_counts}, "
            f"s={self.n_spartitions}, widths={self.widths()[:8]}"
            f"{'...' if self.n_spartitions > 8 else ''})"
        )


def validate_schedule(
    schedule: FusedSchedule,
    dags: list[DAG],
    inter: dict[tuple[int, int], InterDep] | None = None,
) -> None:
    """Raise :class:`ScheduleError` unless *schedule* is valid.

    Parameters
    ----------
    schedule:
        The schedule under test.
    dags:
        One intra-DAG per loop, in program order.
    inter:
        ``(producer_loop, consumer_loop) -> InterDep`` cross-loop
        dependencies (the ``F`` matrices). May be ``None`` for a single
        loop.
    """
    if len(dags) != len(schedule.loop_counts):
        raise ScheduleError(
            f"{len(dags)} DAGs for {len(schedule.loop_counts)} loops"
        )
    for k, d in enumerate(dags):
        if d.n != schedule.loop_counts[k]:
            raise ScheduleError(
                f"loop {k}: DAG has {d.n} vertices, schedule expects "
                f"{schedule.loop_counts[k]}"
            )
    off = schedule.offsets
    sp, wp, pos, verts = schedule._assign()
    # Completeness: every vertex scheduled exactly once.
    if np.any(sp < 0):
        missing = np.nonzero(sp < 0)[0]
        raise ScheduleError(f"{missing.shape[0]} unscheduled vertices, e.g. {missing[:5]}")
    n = schedule.n_vertices
    if verts.shape[0] != n:  # all n covered, so some vertex repeats
        # negative ids index from the end, as in the assignment
        counts = np.bincount(verts % n, minlength=n)
        dup = np.nonzero(counts != 1)[0]
        raise ScheduleError(f"vertices scheduled != once: {dup[:5]} (counts {counts[dup[:5]]})")

    # Dependence rule: one check over every intra and F edge, in the
    # order of their labels, so the first violation is reported.
    labels, ends, src, dst = dependence_edges(schedule, dags, inter or {})
    bad = np.flatnonzero(~happens_before(sp, wp, pos, src, dst))
    if bad.size:
        i = int(bad[0])
        label = labels[bisect_right(ends, i)]
        u, v = src[i], dst[i]
        raise ScheduleError(
            f"{label} dependence violated: {u} -> {v} "
            f"(s={sp[u]},w={wp[u]},p={pos[u]}) !< "
            f"(s={sp[v]},w={wp[v]},p={pos[v]})"
        )


def dependence_edge_sets(
    dags: list[DAG],
    inter: dict[tuple[int, int], InterDep],
    offsets: np.ndarray,
) -> list[tuple[str, np.ndarray, np.ndarray]]:
    """``(label, src, dst)`` of every non-empty dependence edge set, as
    global vertex ids under *offsets*: each loop's intra-DAG edges, then
    each ``F``'s producer -> consumer edges, in *inter*'s order."""
    sets = []
    for k, d in enumerate(dags):
        if d.n_edges:
            src = np.repeat(np.arange(offsets[k], offsets[k + 1]), np.diff(d.indptr))
            sets.append((f"intra loop {k}", src, d.indices + offsets[k]))
    for (a, b), f in inter.items():
        if f.nnz:  # F[i, j]: producer j of loop a, consumer i of loop b
            dst = np.repeat(np.arange(offsets[b], offsets[b + 1]), np.diff(f.row_indptr))
            sets.append((f"inter {a}->{b}", f.row_indices + offsets[a], dst))
    return sets


def dependence_edges(
    schedule: FusedSchedule,
    dags: list[DAG],
    inter: dict[tuple[int, int], InterDep],
) -> tuple[tuple[str, ...], tuple[int, ...], np.ndarray, np.ndarray]:
    """Every edge of :func:`dependence_edge_sets` in one ``(src, dst)``
    pair of arrays, as ``(labels, ends, src, dst)``: set ``labels[i]``
    ends (exclusive) at ``ends[i]``, both tuples.

    Memoized on ``schedule.meta``, keyed by the loop counts and the DAG
    and ``F`` objects themselves (whose structure is immutable), so
    :func:`validate_schedule` and the plan compiler or plan-store check
    of one operation build the arrays once. The memo keeps those objects
    alive, so their ids cannot be recycled; :meth:`FusedSchedule.copy`
    drops it. The arrays are read-only.
    """
    memo = schedule.meta.setdefault(EDGES_MEMO_KEY, {})
    key = (tuple(schedule.loop_counts), tuple(dags), tuple(inter.items()))
    edges = memo.get(key)
    if edges is None:
        sets = dependence_edge_sets(dags, inter, schedule.offsets)
        empty = np.empty(0, dtype=np.int64)
        src = np.concatenate([empty, *(u for _, u, _ in sets)])
        dst = np.concatenate([empty, *(v for _, _, v in sets)])
        src.setflags(write=False)
        dst.setflags(write=False)
        edges = memo[key] = (
            tuple(label for label, _, _ in sets),
            tuple(accumulate(u.shape[0] for _, u, _ in sets)),
            src,
            dst,
        )
    return edges


def happens_before(
    sp: np.ndarray,
    wp: np.ndarray,
    pos: np.ndarray,
    src: np.ndarray,
    dst: np.ndarray,
) -> np.ndarray:
    """Mask of the edges ``src -> dst`` that per-vertex ``(s, w, pos)``
    coordinates order: ``s(u) < s(v)``, or the same w-partition of the
    same s-partition with ``pos(u) < pos(v)``.

    The one dependence rule of :func:`validate_schedule`, the plan
    compiler's merge precondition and the dynamic sanitizer (which
    passes executor dispatch indices as *pos*).
    """
    su, sv = sp[src], sp[dst]
    return (su < sv) | ((su == sv) & (wp[src] == wp[dst]) & (pos[src] < pos[dst]))


def check_loop_counts(kernels, loop_counts, expects: str = "schedule") -> None:
    """Raise ``ValueError`` unless *kernels* hold one kernel per loop of
    *loop_counts*, each with that loop's trip count.

    *expects* names what the counts belong to (a schedule or a plan) in
    the message.
    """
    if len(kernels) != len(loop_counts):
        raise ValueError(f"{len(kernels)} kernels for {len(loop_counts)} loops")
    for k, (kern, count) in enumerate(zip(kernels, loop_counts)):
        if kern.n_iterations != count:
            raise ValueError(
                f"loop {k}: kernel has {kern.n_iterations} iterations, "
                f"{expects} expects {count}"
            )


def concatenate_schedules(parts: list[FusedSchedule]) -> FusedSchedule:
    """Run several single-loop schedules back to back (unfused execution).

    Loop ``k`` of the result is loop 0 of ``parts[k]``; its s-partitions
    are appended after all of loop ``k-1``'s, which trivially satisfies
    every cross-loop dependence — exactly what unfused ParSy/MKL do.
    """
    loop_counts = []
    s_partitions: list[list[np.ndarray]] = []
    offset = 0
    for p in parts:
        if len(p.loop_counts) != 1:
            raise ValueError("concatenate_schedules expects single-loop parts")
        loop_counts.append(p.loop_counts[0])
        for wlist in p.s_partitions:
            s_partitions.append([v + offset for v in wlist])
        offset += p.loop_counts[0]
    return FusedSchedule(
        tuple(loop_counts), s_partitions, packing="none", fusion=False
    )
