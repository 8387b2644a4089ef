"""Compiled execution plans: level-batched vectorized schedule execution.

Dependence-carrying kernels — SpTRSV, SpIC0, SpILU0, the very loops the
paper fuses — cannot run a whole loop as one vectorized call, and
per-iteration Python (:func:`repro.runtime.executor.execute_schedule`)
pays interpreter cost per iteration. This module compiles a
:class:`~repro.schedule.schedule.FusedSchedule` plus its kernel list
*once* into a flat, array-backed :class:`ExecutionPlan`:

* Within every s-partition, the w-partitions are concatenated and the
  iterations regrouped by loop (ascending program order); each
  dependence-carrying group is split into **intra-DAG level sets** —
  antichains whose members are mutually independent and may therefore
  execute as one vectorized
  :meth:`~repro.kernels.base.Kernel.run_level_batch` call. One stable
  ``lexsort`` over ``(s, loop, level)`` does the whole regrouping.
* The (s-partition, loop, level) groups then **merge across
  s-partitions**: every group of one (loop, level) joins one step, and
  the steps run in a dependence order that follows the schedule. This
  executor pays a fixed Python cost per step and has no barriers to
  save, so s-partition boundaries would otherwise multiply its
  dispatches; merged, each loop runs one step per intra level — the
  same count as an unfused plan — while the schedule still sets the
  order inside each step and the interleaving of the loops wherever
  that costs no extra step.
* Per step, the kernel's :meth:`~repro.kernels.base.Kernel.precompute_level`
  builds the concatenated gather/scatter index arrays and
  ``np.add.reduceat`` segment boundaries up front, so executing the plan
  does no index arithmetic at all — only gathers, segment reductions and
  scatters.
* The plan is memoized on ``schedule.meta`` (:func:`plan_for`), so
  repeated executions of the same schedule — Gauss-Seidel sweeps,
  preconditioner applications inside a Krylov loop, benchmark reps —
  skip compilation entirely. Counters ``plan.cache_hits`` /
  ``plan.cache_misses`` / ``plan.steps_merged`` and the
  ``plan.compile_seconds`` counter under :mod:`repro.obs` make the
  amortization visible.

Legality of the regrouping (see docs/performance.md for the full
argument): (a) w-partitions of one s-partition are mutually independent
by the :func:`~repro.schedule.schedule.validate_schedule` dependence
rule, so their union is free of cross-w dependences and regrouping it is
the same argument as regrouping one w-partition, over a larger set;
(b) inter-loop dependences only flow from a lower to a higher loop
index, because the inspector builds ``F`` for ordered loop pairs only
(flow, anti and output dependences alike); (c) intra-loop dependences
always increase the intra-DAG level, so same-level iterations of one
loop form an antichain; (d) merging: by (b) and (c) no dependence joins
two groups of one (loop, level), and the graph of (loop, level) keys is
acyclic, so running each key as one step, in any topological order of
that graph, satisfies every intra and ``F`` edge. That holds whatever
the schedule, so merging a broken schedule would hide its fault: the
merge runs only when the schedule meets its (s, w, position) contract
on every such edge, checked over the same edge arrays. A schedule that
breaks it compiles to the unmerged groups in s-partition order, and the
plan sanitizer reports the fault with the schedule's s/w coordinates.

Choosing ``min_batch``: every level step pays a fixed dispatch
cost (index-array handling and ufunc dispatch — several microseconds
regardless of size), while each scalar iteration pays only a Python
call. Below roughly 4 iterations the dispatch dominates and batching
*loses*; past a few dozen the per-element amortization wins by an order
of magnitude. Steps smaller than ``min_batch`` therefore run scalar, in
packed order. Raise it on machines with slow ufunc dispatch
or for schedules whose levels are mostly tiny (deep, narrow DAGs); lower
it to 2 when levels are rare but the kernel's batch path is cheap (pure
gathers, no scatter). ``min_batch=1`` forces vectorization everywhere
and is mainly useful for testing the batch paths. Both the CLI
(``--min-batch``) and the executor benchmark
(``benchmarks/bench_executor_plans.py --min-batch``) expose the knob so
the crossover can be measured rather than guessed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Any

import numpy as np

from ..kernels.base import Kernel, State
from ..obs import current as current_recorder
from ..obs import names
from ..schedule.schedule import FusedSchedule, happens_before
from ..utils.arrays import distinct

__all__ = [
    "PlanStep",
    "ExecutionPlan",
    "compile_plan",
    "plan_for",
    "execute_schedule_planned",
]

_PLAN_CACHE_KEY = "_execution_plans"


@dataclass
class PlanStep:
    """One dispatch of the compiled plan.

    ``kind`` is ``"level"`` (vectorized antichain via
    ``run_level_batch``) or ``"scalar"`` (per-iteration loop, preserving
    packed order). A step may span several w-partitions and, in a merged
    plan, several s-partitions.
    """

    kind: str
    loop: int
    iters: np.ndarray
    precomp: Any = None
    #: happens-before phase of the dispatch: its s-partition in an
    #: unmerged plan, its own step index in a merged one. The dependence
    #: sanitizer uses it to model plan-executor happens-before, where
    #: one level step is a concurrent unit
    s: int = 0


@dataclass
class ExecutionPlan:
    """A schedule compiled into a flat list of vectorized dispatches.

    There are no barriers: the (sequential-faithful) executor runs the
    steps in list order. In a merged plan that order is a dependence
    order of the steps, so every intra and ``F`` edge runs from an
    earlier step to a later one; an unmerged plan emits its steps in
    s-partition order, so every cross-s-partition dependence is
    satisfied by construction. ``n_steps_merged`` counts the
    (s-partition, loop, level) groups folded into another group's step.
    """

    loop_counts: tuple[int, ...]
    min_batch: int
    steps: list[PlanStep]
    kernels: list[Kernel]
    n_level_steps: int = 0
    n_scalar_iterations: int = 0
    n_batched_iterations: int = 0
    n_steps_merged: int = 0
    compile_seconds: float = 0.0
    meta: dict = field(default_factory=dict)

    @property
    def n_steps(self) -> int:
        return len(self.steps)


def compile_plan(
    schedule: FusedSchedule,
    kernels: list[Kernel],
    *,
    min_batch: int = 4,
) -> ExecutionPlan:
    """Compile *schedule* + *kernels* into an :class:`ExecutionPlan`.

    Starts from one group per (s-partition, loop, intra-DAG level). When
    the schedule meets its dependence contract, the groups merge across
    s-partitions into one step per (loop, level) (:func:`_merge_groups`);
    otherwise the groups are the steps. Steps smaller than ``min_batch``
    run scalar in packed order (see the module docstring for the
    tradeoff).
    """
    if len(kernels) != len(schedule.loop_counts):
        raise ValueError(
            f"{len(kernels)} kernels for {len(schedule.loop_counts)} loops"
        )
    for k, kern in enumerate(kernels):
        if kern.n_iterations != schedule.loop_counts[k]:
            raise ValueError(
                f"loop {k}: kernel has {kern.n_iterations} iterations, "
                f"schedule expects {schedule.loop_counts[k]}"
            )
    rec = current_recorder()
    t0 = time.perf_counter()
    offsets = schedule.offsets
    level_capable = np.array(
        [getattr(k, "supports_level_batch", False) for k in kernels], dtype=bool
    )

    steps: list[PlanStep] = []
    n_level = n_scalar_iters = n_batched_iters = n_merged = 0
    with rec.span("plan.compile", vertices=schedule.n_vertices) as span:
        # Every scheduled vertex in schedule order: s-partitions, then
        # their w-partitions concatenated (legality: module docstring).
        parts = [v for wlist in schedule.s_partitions for v in wlist]
        verts = (
            np.concatenate(parts).astype(np.int64)
            if parts
            else np.empty(0, dtype=np.int64)
        )
        sizes = np.array([v.shape[0] for v in parts], dtype=np.int64)
        widths = [len(wlist) for wlist in schedule.s_partitions]
        s_of = np.repeat(np.repeat(np.arange(len(widths)), widths), sizes)
        loops = np.searchsorted(offsets, verts, side="right") - 1
        src, dst = _dependence_edges(kernels, offsets)
        mergeable = verts.shape[0] > 0 and _meets_contract(
            schedule.n_vertices, verts, s_of, sizes, src, dst
        )
        # Level-batchable loops split into intra-DAG levels; every other
        # group runs whole, so its level key stays 0.
        leveled = level_capable[loops]
        levels = [
            kern.intra_dag().levels()
            if capable
            else np.zeros(kern.n_iterations, dtype=np.int64)
            for kern, capable in zip(kernels, level_capable)
        ]
        level = np.where(leveled, np.concatenate(levels)[verts], 0)
        # Stable: packed order survives within each (s, loop, level) run.
        order = np.lexsort((level, loops, s_of))
        verts, s_of, loops, level, leveled = (
            x[order] for x in (verts, s_of, loops, level, leveled)
        )
        first = np.ones(verts.shape[0], dtype=bool)
        first[1:] = (np.diff(s_of) != 0) | (np.diff(loops) != 0) | (
            np.diff(level) != 0
        )
        group = np.cumsum(first) - 1
        starts = np.flatnonzero(first)
        if mergeable:
            group_of = np.empty(schedule.n_vertices, dtype=np.int64)
            group_of[verts] = group
            step_of, n_steps = _merge_groups(
                src,
                dst,
                group_of,
                loops[starts],
                np.where(leveled[starts], level[starts], -1),
            )
            n_merged = starts.shape[0] - n_steps
            # Stable: within a step, its groups keep schedule order.
            phase = step_of[group]
            order = np.argsort(phase, kind="stable")
            verts, loops, leveled, phase = (
                x[order] for x in (verts, loops, leveled, phase)
            )
            first[1:] = phase[1:] != phase[:-1]
        else:
            phase = s_of
        bounds = [*np.flatnonzero(first).tolist(), verts.shape[0]]
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            k = int(loops[lo])
            iters = verts[lo:hi] - int(offsets[k])
            s = int(phase[lo])
            if hi - lo >= min_batch and leveled[lo]:
                precomp = kernels[k].precompute_level(iters)
                steps.append(PlanStep("level", k, iters, precomp, s=s))
                n_level += 1
                n_batched_iters += hi - lo
            else:
                steps.append(PlanStep("scalar", k, iters, s=s))
                n_scalar_iters += hi - lo
        span.set(steps=len(steps), merged=n_merged)
    compile_seconds = time.perf_counter() - t0
    if rec.enabled:
        rec.count(names.PLAN_COMPILE_SECONDS, compile_seconds)
        rec.count(names.PLAN_LEVEL_STEPS, n_level)
        rec.count(names.PLAN_STEPS_MERGED, n_merged)
    return ExecutionPlan(
        loop_counts=tuple(schedule.loop_counts),
        min_batch=min_batch,
        steps=steps,
        kernels=list(kernels),
        n_level_steps=n_level,
        n_scalar_iterations=n_scalar_iters,
        n_batched_iterations=n_batched_iters,
        n_steps_merged=n_merged,
        compile_seconds=compile_seconds,
    )


def _dependence_edges(
    kernels: list[Kernel], offsets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Global ``(src, dst)`` vertex arrays of every intra-DAG edge and
    every ``F`` edge between ordered loop pairs.

    ``F`` comes from :func:`~repro.fusion.inspector.build_inter_dep`,
    memoized on the consumer kernel, so a plan compiled after
    :func:`~repro.fusion.fused.fuse` re-uses the inspector's join.
    """
    from ..fusion.inspector import build_inter_dep

    src: list[np.ndarray] = [np.empty(0, dtype=np.int64)]
    dst: list[np.ndarray] = [np.empty(0, dtype=np.int64)]
    for k, kern in enumerate(kernels):
        dag = kern.intra_dag()
        if dag.n_edges:
            src.append(
                np.repeat(np.arange(offsets[k], offsets[k + 1]), np.diff(dag.indptr))
            )
            dst.append(dag.indices + offsets[k])
    for b in range(1, len(kernels)):
        for a in range(b):
            f = build_inter_dep(kernels[a], kernels[b])
            if f.nnz:  # F[i, j]: producer j of loop a, consumer i of loop b
                src.append(f.row_indices + offsets[a])
                dst.append(
                    np.repeat(
                        np.arange(offsets[b], offsets[b + 1]), np.diff(f.row_indptr)
                    )
                )
    return np.concatenate(src), np.concatenate(dst)


def _meets_contract(
    n_vertices: int,
    verts: np.ndarray,
    s_of: np.ndarray,
    sizes: np.ndarray,
    src: np.ndarray,
    dst: np.ndarray,
) -> bool:
    """True when every vertex is scheduled once and every edge meets the
    schedule's (s, w, position) contract (:func:`happens_before`).

    *verts* lists the schedule's w-partitions back to back (*sizes*
    long each), so a w-partition's global index stands in for ``w`` and
    a vertex's index in *verts* for its position.
    """
    if verts.shape[0] != n_vertices:
        return False
    sp = np.full(n_vertices, -1, dtype=np.int64)
    sp[verts] = s_of
    if np.any(sp < 0):
        return False
    wp = np.empty_like(sp)
    wp[verts] = np.repeat(np.arange(sizes.shape[0]), sizes)
    pos = np.empty_like(sp)
    pos[verts] = np.arange(n_vertices)
    return bool(np.all(happens_before(sp, wp, pos, src, dst)))


def _merge_groups(
    src: np.ndarray,
    dst: np.ndarray,
    group_of: np.ndarray,
    loops: np.ndarray,
    levels: np.ndarray,
) -> tuple[np.ndarray, int]:
    """Step index of every group, and the number of steps.

    Groups ``0..G-1`` come in schedule order; vertex ``v`` is in group
    ``group_of[v]``, group ``g`` holds loop ``loops[g]``'s intra level
    ``levels[g]`` (``-1``: not split by level), and ``src[e] -> dst[e]``
    are the vertex dependence edges. Every group of one
    (loop, intra level) *key* joins one step: a level is an antichain
    and ``F`` only runs from a lower to a higher loop, so no edge joins
    two groups of one key, and the key graph is acyclic (ascending
    (loop, level) is one topological order). The steps are the keys in a
    topological order that follows the schedule: among the keys whose
    predecessors have all been emitted, the one the schedule reaches
    first goes next. So a schedule's interleaving of loops survives
    wherever it costs no extra step, and every loop runs exactly one
    step per intra level — the fewest any legal plan can have.

    Only level-split groups have a (loop, level) key; a group of a loop
    without level batching runs whole and is its own key.
    """
    n_groups = loops.shape[0]
    code = np.where(
        levels >= 0,
        loops * (int(levels.max()) + 1) + levels,
        -1 - np.arange(n_groups),
    )
    _, first, key_of = np.unique(code, return_index=True, return_inverse=True)
    n_keys = first.shape[0]
    # number keys by first appearance in schedule order
    rank = np.empty(n_keys, dtype=np.int64)
    rank[np.argsort(first)] = np.arange(n_keys)
    key_of = rank[key_of]
    vertex_key = key_of[group_of]
    pairs = distinct(vertex_key[src] * n_keys + vertex_key[dst])
    u, v = np.divmod(pairs, n_keys)
    cross = u != v
    succs: list[list[int]] = [[] for _ in range(n_keys)]
    n_preds = [0] * n_keys
    for a, b in zip(u[cross].tolist(), v[cross].tolist()):
        succs[a].append(b)
        n_preds[b] += 1
    ready = [k for k in range(n_keys) if not n_preds[k]]
    order: list[int] = []
    while ready:
        k = heappop(ready)
        order.append(k)
        for b in succs[k]:
            n_preds[b] -= 1
            if not n_preds[b]:
                heappush(ready, b)
    if len(order) < n_keys:  # impossible while F only runs forward
        raise RuntimeError("dependence cycle between plan steps")
    step_of = np.empty(n_keys, dtype=np.int64)
    step_of[order] = np.arange(n_keys)
    return step_of[key_of], n_keys


def plan_for(
    schedule: FusedSchedule,
    kernels: list[Kernel],
    *,
    min_batch: int = 4,
) -> ExecutionPlan:
    """Memoized :func:`compile_plan`: cached on ``schedule.meta``.

    The cache key is the identity of the kernel objects plus
    ``min_batch``; the plan holds strong references to its kernels, so
    an ``id()`` can never be recycled while its cache entry is alive.
    Counters ``plan.cache_hits`` / ``plan.cache_misses`` record the
    amortization.
    """
    cache = schedule.meta.setdefault(_PLAN_CACHE_KEY, {})
    key = (tuple(id(k) for k in kernels), int(min_batch))
    rec = current_recorder()
    plan = cache.get(key)
    if plan is not None:
        if rec.enabled:
            rec.count(names.PLAN_CACHE_HITS)
        return plan
    if rec.enabled:
        rec.count(names.PLAN_CACHE_MISSES)
    plan = compile_plan(schedule, kernels, min_batch=min_batch)
    cache[key] = plan
    return plan


def execute_schedule_planned(
    schedule: FusedSchedule,
    kernels: list[Kernel],
    state: State,
    *,
    min_batch: int = 4,
    plan: ExecutionPlan | None = None,
    sanitize: bool = False,
) -> State:
    """Execute *schedule* through its compiled plan.

    Semantics match :func:`repro.runtime.executor.execute_schedule` up to
    floating-point association order inside reductions (tests pin the
    tolerance; most kernels are bitwise-identical). Pass a prebuilt
    *plan* to bypass the ``schedule.meta`` cache entirely.

    With ``sanitize=True`` the dynamic dependence sanitizer
    (:func:`repro.obs.memtrace.sanitize_schedule`) checks every memory
    dependence under the plan's happens-before model — one level step is
    a concurrent unit — before anything runs.
    """
    if sanitize:
        from ..obs.memtrace import sanitize_schedule

        sanitize_schedule(
            schedule, kernels, executor="plan", min_batch=min_batch
        ).raise_if_violations()
    if plan is None:
        plan = plan_for(schedule, kernels, min_batch=min_batch)
    elif len(kernels) != len(plan.loop_counts):
        raise ValueError(
            f"{len(kernels)} kernels for {len(plan.loop_counts)} loops"
        )
    for kern in kernels:
        kern.setup(state)
    scratches = [k.make_scratch() for k in kernels]
    rec = current_recorder()
    with rec.span(
        "executor.run", executor="planned", vertices=sum(plan.loop_counts)
    ):
        for step in plan.steps:
            kern = kernels[step.loop]
            if step.kind == "level":
                kern.run_level_batch(
                    step.iters, state, step.precomp, scratches[step.loop]
                )
            else:
                scratch = scratches[step.loop]
                for i in step.iters.tolist():
                    kern.run_iteration(i, state, scratch)
    if rec.enabled:
        rec.count(names.EXECUTOR_BATCHED_ITERATIONS, plan.n_batched_iterations)
        rec.count(names.EXECUTOR_SCALAR_ITERATIONS, plan.n_scalar_iterations)
        rec.count(names.EXECUTOR_LEVEL_COUNT, plan.n_level_steps)
    return state
