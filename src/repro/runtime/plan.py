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
* Per level, the kernel's :meth:`~repro.kernels.base.Kernel.precompute_level`
  builds the concatenated gather/scatter index arrays and
  ``np.add.reduceat`` segment boundaries up front, so executing the plan
  does no index arithmetic at all — only gathers, segment reductions and
  scatters.
* The plan is memoized on ``schedule.meta`` (:func:`plan_for`), so
  repeated executions of the same schedule — Gauss-Seidel sweeps,
  preconditioner applications inside a Krylov loop, benchmark reps —
  skip compilation entirely. Counters ``plan.cache_hits`` /
  ``plan.cache_misses`` and the ``plan.compile_seconds`` counter under
  :mod:`repro.obs` make the amortization visible.

Legality of the regrouping (see docs/performance.md for the full
argument): (a) w-partitions of one s-partition are mutually independent
by the :func:`~repro.schedule.schedule.validate_schedule` dependence
rule, so their union is free of cross-w dependences and regrouping it is
the same argument as regrouping one w-partition, over a larger set;
(b) inter-loop dependences only flow from a lower to a higher loop
index, because the inspector builds ``F`` for ordered loop pairs only,
so running complete loop groups in ascending program order satisfies
them; (c) intra-loop dependences always increase the intra-DAG level,
so ascending level order satisfies them and same-level iterations form
an antichain; (d) every other dependence comes from an earlier
s-partition, and s-partitions stay sequential.

Choosing ``min_batch``: every level step pays a fixed dispatch
cost (index-array handling and ufunc dispatch — several microseconds
regardless of size), while each scalar iteration pays only a Python
call. Below roughly 4 iterations the dispatch dominates and batching
*loses*; past a few dozen the per-element amortization wins by an order
of magnitude. Groups and levels smaller than ``min_batch`` therefore run
scalar, in packed order. Raise it on machines with slow ufunc dispatch
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
from typing import Any

import numpy as np

from ..kernels.base import Kernel, State
from ..obs import current as current_recorder
from ..obs import names
from ..schedule.schedule import FusedSchedule

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
    packed order). A step may span every w-partition of its s-partition.
    """

    kind: str
    loop: int
    iters: np.ndarray
    precomp: Any = None
    #: s-partition of the dispatch; the dependence sanitizer uses it to
    #: model plan-executor happens-before, where one level step is a
    #: concurrent unit
    s: int = 0


@dataclass
class ExecutionPlan:
    """A schedule compiled into a flat list of vectorized dispatches.

    Barriers are implicit: steps are emitted in s-partition order and the
    (sequential-faithful) executor runs them in sequence, so every
    cross-s-partition dependence is satisfied by construction.
    """

    loop_counts: tuple[int, ...]
    min_batch: int
    steps: list[PlanStep]
    kernels: list[Kernel]
    n_level_steps: int = 0
    n_scalar_iterations: int = 0
    n_batched_iterations: int = 0
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

    Emits one step per (s-partition, loop, intra-DAG level). Groups and
    levels smaller than ``min_batch`` run scalar in packed order (see
    the module docstring for the tradeoff).
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
    n_level = n_scalar_iters = n_batched_iters = 0
    with rec.span("plan.compile", vertices=schedule.n_vertices):
        # Every scheduled vertex in schedule order: s-partitions, then
        # their w-partitions concatenated (legality: module docstring).
        parts = [v for wlist in schedule.s_partitions for v in wlist]
        verts = (
            np.concatenate(parts).astype(np.int64)
            if parts
            else np.empty(0, dtype=np.int64)
        )
        s_of = np.repeat(
            np.arange(schedule.n_spartitions, dtype=np.int64),
            [sum(v.shape[0] for v in wlist) for wlist in schedule.s_partitions],
        )
        loops = np.searchsorted(offsets, verts, side="right") - 1
        # (s, loop) groups of a level-batchable loop with at least
        # min_batch iterations split into intra-DAG levels; every other
        # group runs whole, so its level key stays 0.
        group = s_of * len(kernels) + loops
        leveled = level_capable[loops] & (np.bincount(group)[group] >= min_batch)
        level = np.zeros_like(verts)
        for k in np.unique(loops[leveled]).tolist():
            sel = leveled & (loops == k)
            level[sel] = kernels[k].intra_dag().levels()[verts[sel] - offsets[k]]
        # Stable: packed order survives within each (s, loop, level) run.
        order = np.lexsort((level, loops, s_of))
        verts, s_of, loops, level, leveled = (
            x[order] for x in (verts, s_of, loops, level, leveled)
        )
        cuts = np.flatnonzero(
            (np.diff(s_of) != 0) | (np.diff(loops) != 0) | (np.diff(level) != 0)
        ) + 1
        bounds = [0, *cuts.tolist(), verts.shape[0]] if verts.shape[0] else []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            k = int(loops[lo])
            iters = verts[lo:hi] - int(offsets[k])
            s = int(s_of[lo])
            big = hi - lo >= min_batch
            if big and leveled[lo]:
                precomp = kernels[k].precompute_level(iters)
                steps.append(PlanStep("level", k, iters, precomp, s=s))
                n_level += 1
                n_batched_iters += hi - lo
            else:
                steps.append(PlanStep("scalar", k, iters, s=s))
                n_scalar_iters += hi - lo
    compile_seconds = time.perf_counter() - t0
    if rec.enabled:
        rec.count(names.PLAN_COMPILE_SECONDS, compile_seconds)
        rec.count(names.PLAN_LEVEL_STEPS, n_level)
    return ExecutionPlan(
        loop_counts=tuple(schedule.loop_counts),
        min_batch=min_batch,
        steps=steps,
        kernels=list(kernels),
        n_level_steps=n_level,
        n_scalar_iterations=n_scalar_iters,
        n_batched_iterations=n_batched_iters,
        compile_seconds=compile_seconds,
    )


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
