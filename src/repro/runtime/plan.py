"""Compiled execution plans: level-batched vectorized schedule execution.

Dependence-carrying kernels — SpTRSV, SpIC0, SpILU0, the very loops the
paper fuses — cannot run a whole loop as one vectorized call, and
per-iteration Python (:func:`repro.runtime.executor.execute_schedule`)
pays interpreter cost per iteration. This module compiles a
:class:`~repro.schedule.schedule.FusedSchedule` plus its kernel list
*once* into a flat, array-backed :class:`ExecutionPlan`:

* Within every s-partition, the w-partitions are concatenated and the
  iterations regrouped by loop (ascending program order); each group is
  split into **intra-DAG level sets** — antichains whose members are
  mutually independent and may therefore execute as one
  :meth:`~repro.kernels.base.Kernel.run_level_batch` call (vectorized in
  every shipped kernel; the default runs the set one iteration at a
  time). One stable ``lexsort`` over ``(s, loop, level)`` does the whole
  regrouping.
* The (s-partition, loop, level) groups then **merge across
  s-partitions**: every group of one (loop, level) joins one step, and
  the steps run in ascending (loop, level) order. This executor pays a
  fixed Python cost per step and has no barriers to save, so s-partition
  boundaries would otherwise multiply its dispatches; merged, each loop
  runs one step per intra level — the same count as an unfused plan —
  while the schedule still sets the order inside each step.
* A step of one iteration runs
  :meth:`~repro.kernels.base.Kernel.run_iteration`; every wider step is
  a **level step** and runs
  :meth:`~repro.kernels.base.Kernel.run_level_batch`. A level step pays
  a fixed dispatch cost that one scalar iteration undercuts, while from
  two iterations on a level step wins for every shipped kernel
  (docs/performance.md has the measurements), so the size alone picks
  the call and there is nothing to tune.
* Per level step, the kernel's precomputation — the concatenated
  gather/scatter index arrays — is built up front, so executing the
  plan does no index arithmetic at all; a one-iteration step holds
  none. The compiler asks each loop for all of its level steps at once
  through
  :meth:`~repro.kernels.base.Kernel.precompute_levels`, and every
  shipped kernel answers with one gather pass over every step, split per
  step, instead of a dozen small passes.
* The linear-row kernels, ``dst[i] = (rhs[i] − Σ_j v_ij·src[j]) / d[i]``
  (SpTRSV-CSR, its from-LU variant, and SpMV-CSR with ``d = 1``), hold
  one CSR row block per step: ``ptr``, ``cols`` and ``gather`` (plus
  ``diag`` for the solves). A step starts an accumulator at the
  right-hand side, adds the block product in one compiled call
  (:func:`~repro.utils.arrays.row_block_matvec`), divides in place and
  scatters once. That call checks no bounds, so a stored plan's row
  blocks are checked once on load, all of them in one vectorized pass,
  and each run refuses a state vector shorter than a row block reaches;
  a plan compiled in this process is trusted as built.
* The intra-DAG levels come from ``kern.intra_dag().levels()``. Loops
  over one sparsity pattern share that memo with the DAG the inspector
  linked them to (:meth:`~repro.graph.dag.DAG.share_analyses`), so a
  fused pair over one pattern pays one levels pass between inspection
  and compile.
* :func:`plan_for` looks for a plan in three places, in order: the
  memo on ``schedule.meta``, so repeated executions of the same schedule
  — Gauss-Seidel sweeps, preconditioner applications inside a Krylov
  loop, benchmark reps — skip compilation entirely; then the
  :class:`~repro.schedule.cache.ScheduleCache` that
  :func:`~repro.fusion.fuse` bound to the schedule, whose plan entries
  persist across processes; and only then :func:`compile_plan`, whose
  result goes into both. A stored plan holds no kernel objects: per step
  its loop, phase and iterations plus the ``precompute_levels`` arrays,
  which depend on sparsity patterns only. On load it is bound to the
  caller's kernels and used only if every vertex appears exactly once,
  exactly its one-iteration steps hold no precomputation, every
  intra-DAG and ``F`` edge runs to a later step and every row block
  stays in bounds (:func:`_row_blocks_hold`); otherwise it is recompiled
  and overwritten. Counters ``plan.cache_hits`` / ``plan.cache_misses``
  (compilations) / ``plan.store_hits`` / ``plan.store_misses`` /
  ``plan.steps_merged``, the ``plan.compile_seconds`` counter and the
  ``plan.compile`` / ``plan.load`` spans make the amortization visible.
* :meth:`ExecutionPlan.bind` goes one step further for a caller that
  runs one plan many times over arrays no loop writes, as the solvers do
  with their matrix values: it returns a new plan whose level steps
  carry those arrays' gathered values
  (:meth:`~repro.kernels.base.Kernel.bind_level`), so each run skips the
  gathers. Binding fails closed: it refuses a variable some loop writes,
  never touches the plan it starts from, and a bound plan is neither
  memoized nor stored, and runs only against the very arrays it was
  bound to. Counter ``plan.bound_steps``.

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
two groups of one (loop, level), and every edge runs to a higher loop
or a higher level, so running each key as one step, in ascending
(loop, level) order, satisfies every intra and ``F`` edge. That holds whatever
the schedule, so merging a broken schedule would hide its fault: the
merge runs only when the schedule meets its (s, w, position) contract
on every such edge, checked over the same edge arrays. A schedule that
breaks it compiles to the unmerged groups in s-partition order, and the
plan sanitizer reports the fault with the schedule's s/w coordinates.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Any

import numpy as np

from ..kernels.base import Kernel, State
from ..obs import current as current_recorder
from ..obs import names
from ..schedule.cache import PLAN_FORMAT, plan_key
from ..schedule.schedule import (
    PLAN_MEMO_KEY,
    PLAN_STORE_KEY,
    FusedSchedule,
    check_loop_counts,
    dependence_edges,
    happens_before,
)
from ..utils.intsort import stable_lexsort

__all__ = [
    "PlanStep",
    "ExecutionPlan",
    "compile_plan",
    "plan_for",
    "execute_schedule_planned",
    "PLAN_STORE_KEY",
]

#: The index dtypes a stored row block may hold: the compiled product's
#: native integer widths.
_ROW_BLOCK_DTYPES = (np.dtype(np.int32), np.dtype(np.int64))


@dataclass
class PlanStep:
    """One dispatch of the compiled plan.

    A step of one iteration runs ``run_iteration``; a wider one is a
    level step, an antichain run by ``run_level_batch`` with its
    ``precomp``. A step may span several w-partitions and, in a merged
    plan, several s-partitions.
    """

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
    ``compile_seconds`` is 0 for a plan loaded from the plan store.
    ``bound`` maps each variable :meth:`bind` bound to the array its
    steps' values were gathered from; it is empty for a compiled plan.
    """

    loop_counts: tuple[int, ...]
    steps: list[PlanStep]
    kernels: list[Kernel]
    n_level_steps: int = 0
    n_scalar_iterations: int = 0
    n_batched_iterations: int = 0
    n_steps_merged: int = 0
    compile_seconds: float = 0.0
    meta: dict = field(default_factory=dict)
    bound: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def n_steps(self) -> int:
        return len(self.steps)

    def bind(self, state: State, variables: tuple[str, ...]) -> "ExecutionPlan":
        """A new plan whose level steps carry the values of *variables*.

        Every level step's precomputation is extended by its kernel's
        :meth:`~repro.kernels.base.Kernel.bind_level` with the step's
        gathers of ``state[name]`` for each name, so running the new plan
        skips them. The caller promises those arrays do not change while
        it runs the plan; the solvers make them read-only to keep that
        promise. Raises ``ValueError`` when a loop of the plan writes one
        of *variables*. This plan is left as it was, and the new one is for
        the caller alone: it is not memoized and never stored, and
        :func:`execute_schedule_planned` runs it only against a state
        holding the same array objects.
        """
        for name in variables:
            for k, kern in enumerate(self.kernels):
                if name in kern.write_vars:
                    raise ValueError(
                        f"cannot bind {name!r}: loop {k} ({kern.name}) writes it"
                    )
        values = {name: state[name] for name in variables}
        steps = [
            replace(
                st,
                precomp=self.kernels[st.loop].bind_level(st.iters, st.precomp, values),
            )
            if st.iters.shape[0] > 1
            else st
            for st in self.steps
        ]
        current_recorder().count(
            names.PLAN_BOUND_STEPS,
            sum(new.precomp is not old.precomp for new, old in zip(steps, self.steps)),
        )
        return replace(
            self, steps=steps, meta=dict(self.meta), bound={**self.bound, **values}
        )


def compile_plan(schedule: FusedSchedule, kernels: list[Kernel]) -> ExecutionPlan:
    """Compile *schedule* + *kernels* into an :class:`ExecutionPlan`.

    Starts from one group per (s-partition, loop, intra-DAG level). When
    the schedule meets its dependence contract, the groups merge across
    s-partitions into one step per (loop, level), run in ascending
    (loop, level) order; otherwise the groups are the steps, in
    s-partition order. Steps of two or more iterations are level steps
    and get their precomputation; a one-iteration step runs scalar.
    """
    check_loop_counts(kernels, schedule.loop_counts)
    rec = current_recorder()
    t0 = time.perf_counter()
    offsets = schedule.offsets

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
        src, dst = _dependence_edges(schedule, kernels)
        mergeable = verts.shape[0] > 0 and _meets_contract(
            schedule.n_vertices, verts, s_of, sizes, src, dst
        )
        # Every loop splits into its intra-DAG levels.
        level = np.concatenate([kern.intra_dag().levels() for kern in kernels])[verts]
        if mergeable:
            # One step per (loop, level), in ascending (loop, level): a
            # dependence order by legality (b) and (c).
            order = stable_lexsort((level, loops))
        else:
            order = stable_lexsort((level, loops, s_of))
        # Stable: within a step, vertices keep schedule order.
        verts, s_of, loops, level = (x[order] for x in (verts, s_of, loops, level))
        first = np.ones(verts.shape[0], dtype=bool)
        step_edge = (np.diff(loops) != 0) | (np.diff(level) != 0)
        group_edge = step_edge | (np.diff(s_of) != 0)
        first[1:] = step_edge if mergeable else group_edge
        n_merged = int(group_edge.sum() - first[1:].sum())
        phase = np.cumsum(first) - 1 if mergeable else s_of
        bounds = [*np.flatnonzero(first).tolist(), verts.shape[0]]
        level_steps: dict[int, list[PlanStep]] = {}
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            k = int(loops[lo])
            iters = verts[lo:hi] - int(offsets[k])
            step = PlanStep(k, iters, s=int(phase[lo]))
            if hi - lo > 1:
                level_steps.setdefault(k, []).append(step)
                n_level += 1
                n_batched_iters += hi - lo
            else:
                n_scalar_iters += 1
            steps.append(step)
        # One precompute pass per loop over all of its level steps.
        for k, group in level_steps.items():
            precomps = kernels[k].precompute_levels(
                np.concatenate([st.iters for st in group]),
                [st.iters.shape[0] for st in group],
            )
            for st, precomp in zip(group, precomps):
                st.precomp = precomp
        span.set(steps=len(steps), merged=n_merged)
    compile_seconds = time.perf_counter() - t0
    if rec.enabled:
        rec.count(names.PLAN_COMPILE_SECONDS, compile_seconds)
        rec.count(names.PLAN_LEVEL_STEPS, n_level)
        rec.count(names.PLAN_STEPS_MERGED, n_merged)
    return ExecutionPlan(
        loop_counts=tuple(schedule.loop_counts),
        steps=steps,
        kernels=list(kernels),
        n_level_steps=n_level,
        n_scalar_iterations=n_scalar_iters,
        n_batched_iterations=n_batched_iters,
        n_steps_merged=n_merged,
        compile_seconds=compile_seconds,
    )


def _dependence_edges(
    schedule: FusedSchedule, kernels: list[Kernel]
) -> tuple[np.ndarray, np.ndarray]:
    """Global ``(src, dst)`` vertex arrays of every intra-DAG edge and
    every non-empty ``F`` between ordered loop pairs.

    ``F`` comes from :func:`~repro.fusion.inspector.build_inter_dep`,
    memoized on the consumer kernel, so a plan compiled after
    :func:`~repro.fusion.fused.fuse` re-uses the inspector's join. The
    pairs are taken in :func:`~repro.fusion.fused.inspect_loops`' order,
    so after ``fuse(validate=True)`` the edge arrays themselves come from
    :func:`~repro.schedule.schedule.dependence_edges`' memo rather than
    being built a second time.
    """
    from ..fusion.inspector import build_inter_dep

    n = len(kernels)
    inter = {}
    for a in range(n):
        for b in range(a + 1, n):
            f = build_inter_dep(kernels[a], kernels[b])
            if f.nnz:
                inter[(a, b)] = f
    dags = [k.intra_dag() for k in kernels]
    _, _, src, dst = dependence_edges(schedule, dags, inter)
    return src, dst


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


def plan_for(schedule: FusedSchedule, kernels: list[Kernel]) -> ExecutionPlan:
    """The compiled plan of *schedule* on *kernels*, compiled at most once.

    Looks in three places, in order:

    1. the memo on ``schedule.meta``, keyed by the identity of the kernel
       objects (the plan holds strong references to its kernels, so an
       ``id()`` can never be recycled while its entry is alive);
    2. the plan store: the :class:`~repro.schedule.cache.ScheduleCache`
       :func:`~repro.fusion.fuse` bound to the schedule, under
       :func:`~repro.schedule.cache.plan_key`. A stored plan is bound to
       *kernels* and used only if it passes :func:`_plan_order_holds`;
    3. :func:`compile_plan`, whose plan is memoized and put into the store.

    Counters: ``plan.cache_hits`` (memo), ``plan.store_hits`` /
    ``plan.store_misses`` (store, when one is bound) and
    ``plan.cache_misses`` (compilations).
    """
    memo = schedule.meta.setdefault(PLAN_MEMO_KEY, {})
    key = tuple(id(k) for k in kernels)
    rec = current_recorder()
    plan = memo.get(key)
    if plan is not None:
        if rec.enabled:
            rec.count(names.PLAN_CACHE_HITS)
        return plan
    store = schedule.meta.get(PLAN_STORE_KEY)
    stored_as = None
    if store is not None:
        with rec.span("plan.load"):
            stored_as = plan_key(schedule, kernels)
            if stored_as is not None:
                plan = store.get_plan(
                    stored_as, lambda record: _bind_plan(record, schedule, kernels)
                )
        if rec.enabled:
            rec.count(
                names.PLAN_STORE_MISSES if plan is None else names.PLAN_STORE_HITS
            )
    if plan is None:
        if rec.enabled:
            rec.count(names.PLAN_CACHE_MISSES)
        plan = compile_plan(schedule, kernels)
        if stored_as is not None:
            try:
                header, arrays = _plan_record(plan)
            except TypeError:  # a precomp the record cannot hold: not stored
                pass
            else:
                store.put_plan(stored_as, header, arrays)
    memo[key] = plan
    return plan


def _plan_record(plan: ExecutionPlan) -> tuple[dict, list[np.ndarray]]:
    """``(header, arrays)`` holding *plan* without its kernel objects.

    The header's JSON skeleton refers to arrays by index: a step is
    ``[loop, s, iters, precomp]``, and a ``precomp`` tree keeps its
    dicts, lists and ``None`` with every ndarray leaf replaced by its
    index. Any other leaf raises ``TypeError``, and so does a bound
    plan (its steps hold values, which a pattern-keyed store must not)
    or a level step without a precomputation (a record holds one for
    exactly its level steps, which is how a load tells them apart).
    """
    if plan.bound:
        raise TypeError("a bound plan holds values and is never stored")
    if any(st.precomp is None and st.iters.shape[0] > 1 for st in plan.steps):
        raise TypeError("a level step without a precomputation is never stored")
    arrays: list[np.ndarray] = []

    def skeleton(node):
        if isinstance(node, np.ndarray) and not node.dtype.hasobject:
            arrays.append(node)
            return len(arrays) - 1
        if node is None:
            return None
        if isinstance(node, dict) and all(isinstance(k, str) for k in node):
            return {k: skeleton(v) for k, v in node.items()}
        if isinstance(node, list):
            return [skeleton(v) for v in node]
        raise TypeError(f"cannot store a {type(node).__name__} in a plan")

    header = {
        "plan_format": PLAN_FORMAT,
        "counts": [
            plan.n_level_steps,
            plan.n_scalar_iterations,
            plan.n_batched_iterations,
            plan.n_steps_merged,
        ],
        "steps": [
            [st.loop, st.s, skeleton(st.iters), skeleton(st.precomp)]
            for st in plan.steps
        ],
    }
    return header, arrays


def _bind_plan(
    record: tuple[dict, list[np.ndarray]],
    schedule: FusedSchedule,
    kernels: list[Kernel],
) -> ExecutionPlan | None:
    """The plan a :func:`_plan_record` record holds, bound to *kernels*,
    or ``None`` when the record is malformed or its order is illegal."""
    header, arrays = record

    def tree(node):
        if type(node) is int:
            return arrays[node]
        if node is None:
            return None
        if type(node) is dict:
            return {k: tree(v) for k, v in node.items()}
        if type(node) is list:
            return [tree(v) for v in node]
        raise TypeError(f"unexpected {type(node).__name__} in a plan record")

    try:
        if header["plan_format"] != PLAN_FORMAT:
            return None
        steps = [
            PlanStep(loop, arrays[iters], tree(precomp), s=s)
            for loop, s, iters, precomp in header["steps"]
        ]
        n_level, n_scalar, n_batched, n_merged = header["counts"]
        if not _plan_order_holds(
            schedule, kernels, steps, n_level, n_scalar, n_batched
        ) or not _row_blocks_hold(steps, kernels):
            return None
    except (KeyError, IndexError, TypeError, ValueError):
        return None
    return ExecutionPlan(
        loop_counts=tuple(schedule.loop_counts),
        steps=steps,
        kernels=list(kernels),
        n_level_steps=n_level,
        n_scalar_iterations=n_scalar,
        n_batched_iterations=n_batched,
        n_steps_merged=n_merged,
    )


def _plan_order_holds(
    schedule: FusedSchedule,
    kernels: list[Kernel],
    steps: list[PlanStep],
    n_level: int,
    n_scalar: int,
    n_batched: int,
) -> bool:
    """True when *steps* execute *schedule*'s vertices legally on
    *kernels*: each loop is valid, exactly the one-iteration steps hold
    no precomputation and the header counts match, the steps' phases
    ``s`` never decrease along the list (the sanitizer models
    happens-before by them), every vertex appears exactly once, and every
    intra-DAG and ``F`` edge runs to a later step.
    """
    if [k.n_iterations for k in kernels] != list(schedule.loop_counts):
        return False
    n_vertices = schedule.n_vertices
    if not steps:
        return n_vertices == 0 and n_level == n_scalar == n_batched == 0
    loops = np.array([st.loop for st in steps], dtype=np.int64)
    if loops.min() < 0 or loops.max() >= len(kernels):
        return False
    if np.any(np.diff(np.array([st.s for st in steps], dtype=np.int64)) < 0):
        return False
    iters = [st.iters for st in steps]
    if any(it.ndim != 1 or it.dtype.kind not in "iu" for it in iters):
        return False
    sizes = np.array([it.shape[0] for it in iters], dtype=np.int64)
    level = sizes > 1
    if (
        np.any(sizes < 1)
        or any((st.precomp is None) == wide for st, wide in zip(steps, level))
        or int(level.sum()) != n_level
        or int(sizes[level].sum()) != n_batched
        or int((~level).sum()) != n_scalar
        or int(sizes.sum()) != n_vertices
    ):
        return False
    loop_of = np.repeat(loops, sizes)
    local = np.concatenate(iters).astype(np.int64)
    counts = np.asarray(schedule.loop_counts, dtype=np.int64)
    if np.any(local < 0) or np.any(local >= counts[loop_of]):
        return False
    verts = local + schedule.offsets[loop_of]
    step_of = np.full(n_vertices, -1, dtype=np.int64)
    step_of[verts] = np.repeat(np.arange(len(steps)), sizes)
    if np.any(step_of < 0):  # n slots, n vertices: some vertex repeats
        return False
    src, dst = _dependence_edges(schedule, kernels)
    return bool(np.all(step_of[src] < step_of[dst]))


def _row_blocks_hold(steps: list[PlanStep], kernels: list[Kernel]) -> bool:
    """True when every level step of a kernel with a
    :attr:`~repro.kernels.base.Kernel.row_block_var` holds a CSR row block
    that :func:`~repro.utils.arrays.row_block_matvec` runs in bounds.

    The compiled product checks nothing, so a damaged record could read
    stray memory. Over all such steps at once: ``ptr`` has one entry more
    than the step has iterations, starts at 0, never decreases and ends
    at ``len(cols)``, which is also ``len(gather)``; every column indexes
    the multiplied variable; every ``ptr`` and ``cols`` shares one native
    ``int32`` or ``int64`` dtype. A record holds no bound ``vals``.
    """
    widths = [
        None if k.row_block_var is None else k.var_sizes()[k.row_block_var]
        for k in kernels
    ]
    group = [
        st for st in steps if st.iters.shape[0] > 1 and widths[st.loop] is not None
    ]
    if not group:
        return True
    blocks = [st.precomp for st in group]
    if any("vals" in b for b in blocks):
        return False
    ptrs = [b["ptr"] for b in blocks]
    cols = [b["cols"] for b in blocks]
    (dtype, ndim), *others = {(a.dtype, a.ndim) for a in ptrs + cols}
    if others or ndim != 1 or dtype not in _ROW_BLOCK_DTYPES:
        return False
    n_ptr = [a.shape[0] for a in ptrs]
    n_cols = [a.shape[0] for a in cols]
    if n_ptr != [st.iters.shape[0] + 1 for st in group] or n_cols != [
        b["gather"].shape[0] for b in blocks
    ]:
        return False
    n_ptr, n_cols = np.array(n_ptr), np.array(n_cols)
    ptr = np.concatenate(ptrs)
    col = np.concatenate(cols)
    ends = n_ptr.cumsum()
    rises = ptr[1:] - ptr[:-1]
    rises[ends[:-1] - 1] = 0  # from one block's end to the next's start
    width = np.array([widths[st.loop] for st in group]).repeat(n_cols)
    return not (
        ptr[ends - n_ptr].any()
        or (ptr[ends - 1] != n_cols).any()
        or rises.min(initial=0) < 0
        or col.min(initial=0) < 0
        or (col >= width).any()
    )


def execute_schedule_planned(
    schedule: FusedSchedule,
    kernels: list[Kernel],
    state: State,
    *,
    plan: ExecutionPlan | None = None,
    sanitize: bool = False,
) -> State:
    """Execute *schedule* through its compiled plan.

    Semantics match :func:`repro.runtime.executor.execute_schedule` up to
    floating-point association order inside reductions (tests pin the
    tolerance; most kernels are bitwise-identical). Pass a prebuilt
    *plan* to bypass the ``schedule.meta`` cache entirely; it must have
    been compiled for loops of the kernels' trip counts, and a bound
    plan (:meth:`ExecutionPlan.bind`) must run against a state holding
    the arrays it was bound to. Either mismatch raises ``ValueError``.

    With ``sanitize=True`` the dynamic dependence sanitizer
    (:func:`repro.obs.memtrace.sanitize_schedule`) checks every memory
    dependence under the happens-before model of the very plan that is
    about to run — one level step is a concurrent unit — before anything
    runs.
    """
    if plan is None:
        plan = plan_for(schedule, kernels)
    else:
        _check_plan_fits(plan, kernels, state)
    _check_row_block_vectors(kernels, state)
    if sanitize:
        from ..obs.memtrace import sanitize_schedule

        sanitize_schedule(
            schedule, kernels, executor="plan", plan=plan
        ).raise_if_violations()
    for kern in kernels:
        kern.setup(state)
    scratches = [k.make_scratch() for k in kernels]
    rec = current_recorder()
    with rec.span(
        "executor.run", executor="planned", vertices=sum(plan.loop_counts)
    ):
        for step in plan.steps:
            kern, scratch = kernels[step.loop], scratches[step.loop]
            if step.iters.shape[0] == 1:
                kern.run_iteration(int(step.iters[0]), state, scratch)
            else:
                kern.run_level_batch(step.iters, state, step.precomp, scratch)
    if rec.enabled:
        rec.count(names.EXECUTOR_BATCHED_ITERATIONS, plan.n_batched_iterations)
        rec.count(names.EXECUTOR_SCALAR_ITERATIONS, plan.n_scalar_iterations)
        rec.count(names.EXECUTOR_LEVEL_COUNT, plan.n_level_steps)
    return state


def _check_row_block_vectors(kernels: list[Kernel], state: State) -> None:
    """Raise ``ValueError`` when *state* holds a vector some kernel's row
    blocks multiply that is shorter than the kernel declares: the
    compiled product would read past its end rather than fail."""
    for kern in kernels:
        var = kern.row_block_var
        if var is not None and len(state[var]) < kern.var_sizes()[var]:
            raise ValueError(
                f"{var!r} holds {len(state[var])} values, {kern.name} "
                f"reads {kern.var_sizes()[var]}"
            )


def _check_plan_fits(
    plan: ExecutionPlan, kernels: list[Kernel], state: State
) -> None:
    """Raise ``ValueError`` unless a caller's *plan* was compiled for
    loops of *kernels*' trip counts and, when bound, for *state*'s arrays."""
    check_loop_counts(kernels, plan.loop_counts, "plan")
    for name, array in plan.bound.items():
        if state.get(name) is not array:
            raise ValueError(
                f"plan is bound to another {name!r} array than the state holds"
            )
