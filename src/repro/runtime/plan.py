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
  (:class:`~repro.kernels.base.RowBlockKernel`: SpTRSV-CSR, its from-LU
  variant, the pull-form backward solve and SpMV-CSR with ``d = 1``),
  hold one CSR row block per step: ``ptr``, ``cols`` and ``gather``
  (plus ``diag`` for the solves), run by
  :func:`~repro.kernels.base.run_rows`. A step starts an accumulator at
  the right-hand side, adds the block product in one compiled call
  (:func:`~repro.utils.arrays.row_block_matvec`), divides in place and
  scatters once. That call checks no bounds, so a stored plan's row
  blocks are checked once on load, all of them in one vectorized pass,
  and each run refuses a state vector shorter than a row block reaches;
  a plan compiled in this process is trusted as built.
* A plan whose loops are **all** linear-row kernels compiles to one
  :class:`RowProgram` instead, by the levels of the **joint** DAG (intra
  edges plus ``F``, the same edge arrays the contract check walks): one
  dispatch per joint level holds every loop's rows at that level as one
  row block of the stacked operator. The loops' vectors live in one
  plan-owned buffer, every column is an offset into it, and each
  dispatch gathers its right-hand sides, makes one compiled product over
  the buffer, divides (by 1.0, exactly, for rows that do not) and
  scatters. An ``F`` coupling is read through the right-hand side or the
  product exactly as the loop's own step reads it, so every row does the
  arithmetic of its per-loop step and the program is bitwise equal to
  per-loop row-block steps, in fewer dispatches: this is where fusion
  pays on the wall clock. ``plan.steps`` then lists each dispatch's rows
  per loop, sharing the dispatch's phase ``s``.
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
  and overwritten. A stored row program also holds its row arrays: no
  edge may join two rows of one dispatch, and every column, right-hand
  side, write and value offset must stay inside its buffer
  (:func:`_program_holds`). Counters ``plan.cache_hits`` / ``plan.cache_misses``
  (compilations) / ``plan.store_hits`` / ``plan.store_misses`` /
  ``plan.steps_merged``, the ``plan.compile_seconds`` counter and the
  ``plan.compile`` / ``plan.load`` spans make the amortization visible.
* :meth:`ExecutionPlan.bind` goes one step further for a caller that
  runs one plan many times over arrays no loop writes, as the solvers do
  with their matrix values: it returns a new plan whose level steps
  carry those arrays' gathered values
  (:meth:`~repro.kernels.base.Kernel.bind_level`), so each run skips the
  gathers; a row program gets its own buffer holding the bound vectors
  and every dispatch's bound values. Binding fails closed: it refuses a
  variable some loop writes, never touches the plan it starts from, and
  a bound plan is neither memoized nor stored, and runs only against the
  very arrays it was bound to. Counter ``plan.bound_steps``.

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
(loop, level) order, satisfies every intra and ``F`` edge; (e) joint
levels: every intra and ``F`` edge runs to a higher joint level by
definition, so the rows of one joint level form an antichain of the
joint DAG and ascending joint levels satisfy every edge. That holds whatever
the schedule, so merging a broken schedule would hide its fault: the
merge runs only when the schedule meets its (s, w, position) contract
on every such edge, checked over the same edge arrays. A schedule that
breaks it compiles to the unmerged groups in s-partition order, and the
plan sanitizer reports the fault with the schedule's s/w coordinates.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field, replace
from typing import Any, NamedTuple

import numpy as np

from ..kernels.base import Kernel, State, _at, run_rows
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
from ..sparse.base import INDEX_DTYPE, VALUE_DTYPE
from ..utils.intsort import stable_argsort, unique

__all__ = [
    "PlanStep",
    "ExecutionPlan",
    "RowProgram",
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
    """One dispatch of the compiled plan, or one loop's rows of one.

    A step of one iteration runs ``run_iteration``; a wider one is a
    level step, an antichain run by ``run_level_batch`` with its
    ``precomp``. A step may span several w-partitions and, in a merged
    plan, several s-partitions. In a row program
    (:attr:`ExecutionPlan.rows`) a step is one loop's rows of one
    dispatch and holds no precomputation: the dispatch's steps share its
    phase ``s`` and run as one row block.
    """

    loop: int
    iters: np.ndarray
    precomp: Any = None
    #: happens-before phase of the dispatch: its s-partition in an
    #: unmerged plan, its own dispatch index in a merged one. The
    #: dependence sanitizer uses it to model plan-executor
    #: happens-before, where one level step (in a row program, every
    #: step of one phase) is a concurrent unit
    s: int = 0


@dataclass
class ExecutionPlan:
    """A schedule compiled into a flat list of vectorized dispatches.

    There are no barriers: the (sequential-faithful) executor runs the
    steps in list order. In a merged plan that order is a dependence
    order of the steps, so every intra and ``F`` edge runs from an
    earlier step to a later one; an unmerged plan emits its steps in
    s-partition order, so every cross-s-partition dependence is
    satisfied by construction. A plan of linear-row loops runs its
    :attr:`rows` program instead, one dispatch per joint level, and every
    edge runs to a later dispatch. ``n_steps`` counts dispatches, and the
    level-step and iteration counts describe them. ``n_steps_merged``
    counts the (s-partition, loop, level) groups folded into another
    group's step, and in a row program the (loop, level) steps folded
    into joint ones. ``compile_seconds`` is 0 for a plan loaded from the
    plan store. ``bound`` maps each variable :meth:`bind` bound to the
    array its steps' values were gathered from; it is empty for a
    compiled plan. ``vectors`` lists, once per plan, the state vectors a
    compiled product reads, each with the length it needs and the kernel
    that needs it.
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
    rows: "RowProgram | None" = None
    vectors: tuple[tuple[str, int, str], ...] = field(init=False, repr=False)

    def __post_init__(self):
        if self.rows is not None:
            self.vectors = self.rows.vectors
        else:
            self.vectors = tuple(
                (k.row_block_var, k.var_sizes()[k.row_block_var], k.name)
                for k in self.kernels
                if k.row_block_var is not None
            )

    @property
    def n_steps(self) -> int:
        if self.rows is not None:
            return len(self.rows.steps)
        return len(self.steps)

    def bind(self, state: State, variables: tuple[str, ...]) -> "ExecutionPlan":
        """A new plan whose level steps carry the values of *variables*.

        Every level step's precomputation is extended by its kernel's
        :meth:`~repro.kernels.base.Kernel.bind_level` with the step's
        gathers of ``state[name]`` for each name, so running the new plan
        skips them; a row program is rebound as :meth:`RowProgram.bind`
        says. The caller promises those arrays do not change while
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
        if self.rows is not None:
            rows = self.rows.bind(values)
            current_recorder().count(names.PLAN_BOUND_STEPS, rows.n_bound)
            return replace(
                self, rows=rows, meta=dict(self.meta), bound={**self.bound, **values}
            )
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


class RowProgram:
    """Stacked row blocks of linear-row loops over one plan-owned buffer.

    ``buf`` holds 0.0 in slot 0 and then every vector the loops read or
    write (:attr:`~repro.kernels.base.RowForm.rhs`, ``src``, ``out``),
    each at its declared length; ``vbuf`` holds 1.0 in slot 0 and then
    every matrix-value array the rows use, negated where the loop
    negates it (:func:`_row_layout`). :attr:`arrays` holds every row of
    the program, dispatch after dispatch, as ``(rhs, ends, cols, gather,
    diag, out)``: buffer offsets of each row's right-hand side (slot 0
    for none), the CSR row block over ``buf`` (row ``r``'s terms are
    ``ends[r]:ends[r + 1]``), ``vbuf`` offsets of its coefficients and
    divisor (slot 0 for none) and the buffer offset it writes. Each of
    :attr:`steps` is one dispatch's slice of them, its ``ptr`` counted
    from its own first term; once every value array is bound, a step
    holds its gathered coefficients and divisors instead of offsets.

    A run copies in the vectors some row reads before any row writes
    them, or that the program does not write whole (:attr:`copy_in`), and
    the value arrays, runs the dispatches in order through
    :func:`~repro.kernels.base.run_rows` and copies every written vector
    back into the state. The buffers belong to this program, so runs of
    one program must not overlap.
    """

    def __init__(self, where: "_RowLayout", sizes, arrays, copy_in):
        #: ``(var, length, kernel name)`` of every buffer vector
        self.vectors = where.vectors
        #: var -> ``(lo, hi)``, its slice of ``buf``
        self.layout = where.layout
        self.arrays = arrays
        #: ``(var, lo, hi)`` copied into ``buf`` before a run / out after
        self.copy_in = tuple((var, *self.layout[var]) for var in copy_in)
        self.copy_out = tuple(
            (var, lo, hi)
            for var, (lo, hi) in self.layout.items()
            if var in where.written
        )
        #: ``(var, negate, lo, hi)``: the value slices loaded per run
        self.values = tuple(
            (mat, negate, lo, lo + where.mats[mat])
            for (mat, negate), lo in where.value_at.items()
        )
        rhs, ends, cols, gather, diag, out = arrays
        row_at = [0, *np.cumsum(sizes).tolist()]
        term_at = ends[row_at].tolist()
        self.steps = [
            (rhs[a:b], ends[a : b + 1] - t, cols[t:u], gather[t:u], diag[a:b], out[a:b])
            for a, b, t, u in zip(row_at, row_at[1:], term_at, term_at[1:])
        ]
        self.buf = np.zeros(where.n_buf, dtype=VALUE_DTYPE)
        self.vbuf = np.ones(where.n_vbuf, dtype=VALUE_DTYPE)

    @property
    def n_bound(self) -> int:
        """Dispatches that carry their values (all of them, once bound)."""
        return 0 if self.values else len(self.steps)

    @classmethod
    def build(
        cls,
        kernels: list[Kernel],
        verts: np.ndarray,
        sizes: np.ndarray,
    ) -> "RowProgram":
        """The program running global vertices *verts*, in order, as
        dispatches of *sizes* rows each. One pass over all rows."""
        where = _row_layout(kernels)
        layout, value_at, n_buf = where.layout, where.value_at, where.n_buf
        # Whole-loop arrays over all vertices, as offsets into the buffers.
        out, rhs, diag, counts, cols, gather = ([] for _ in range(6))
        for kern in kernels:
            rows = kern.row_form
            local = np.arange(kern.n_iterations, dtype=INDEX_DTYPE)
            none = np.zeros_like(local)
            out.append(layout[rows.out][0] + _at(rows.out_at, local))
            rhs.append(
                none if rows.rhs is None else layout[rows.rhs][0] + _at(rows.rhs_at, local)
            )
            diag.append(
                none if rows.diag is None else value_at[rows.mat, False] + rows.diag
            )
            counts.append(np.diff(rows.ptr))
            cols.append(layout[rows.src][0] + rows.cols)
            gather.append(value_at[rows.mat, rows.negate] + rows.pos)
        out, rhs, diag, counts, cols, gather = (
            np.concatenate(x) for x in (out, rhs, diag, counts, cols, gather)
        )
        starts = np.zeros(counts.shape[0], dtype=INDEX_DTYPE)
        np.cumsum(counts[:-1], out=starts[1:])
        # The program's rows, in order.
        out, rhs, diag, counts = out[verts], rhs[verts], diag[verts], counts[verts]
        ends = np.zeros(counts.shape[0] + 1, dtype=INDEX_DTYPE)
        np.cumsum(counts, out=ends[1:])
        terms = np.arange(ends[-1], dtype=INDEX_DTYPE) + np.repeat(
            starts[verts] - ends[:-1], counts
        )
        cols, gather = cols[terms], gather[terms]
        # A vector is copied in when some row reads an element of it no
        # earlier dispatch writes, or when the program leaves part of it
        # unwritten.
        n_steps = len(sizes)
        first_write = np.full(n_buf, n_steps)
        step_of = np.repeat(np.arange(n_steps), sizes)
        np.minimum.at(first_write, out, step_of)
        stale = first_write == n_steps
        stale[rhs[step_of <= first_write[rhs]]] = True
        step_of = np.repeat(step_of, counts)
        stale[cols[step_of <= first_write[cols]]] = True
        copy_in = [var for var, (lo, hi) in layout.items() if stale[lo:hi].any()]
        return cls(where, sizes, (rhs, ends, cols, gather, diag, out), copy_in)

    def bind(self, values: dict[str, np.ndarray]) -> "RowProgram":
        """A new program, with buffers of its own, holding *values*: the
        vectors among them once in its buffer, and the matrix values
        gathered into every dispatch once no value array is left unbound.
        This program is left as it was."""
        new = copy.copy(self)
        new.buf, new.vbuf = self.buf.copy(), self.vbuf.copy()
        for var, array in values.items():
            if var in self.layout:
                lo, hi = self.layout[var]
                new.buf[lo:hi] = array[: hi - lo]
        new.copy_in = tuple(c for c in self.copy_in if c[0] not in values)
        new._load_values(values, [v for v in self.values if v[0] in values])
        new.values = tuple(v for v in self.values if v[0] not in values)
        if self.values and not new.values:
            new.steps = [
                (rhs, ptr, cols, new.vbuf[gather], new.vbuf[diag], out)
                for rhs, ptr, cols, gather, diag, out in self.steps
            ]
        return new

    def _load_values(self, state, values) -> None:
        vbuf = self.vbuf
        for mat, negate, lo, hi in values:
            if negate:
                np.negative(state[mat][: hi - lo], out=vbuf[lo:hi])
            else:
                vbuf[lo:hi] = state[mat][: hi - lo]

    def run(self, state: State) -> None:
        """Run every dispatch against *state* (see the class docstring)."""
        buf, vbuf = self.buf, self.vbuf
        for var, lo, hi in self.copy_in:
            buf[lo:hi] = state[var][: hi - lo]
        if self.values:
            self._load_values(state, self.values)
            for rhs, ptr, cols, gather, diag, out in self.steps:
                run_rows(buf, rhs, ptr, cols, vbuf[gather], buf, vbuf[diag], buf, out)
        else:
            for rhs, ptr, cols, vals, dvals, out in self.steps:
                run_rows(buf, rhs, ptr, cols, vals, buf, dvals, buf, out)
        for var, lo, hi in self.copy_out:
            state[var][: hi - lo] = buf[lo:hi]


class _RowLayout(NamedTuple):
    """Where a row program keeps everything (:func:`_row_layout`)."""

    #: ``(var, length, kernel name)`` per vector, for the run-time check
    vectors: tuple[tuple[str, int, str], ...]
    #: vector -> its ``(lo, hi)`` slice of the buffer
    layout: dict[str, tuple[int, int]]
    #: ``(mat, negate)`` -> the start of its slice of the value buffer
    value_at: dict[tuple[str, bool], int]
    #: value array -> its length
    mats: dict[str, int]
    #: the vectors some loop writes
    written: set[str]
    n_buf: int
    n_vbuf: int


def _row_layout(kernels: list[Kernel]) -> _RowLayout:
    """Where a row program of *kernels* keeps everything: every vector
    and value array at the largest length any loop declares for it, in
    order of first use, after the buffers' slot 0."""
    vectors: dict[str, tuple[int, str]] = {}
    mats: dict[str, int] = {}
    value_keys: list[tuple[str, bool]] = []
    for kern in kernels:
        rows, declared = kern.row_form, kern.var_sizes()
        for var in (rows.rhs, rows.src, rows.out):
            if var is not None and declared[var] > vectors.get(var, (-1,))[0]:
                vectors[var] = (declared[var], kern.name)
        mats[rows.mat] = max(mats.get(rows.mat, 0), declared[rows.mat])
        value_keys.append((rows.mat, rows.negate))
        if rows.diag is not None:
            value_keys.append((rows.mat, False))
    layout, n_buf = {}, 1
    for var, (size, _) in vectors.items():
        layout[var], n_buf = (n_buf, n_buf + size), n_buf + size
    value_at, n_vbuf = {}, 1
    for mat, negate in dict.fromkeys(value_keys):
        value_at[mat, negate], n_vbuf = n_vbuf, n_vbuf + mats[mat]
    return _RowLayout(
        vectors=tuple((var, size, name) for var, (size, name) in vectors.items()),
        layout=layout,
        value_at=value_at,
        mats=mats,
        written={k.row_form.out for k in kernels},
        n_buf=n_buf,
        n_vbuf=n_vbuf,
    )


def _program_holds(where: _RowLayout, sizes: np.ndarray, arrays, copy_in) -> bool:
    """True when stored row-program *arrays* of dispatches of *sizes* rows
    run in bounds on layout *where* (:func:`_row_layout`).

    The compiled product checks nothing. Over all rows at once: the six
    arrays are 1-D native ``int64``; ``rhs``, ``diag`` and ``out`` hold
    one entry per row and ``ends`` one more, starting at 0, never
    decreasing and ending at ``len(cols) == len(gather)``; every
    right-hand side, column and write indexes the buffer and every
    coefficient and divisor the value buffer; ``copy_in`` names buffer
    vectors.
    """
    if len(arrays) != 6 or any(
        a.ndim != 1 or a.dtype != INDEX_DTYPE for a in arrays
    ) or not set(copy_in) <= where.layout.keys():
        return False
    rhs, ends, cols, gather, diag, out = arrays
    n_rows = int(sizes.sum())
    if (
        rhs.shape[0] != n_rows
        or diag.shape[0] != n_rows
        or out.shape[0] != n_rows
        or ends.shape[0] != n_rows + 1
        or cols.shape[0] != gather.shape[0]
        or ends[0] != 0
        or ends[-1] != cols.shape[0]
        or np.any(ends[1:] < ends[:-1])
    ):
        return False
    buffer_at = np.concatenate([rhs, cols, out])
    value_at = np.concatenate([gather, diag])
    return bool(
        buffer_at.min(initial=0) >= 0
        and buffer_at.max(initial=0) < where.n_buf
        and value_at.min(initial=0) >= 0
        and value_at.max(initial=0) < where.n_vbuf
    )


def compile_plan(schedule: FusedSchedule, kernels: list[Kernel]) -> ExecutionPlan:
    """Compile *schedule* + *kernels* into an :class:`ExecutionPlan`.

    Starts from one group per (s-partition, loop, intra-DAG level). When
    the schedule meets its dependence contract, the groups merge across
    s-partitions into one step per (loop, level), run in ascending
    (loop, level) order; otherwise the groups are the steps, in
    s-partition order. Steps of two or more iterations are level steps
    and get their precomputation; a one-iteration step runs scalar. When
    the schedule meets its contract and every loop is a linear-row
    kernel, the plan is one :class:`RowProgram` by joint levels instead.
    """
    check_loop_counts(kernels, schedule.loop_counts)
    rec = current_recorder()
    t0 = time.perf_counter()
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
        src, dst = _dependence_edges(schedule, kernels)
        mergeable = verts.shape[0] > 0 and _meets_contract(
            schedule.n_vertices, verts, s_of, sizes, src, dst
        )
        if mergeable and all(k.row_form is not None for k in kernels):
            plan = _compile_rows(schedule, kernels, src, dst, verts, s_of)
        else:
            plan = _compile_steps(schedule, kernels, verts, s_of, mergeable)
        span.set(steps=plan.n_steps, merged=plan.n_steps_merged)
    plan.compile_seconds = time.perf_counter() - t0
    if rec.enabled:
        rec.count(names.PLAN_COMPILE_SECONDS, plan.compile_seconds)
        rec.count(names.PLAN_LEVEL_STEPS, plan.n_level_steps)
        rec.count(names.PLAN_STEPS_MERGED, plan.n_steps_merged)
    return plan


def _compile_steps(
    schedule: FusedSchedule,
    kernels: list[Kernel],
    verts: np.ndarray,
    s_of: np.ndarray,
    mergeable: bool,
) -> ExecutionPlan:
    """The plan of kernel steps: one per (loop, level) when *mergeable*,
    else one per (s-partition, loop, level) in s-partition order."""
    offsets = schedule.offsets
    loops = np.searchsorted(offsets, verts, side="right") - 1
    # Every loop splits into its intra-DAG levels.
    level = np.concatenate([kern.intra_dag().levels() for kern in kernels])[verts]
    # One step per (loop, level), in ascending (loop, level): a
    # dependence order by legality (b) and (c). The keys arrive in
    # schedule order, loops mostly ascending, where NumPy's lexsort beats
    # the radix helper (docs/performance.md, "Joint-level steps").
    keys = (level, loops) if mergeable else (level, loops, s_of)
    order = np.lexsort(keys)
    # Stable: within a step, vertices keep schedule order.
    verts, s_of, loops, level = (x[order] for x in (verts, s_of, loops, level))
    first = np.ones(verts.shape[0], dtype=bool)
    step_edge = (np.diff(loops) != 0) | (np.diff(level) != 0)
    group_edge = step_edge | (np.diff(s_of) != 0)
    first[1:] = step_edge if mergeable else group_edge
    n_merged = int(group_edge.sum() - first[1:].sum())
    phase = np.cumsum(first) - 1 if mergeable else s_of
    starts = np.flatnonzero(first)
    local = verts - offsets[loops]
    bounds = [*starts.tolist(), verts.shape[0]]
    steps: list[PlanStep] = []
    level_steps: dict[int, list[PlanStep]] = {}
    n_level = n_scalar_iters = n_batched_iters = 0
    for k, s, lo, hi in zip(
        loops[starts].tolist(), phase[starts].tolist(), bounds[:-1], bounds[1:]
    ):
        step = PlanStep(k, local[lo:hi], s=s)
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
    return ExecutionPlan(
        loop_counts=tuple(schedule.loop_counts),
        steps=steps,
        kernels=list(kernels),
        n_level_steps=n_level,
        n_scalar_iterations=n_scalar_iters,
        n_batched_iterations=n_batched_iters,
        n_steps_merged=n_merged,
    )


def _compile_rows(
    schedule: FusedSchedule,
    kernels: list[Kernel],
    src: np.ndarray,
    dst: np.ndarray,
    scheduled: np.ndarray,
    s_of: np.ndarray,
) -> ExecutionPlan:
    """The row program of linear-row loops: one dispatch per joint level.

    Within a dispatch, rows run loop by loop in ascending iteration; each
    loop's rows of it are one :class:`PlanStep` with the dispatch's phase.
    The schedule (*scheduled* vertices, in s-partitions *s_of*) only
    counts the (s-partition, loop, joint level) groups folded together.
    """
    offsets = schedule.offsets
    joint = _joint_levels(kernels, src, dst)
    verts = stable_argsort(joint)
    level = joint[verts]
    loops = np.searchsorted(offsets, verts, side="right") - 1
    first = np.ones(verts.shape[0], dtype=bool)
    first[1:] = (np.diff(level) != 0) | (np.diff(loops) != 0)
    starts = np.flatnonzero(first)
    local = verts - offsets[loops]
    bounds = [*starts.tolist(), verts.shape[0]]
    steps = [
        PlanStep(k, local[lo:hi], s=s)
        for k, s, lo, hi in zip(
            loops[starts].tolist(), level[starts].tolist(), bounds[:-1], bounds[1:]
        )
    ]
    sizes = np.bincount(level)
    scheduled_loops = np.searchsorted(offsets, scheduled, side="right") - 1
    groups = unique(
        (s_of * len(kernels) + scheduled_loops) * sizes.shape[0] + joint[scheduled]
    )
    program = RowProgram.build(kernels, verts, sizes)
    return _row_plan(
        schedule, kernels, steps, sizes, groups.shape[0] - sizes.shape[0], program
    )


def _row_plan(schedule, kernels, steps, sizes, n_merged, program) -> ExecutionPlan:
    """The :class:`ExecutionPlan` running *steps* as *program*, whose
    dispatches hold *sizes* rows."""
    wide = sizes > 1
    return ExecutionPlan(
        loop_counts=tuple(schedule.loop_counts),
        steps=steps,
        kernels=list(kernels),
        n_level_steps=int(wide.sum()),
        n_scalar_iterations=int((~wide).sum()),
        n_batched_iterations=int(sizes[wide].sum()),
        n_steps_merged=n_merged,
        rows=program,
    )


def _joint_levels(
    kernels: list[Kernel], src: np.ndarray, dst: np.ndarray
) -> np.ndarray:
    """Longest-path level of every global vertex in the joint DAG whose
    edges are ``src -> dst``: its wavefront number.

    One round per (loop, intra-DAG level), in loop order, over the edges
    into that round's vertices: every such edge starts in an earlier
    round (legality (b) and (c)), so each round is one gather and one
    scatter-max over levels already final.
    """
    levels = [k.intra_dag().levels() for k in kernels]
    depths = [int(lv.max(initial=-1)) + 1 for lv in levels]
    first_round = np.cumsum([0, *depths[:-1]])
    round_of = np.concatenate([lv + r for lv, r in zip(levels, first_round)])[dst]
    order = stable_argsort(round_of)
    src, dst = src[order], dst[order]
    ends = np.cumsum(np.bincount(round_of, minlength=sum(depths))).tolist()
    level = np.zeros(sum(k.n_iterations for k in kernels), dtype=np.int64)
    for lo, hi in zip([0, *ends[:-1]], ends):
        if hi > lo:
            np.maximum.at(level, dst[lo:hi], level[src[lo:hi]] + 1)
    return level


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
       *kernels* and used only if its order is legal (:func:`_order_holds`);
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
    index. ``joint`` tells a row program from a plan of kernel steps: its
    steps hold no precomputation, and ``rows`` holds the program's
    :attr:`RowProgram.arrays` and the vectors it copies in. Any other
    leaf raises ``TypeError``, and so does a bound plan (its steps hold
    values, which a pattern-keyed store must not) or a kernel level step
    without a precomputation (a record holds one for exactly its level
    steps, which is how a load tells them apart).
    """
    if plan.bound:
        raise TypeError("a bound plan holds values and is never stored")
    joint = plan.rows is not None
    if not joint and any(
        st.precomp is None and st.iters.shape[0] > 1 for st in plan.steps
    ):
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
        "joint": joint,
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
    if joint:
        header["rows"] = {
            "copy_in": [var for var, _, _ in plan.rows.copy_in],
            "arrays": skeleton(list(plan.rows.arrays)),
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
        joint = header["joint"]
        steps = [
            PlanStep(loop, arrays[iters], tree(precomp), s=s)
            for loop, s, iters, precomp in header["steps"]
        ]
        n_level, n_scalar, n_batched, n_merged = header["counts"]
        if joint is True:
            sizes = _checked_rows(schedule, kernels, steps)
            rows = header["rows"]
            program = tuple(tree(rows["arrays"]))
            copy_in = rows["copy_in"]
            if sizes is None or type(copy_in) is not list:
                return None
            where = _row_layout(kernels)
            if not _program_holds(where, sizes, program, copy_in):
                return None
            plan = _row_plan(
                schedule,
                kernels,
                steps,
                sizes,
                n_merged,
                RowProgram(where, sizes, program, copy_in),
            )
            if (plan.n_level_steps, plan.n_scalar_iterations) != (
                n_level,
                n_scalar,
            ) or plan.n_batched_iterations != n_batched:
                return None
            return plan
        if (
            joint is not False
            or not _order_holds(schedule, kernels, steps)
            or not _step_rule_holds(steps, n_level, n_scalar, n_batched)
            or not _row_blocks_hold(steps, kernels)
        ):
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


def _order_holds(
    schedule: FusedSchedule,
    kernels: list[Kernel],
    steps: list[PlanStep],
    units: np.ndarray | None = None,
) -> bool:
    """True when *steps* execute *schedule*'s vertices legally on
    *kernels*: each loop is valid, the steps' phases ``s`` never
    decrease along the list (the sanitizer models happens-before by
    them), every vertex appears exactly once, and every intra-DAG and
    ``F`` edge runs to a later dispatch. A dispatch is one step, or the
    steps of one entry of *units* (one per step) when given.
    """
    if [k.n_iterations for k in kernels] != list(schedule.loop_counts):
        return False
    n_vertices = schedule.n_vertices
    if not steps:
        return n_vertices == 0
    loops = np.array([st.loop for st in steps], dtype=np.int64)
    if loops.min() < 0 or loops.max() >= len(kernels):
        return False
    if np.any(np.diff(np.array([st.s for st in steps], dtype=np.int64)) < 0):
        return False
    iters = [st.iters for st in steps]
    if any(it.ndim != 1 or it.dtype.kind not in "iu" for it in iters):
        return False
    sizes = np.array([it.shape[0] for it in iters], dtype=np.int64)
    if np.any(sizes < 1) or int(sizes.sum()) != n_vertices:
        return False
    loop_of = np.repeat(loops, sizes)
    local = np.concatenate(iters).astype(np.int64)
    counts = np.asarray(schedule.loop_counts, dtype=np.int64)
    if np.any(local < 0) or np.any(local >= counts[loop_of]):
        return False
    verts = local + schedule.offsets[loop_of]
    unit_of = np.full(n_vertices, -1, dtype=np.int64)
    unit_of[verts] = np.repeat(
        np.arange(len(steps)) if units is None else units, sizes
    )
    if np.any(unit_of < 0):  # n slots, n vertices: some vertex repeats
        return False
    src, dst = _dependence_edges(schedule, kernels)
    return bool(np.all(unit_of[src] < unit_of[dst]))


def _step_rule_holds(
    steps: list[PlanStep], n_level: int, n_scalar: int, n_batched: int
) -> bool:
    """True when exactly the one-iteration kernel steps hold no
    precomputation and the header counts describe the steps."""
    sizes = np.array([st.iters.shape[0] for st in steps], dtype=np.int64)
    level = sizes > 1
    return not (
        any((st.precomp is None) == wide for st, wide in zip(steps, level))
        or int(level.sum()) != n_level
        or int(sizes[level].sum()) != n_batched
        or int((~level).sum()) != n_scalar
    )


def _checked_rows(
    schedule: FusedSchedule, kernels: list[Kernel], steps: list[PlanStep]
) -> np.ndarray | None:
    """The rows per dispatch of the row program whose dispatches *steps*
    describe, or ``None`` unless every loop is a linear-row kernel, no
    step holds a precomputation, the phases number the dispatches 0, 1,
    … in order and the order is legal with each phase one dispatch: no
    edge joins two rows of one dispatch or runs backwards."""
    if any(k.row_form is None for k in kernels) or any(
        st.precomp is not None for st in steps
    ):
        return None
    phases = np.array([st.s for st in steps], dtype=np.int64)
    if phases.shape[0] and (phases[0] != 0 or np.any(np.diff(phases) > 1)):
        return None
    if not _order_holds(schedule, kernels, steps, units=phases):
        return None
    return np.bincount(
        phases, weights=[st.iters.shape[0] for st in steps], minlength=0
    ).astype(np.int64)


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
    about to run — one level step, or one dispatch of a row program, is
    a concurrent unit — before anything runs. A state vector shorter than
    a compiled product reads (:attr:`ExecutionPlan.vectors`) raises
    ``ValueError`` before anything runs, too.
    """
    if plan is None:
        plan = plan_for(schedule, kernels)
    else:
        _check_plan_fits(plan, kernels, state)
    for var, size, name in plan.vectors:
        if len(state[var]) < size:
            raise ValueError(f"{var!r} holds {len(state[var])} values, {name} reads {size}")
    if sanitize:
        from ..obs.memtrace import sanitize_schedule

        sanitize_schedule(
            schedule, kernels, executor="plan", plan=plan
        ).raise_if_violations()
    rec = current_recorder()
    with rec.span(
        "executor.run", executor="planned", vertices=sum(plan.loop_counts)
    ):
        if plan.rows is not None:
            plan.rows.run(state)
        else:
            for kern in kernels:
                kern.setup(state)
            scratches = [k.make_scratch() for k in kernels]
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
