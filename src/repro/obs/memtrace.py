"""Memory-access observability: the dynamic dependence sanitizer.

The static oracle (:func:`repro.schedule.schedule.validate_schedule`)
checks a schedule against the *declared* dependence graphs (intra-DAGs
plus the inspector's ``F`` matrices). This module checks the same
schedule against the *memory accesses themselves*: it replays the
per-iteration element-granular read/write sets every kernel already
declares (:meth:`~repro.kernels.base.Kernel.reads_of` /
:meth:`~repro.kernels.base.Kernel.writes_of`) and verifies that every
conflicting access pair — read-after-write, write-after-read,
write-after-write on the same ``(variable, element)`` — is ordered by
the schedule's happens-before relation:

    ``HB(u, v)  ⟺  s(u) < s(v)``  (barrier between s-partitions)
    ``          or s(u) = s(v) ∧ w(u) = w(v) ∧ t(u) < t(v)``

where ``t`` is the executor's *dispatch* index. Because ``t`` depends
on how an executor groups iterations, the sanitizer models both
executors:

* ``"iter"`` — one dispatch per iteration (packed order within the
  w-partition);
* ``"plan"`` — one dispatch per compiled
  :class:`~repro.runtime.plan.PlanStep`, numbered per plan phase (a
  step may span several w-partitions): a level batch's members are
  concurrent, so the level-batching legality argument in
  docs/performance.md is checked dynamically here, not just argued.
  ``s`` is the step's happens-before phase: its s-partition in an
  unmerged plan, its own index in a plan whose steps merge across
  s-partitions (only a schedule that meets its contract is merged). In
  a row program every step of one phase belongs to one dispatch of
  stacked row blocks, so all of them are concurrent.

The rule keeps requiring ``w(u) = w(v)`` inside one phase, so a
dependence between two w-partitions of the same s-partition is reported
even when the plan happens to order it.

Commutative scatter accumulations (``y[rows] += ...`` under the paper's
``Atomic`` annotation) are declared per kernel via
:attr:`~repro.kernels.base.Kernel.atomic_update_vars`: two such update
accesses of the *same* kernel commute and need no ordering. All other
conflicts — including a plain (consuming) read against an update, and
any cross-kernel conflict — are checked.

Soundness of the pair derivation: per ``(variable, element)`` the
program-ordered access sequence is split into *layers* — a single
exclusive write, a maximal run of plain reads, or a maximal run of
same-kernel commutative updates — and every cross pair of adjacent
layers is checked. Adjacent layers always conflict (two read layers
merge; two same-kernel update layers merge), so the checked pairs chain
transitively through every layer: any conflicting pair in the sequence
is ordered if and only if all checked pairs are. This keeps the pair
count linear-ish in the access-stream size instead of quadratic.

Entry point: :func:`sanitize_schedule`, surfaced as ``sanitize=True``
on both ``execute_schedule*`` functions and as ``repro sanitize``
/ ``--sanitize`` on the CLI.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..kernels.base import Kernel
from ..runtime.cache import line_layout
from ..schedule.schedule import (
    FusedSchedule,
    ScheduleError,
    check_loop_counts,
    happens_before,
)
from ..sparse.base import INDEX_DTYPE
from ..utils.arrays import multi_range
from ..utils.intsort import stable_lexsort
from . import names
from .recorder import current as current_recorder

__all__ = [
    "AccessStream",
    "DependencePairs",
    "AccessSite",
    "Violation",
    "SanitizeReport",
    "DependenceViolationError",
    "collect_access_stream",
    "derive_dependence_pairs",
    "execution_coordinates",
    "sanitize_schedule",
]

#: access-kind codes in the stream (``update`` = commutative RMW)
READ, WRITE, UPDATE = 0, 1, 2

_KIND_LABEL = {
    (WRITE, READ): "RAW",
    (UPDATE, READ): "RAW",
    (READ, WRITE): "WAR",
    (READ, UPDATE): "WAR",
    (WRITE, WRITE): "WAW",
    (WRITE, UPDATE): "WAW",
    (UPDATE, WRITE): "WAW",
    (UPDATE, UPDATE): "WAW",
}


@dataclass
class AccessStream:
    """Flat element-granular access stream of a whole fused program.

    One entry per declared ``(vertex, variable, element, kind)`` access:
    the one walk of the kernels' access maps shared by the sanitizer,
    the cache-fidelity machine and the locality profiler. Entries are in
    no particular order until a consumer sorts them; within one
    ``(gid, slot)`` they keep map order.
    """

    var: np.ndarray  #: variable id (index into :attr:`var_names`)
    elem: np.ndarray  #: element index within the variable
    gid: np.ndarray  #: global vertex id (program order)
    kind: np.ndarray  #: READ / WRITE / UPDATE
    loop: np.ndarray  #: loop (kernel) index of the vertex
    #: map slice within the iteration: ``read_vars`` then ``write_vars``,
    #: each in declaration order (one coalescing load per slice)
    slot: np.ndarray
    write: np.ndarray  #: True for entries of a write map
    var_names: tuple[str, ...]  #: sorted
    var_sizes: tuple[int, ...]  #: element count per variable
    n_vertices: int

    @property
    def n_accesses(self) -> int:
        return int(self.var.shape[0])

    def lines(self, line_elems: int) -> np.ndarray:
        """Cache line of every entry under
        :func:`repro.runtime.cache.line_layout`."""
        base = line_layout(dict(zip(self.var_names, self.var_sizes)), line_elems)
        var_base = np.array([base[v] for v in self.var_names], dtype=np.int64)
        return var_base[self.var] + self.elem // line_elems


@dataclass
class DependencePairs:
    """Program-ordered conflicting access pairs that require ordering."""

    u_gid: np.ndarray  #: earlier access's vertex (program order)
    v_gid: np.ndarray  #: later access's vertex
    var: np.ndarray  #: variable id of the conflict
    elem: np.ndarray  #: element index of the conflict
    kind_u: np.ndarray
    kind_v: np.ndarray

    @property
    def n_pairs(self) -> int:
        return int(self.u_gid.shape[0])


@dataclass(frozen=True)
class AccessSite:
    """Provenance of one access: which iteration, placed where."""

    loop: int
    iteration: int
    vertex: int
    s: int
    w: int
    t: int

    def describe(self) -> str:
        return (
            f"loop {self.loop} iter {self.iteration} "
            f"(vertex {self.vertex}, s={self.s}, w={self.w}, t={self.t})"
        )


@dataclass(frozen=True)
class Violation:
    """One dependence the schedule fails to order.

    ``producer`` is the program-order-earlier access, ``consumer`` the
    later one; the schedule must make ``producer`` happen before
    ``consumer`` and does not.
    """

    kind: str  # "RAW" | "WAR" | "WAW"
    var: str
    index: int
    producer: AccessSite
    consumer: AccessSite

    def describe(self) -> str:
        return (
            f"{self.kind} on {self.var}[{self.index}]: "
            f"{self.producer.describe()} must precede "
            f"{self.consumer.describe()}"
        )


class DependenceViolationError(ScheduleError):
    """Raised when the sanitizer finds unordered dependences."""

    def __init__(self, report: "SanitizeReport"):
        self.report = report
        super().__init__(report.summary())


@dataclass
class SanitizeReport:
    """Outcome of one sanitizer run against one executor model."""

    executor: str
    n_accesses: int
    n_pairs: int
    n_violations: int
    violations: list[Violation] = field(default_factory=list)  # capped
    seconds: float = 0.0

    @property
    def clean(self) -> bool:
        return self.n_violations == 0

    def summary(self) -> str:
        if self.clean:
            return (
                f"sanitizer[{self.executor}]: clean — {self.n_pairs} "
                f"dependence pairs over {self.n_accesses} accesses"
            )
        head = self.violations[0].describe() if self.violations else ""
        return (
            f"sanitizer[{self.executor}]: {self.n_violations} dependence "
            f"violation(s) in {self.n_pairs} pairs; first: {head}"
        )

    def format(self, *, max_lines: int = 10) -> str:
        lines = [self.summary()]
        for v in self.violations[:max_lines]:
            lines.append(f"  - {v.describe()}")
        if self.n_violations > len(self.violations[:max_lines]):
            lines.append(
                f"  ... {self.n_violations - len(self.violations[:max_lines])}"
                " more"
            )
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "executor": self.executor,
            "clean": self.clean,
            "n_accesses": self.n_accesses,
            "n_pairs": self.n_pairs,
            "n_violations": self.n_violations,
            "seconds": self.seconds,
            "violations": [
                {
                    "kind": v.kind,
                    "var": v.var,
                    "index": v.index,
                    "producer": vars(v.producer),
                    "consumer": vars(v.consumer),
                }
                for v in self.violations
            ],
        }

    def raise_if_violations(self) -> None:
        if not self.clean:
            raise DependenceViolationError(self)


# ----------------------------------------------------------------------
# access-stream collection
# ----------------------------------------------------------------------
def collect_access_stream(
    schedule: FusedSchedule, kernels: list[Kernel]
) -> AccessStream:
    """Assemble the element-granular access stream of *kernels*.

    Walks each kernel's memoized access maps
    (:meth:`~repro.kernels.base.Kernel.access_maps`), one slot per
    ``read_vars`` then ``write_vars`` entry; accesses of a variable kind
    declared in ``atomic_update_vars`` enter the stream as UPDATE
    entries.
    """
    offsets = schedule.offsets
    sizes: dict[str, int] = {}
    for kern in kernels:
        for var, size in kern.var_sizes().items():
            sizes[var] = max(int(size), sizes.get(var, 0))
    var_names = tuple(sorted({v for k in kernels for v in k.all_vars}))
    var_id = {v: i for i, v in enumerate(var_names)}
    meta: list[tuple[int, int, int, int, bool]] = []  # per map slice
    elems = [np.empty(0, dtype=np.int64)]
    gids = [np.empty(0, dtype=np.int64)]
    for ki, kern in enumerate(kernels):
        upd = getattr(kern, "atomic_update_vars", {})
        iters = np.arange(kern.n_iterations, dtype=np.int64) + int(offsets[ki])
        slices = [(v, False) for v in kern.read_vars]
        slices += [(v, True) for v in kern.write_vars]
        for slot, (var, is_write) in enumerate(slices):
            indptr, idx = kern.access_maps(var)[is_write]
            kind = WRITE if is_write else READ
            if ("write" if is_write else "read") in upd.get(var, ()):
                kind = UPDATE
            meta.append((var_id[var], kind, ki, slot, is_write))
            elems.append(np.asarray(idx, dtype=np.int64))
            gids.append(np.repeat(iters, np.diff(indptr)))
    # one row per column (var, kind, loop, slot, write), one entry per access
    counts = [e.shape[0] for e in elems[1:]]
    table = np.repeat(np.array(meta, dtype=np.int64).reshape(-1, 5).T, counts, axis=1)
    var, kind, loop, slot, write = table
    return AccessStream(
        var=var,
        elem=np.concatenate(elems),
        gid=np.concatenate(gids),
        kind=kind.astype(np.int8),
        loop=loop,
        slot=slot,
        write=write.astype(bool),
        var_names=var_names,
        var_sizes=tuple(sizes.get(v, 0) for v in var_names),
        n_vertices=schedule.n_vertices,
    )


# ----------------------------------------------------------------------
# dependence-pair derivation (vectorized layer adjacency)
# ----------------------------------------------------------------------
def derive_dependence_pairs(stream: AccessStream) -> DependencePairs:
    """All conflicting access pairs the schedule must order.

    See the module docstring for the layer construction and why
    adjacent-layer cross pairs are sufficient (transitive chaining).
    """
    n = stream.n_accesses
    empty = np.empty(0, dtype=np.int64)
    if n == 0:
        return DependencePairs(empty, empty, empty, empty, empty, empty)
    order = stable_lexsort((stream.kind, stream.gid, stream.elem, stream.var))
    var = stream.var[order]
    elem = stream.elem[order]
    gid = stream.gid[order]
    kind = stream.kind[order].astype(np.int64)
    loop = stream.loop[order]
    # Collapse duplicate (var, elem, gid) entries to the strongest kind
    # (READ < WRITE < UPDATE): an iteration reading an element it also
    # writes imposes no extra cross-iteration ordering beyond the write,
    # and a commutative RMW's read and write halves are one update.
    dup = (var[1:] == var[:-1]) & (elem[1:] == elem[:-1]) & (gid[1:] == gid[:-1])
    keep = np.concatenate([~dup, [True]])  # last of each run = max kind
    var, elem, gid, kind, loop = (
        a[keep] for a in (var, elem, gid, kind, loop)
    )
    n = var.shape[0]
    # Segments: one per (var, elem); layers within a segment.
    seg_start = np.empty(n, dtype=bool)
    seg_start[0] = True
    seg_start[1:] = (var[1:] != var[:-1]) | (elem[1:] != elem[:-1])
    cont = np.zeros(n, dtype=bool)
    cont[1:] = ~seg_start[1:] & (
        ((kind[1:] == READ) & (kind[:-1] == READ))
        | (
            (kind[1:] == UPDATE)
            & (kind[:-1] == UPDATE)
            & (loop[1:] == loop[:-1])
        )
    )
    layer_break = ~cont
    layer_id = np.cumsum(layer_break) - 1  # per entry
    layer_starts = np.nonzero(layer_break)[0]  # per layer
    # Entries whose layer opens a segment pair with nothing; all others
    # pair with every member of the previous layer (same segment).
    first_in_seg = seg_start[layer_starts[layer_id]]
    prev_start = np.where(
        layer_id > 0, layer_starts[np.maximum(layer_id - 1, 0)], 0
    )
    prev_end = layer_starts[layer_id]
    counts = np.where(first_in_seg, 0, prev_end - prev_start)
    v_idx = np.repeat(np.arange(n, dtype=INDEX_DTYPE), counts)
    u_idx = multi_range(prev_start, counts)
    return DependencePairs(
        u_gid=gid[u_idx],
        v_gid=gid[v_idx],
        var=var[u_idx],
        elem=elem[u_idx],
        kind_u=kind[u_idx],
        kind_v=kind[v_idx],
    )


# ----------------------------------------------------------------------
# per-executor happens-before coordinates
# ----------------------------------------------------------------------
def execution_coordinates(
    schedule: FusedSchedule,
    kernels: list[Kernel],
    executor: str = "iter",
    *,
    plan=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-vertex ``(s, w, t)`` happens-before coordinates.

    ``s`` is the sequential phase: the s-partition for ``"iter"``, the
    phase of the vertex's plan step for ``"plan"``
    (:attr:`~repro.runtime.plan.PlanStep.s` — the s-partition in an
    unmerged plan, the step's own index in a merged one). ``w`` is the
    schedule's w-partition under both. ``t`` is the dispatch index
    within the vertex's phase: per iteration in the w-partition for
    ``"iter"``, per plan step for ``"plan"`` — except in a row program,
    whose every phase is one dispatch, so all its steps share ``t = 0``.
    Vertices sharing a ``t`` are concurrent (one level step, or one
    dispatch of stacked row blocks). The ``"plan"`` coordinates are
    those of *plan* when given, else of ``plan_for(schedule, kernels)``.
    Raises ``ValueError``, naming the step, when a step's phase is lower
    than its predecessor's: the executor runs steps in list order, which
    the phases would then misstate.
    """
    sp, wp, pos = schedule.assignment()
    sp = sp.astype(np.int64)
    wp = wp.astype(np.int64)
    if executor == "iter":
        return sp, wp, pos.astype(np.int64)
    if executor != "plan":
        raise ValueError(
            f"unknown executor {executor!r}; expected 'iter' or 'plan'"
        )
    if plan is None:
        from ..runtime.plan import plan_for

        plan = plan_for(schedule, kernels)
    else:
        check_loop_counts(kernels, plan.loop_counts, "plan")
    offsets = schedule.offsets
    phase = np.full(schedule.n_vertices, -1, dtype=np.int64)
    tt = np.zeros(schedule.n_vertices, dtype=np.int64)
    next_t: dict[int, int] = {}
    joint = plan.rows is not None
    for i, step in enumerate(plan.steps):
        if i and step.s < plan.steps[i - 1].s:
            raise ValueError(
                f"plan step {i} (loop {step.loop}) has phase s={step.s} after "
                f"step {i - 1}'s s={plan.steps[i - 1].s}: the executor runs "
                "steps in list order, so phases must not decrease along it"
            )
        # a row program runs each phase as one dispatch of all its steps
        t = 0 if joint else next_t.get(step.s, 0)
        gids = np.asarray(step.iters, dtype=np.int64) + int(offsets[step.loop])
        phase[gids] = step.s
        tt[gids] = t  # one dispatch, concurrent when it is a level step
        next_t[step.s] = t + 1
    return phase, wp, tt


# ----------------------------------------------------------------------
# the sanitizer
# ----------------------------------------------------------------------
def sanitize_schedule(
    schedule: FusedSchedule,
    kernels: list[Kernel],
    *,
    executor: str = "iter",
    plan=None,
    max_violations: int = 50,
) -> SanitizeReport:
    """Shadow-execute *schedule* and check every memory dependence.

    Under ``executor="plan"`` the happens-before model is that of *plan*
    (an :class:`~repro.runtime.plan.ExecutionPlan` of *schedule* on
    *kernels*) when one is given, as the plan executor does with the plan
    it is about to run; otherwise it is that of the plan
    :func:`~repro.runtime.plan.plan_for` finds or compiles. A plan whose
    step phases decrease along its step list is rejected with
    ``ValueError`` (see :func:`execution_coordinates`).

    Returns a :class:`SanitizeReport`; call
    :meth:`SanitizeReport.raise_if_violations` (or pass
    ``sanitize=True`` to an executor) to turn violations into a
    :class:`DependenceViolationError`. Reported violations are capped at
    *max_violations* (the count is exact either way).
    """
    check_loop_counts(kernels, schedule.loop_counts)
    t0 = time.perf_counter()
    rec = current_recorder()
    with rec.span(
        "sanitize.run", executor=executor, vertices=schedule.n_vertices
    ) as span:
        sp, wp, tt = execution_coordinates(schedule, kernels, executor, plan=plan)
        if np.any(sp < 0):
            missing = np.nonzero(sp < 0)[0]
            raise ScheduleError(
                f"sanitizer needs a complete schedule: "
                f"{missing.shape[0]} unscheduled vertices, e.g. {missing[:5]}"
            )
        stream = collect_access_stream(schedule, kernels)
        pairs = derive_dependence_pairs(stream)
        u, v = pairs.u_gid, pairs.v_gid
        ordered = happens_before(sp, wp, tt, u, v)
        bad = np.nonzero(~ordered)[0]
        violations: list[Violation] = []
        if bad.size:
            # one report per distinct (u, v, var, dep-kind); elements of
            # the same broken pair are redundant provenance
            labels = np.array(
                [
                    _KIND_LABEL[(int(pairs.kind_u[i]), int(pairs.kind_v[i]))]
                    for i in bad
                ]
            )
            keys = np.stack(
                [u[bad], v[bad], pairs.var[bad], pairs.elem[bad]], axis=1
            )
            seen: set[tuple] = set()
            offsets = schedule.offsets
            for row, (ug, vg, var_i, elem_i) in enumerate(keys.tolist()):
                label = str(labels[row])
                dedup = (ug, vg, var_i, label)
                if dedup in seen:
                    continue
                seen.add(dedup)
                if len(violations) < max_violations:
                    violations.append(
                        Violation(
                            kind=label,
                            var=stream.var_names[var_i],
                            index=int(elem_i),
                            producer=_site(ug, schedule, offsets, sp, wp, tt),
                            consumer=_site(vg, schedule, offsets, sp, wp, tt),
                        )
                    )
            n_violations = len(seen)
        else:
            n_violations = 0
        seconds = time.perf_counter() - t0
        report = SanitizeReport(
            executor=executor,
            n_accesses=stream.n_accesses,
            n_pairs=pairs.n_pairs,
            n_violations=n_violations,
            violations=violations,
            seconds=seconds,
        )
        span.set(pairs=pairs.n_pairs, violations=n_violations)
        if rec.enabled:
            rec.count(names.SANITIZE_ACCESSES, stream.n_accesses)
            rec.count(names.SANITIZE_PAIRS, pairs.n_pairs)
            rec.count(names.SANITIZE_VIOLATIONS, n_violations)
            rec.count(names.SANITIZE_SECONDS, seconds)
    return report


def _site(gid, schedule, offsets, sp, wp, tt) -> AccessSite:
    loop = int(np.searchsorted(offsets, gid, side="right") - 1)
    return AccessSite(
        loop=loop,
        iteration=int(gid - offsets[loop]),
        vertex=int(gid),
        s=int(sp[gid]),
        w=int(wp[gid]),
        t=int(tt[gid]),
    )
