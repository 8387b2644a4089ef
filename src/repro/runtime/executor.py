"""Schedule executors.

Two executors share the same contract — given a valid schedule, the final
state must equal the unfused sequential reference:

* ``iter`` — :func:`execute_schedule` here runs iterations one at a time
  in schedule order (s-partitions in sequence; within an s-partition,
  w-partitions back to back; within a w-partition, the packed order).
  Any *valid* schedule executed this way is equivalent to some legal
  parallel interleaving, so this is the numerical oracle for schedulers.
* ``plan`` — :func:`repro.runtime.plan.execute_schedule_planned` runs a
  compiled plan of vectorized level steps (the fast executor).

Neither runs w-partitions on real threads. The dependence sanitizer
(:func:`repro.obs.memtrace.sanitize_schedule`) proves a schedule
race-free with its w-partitions concurrent, against each executor's
happens-before order.

Both variants of the paper's fused transformation (Fig. 3) collapse to
the same execution here: *separated* and *interleaved* differ only in
the vertex order stored inside each w-partition, which the schedule
already encodes.
"""

from __future__ import annotations

from ..kernels.base import Kernel, State, make_state
from ..obs import current as current_recorder
from ..obs import names
from ..schedule.schedule import FusedSchedule, check_loop_counts

__all__ = ["execute_schedule", "run_reference", "allocate_state"]


def allocate_state(kernels: list[Kernel], *, fill: float = 0.0) -> State:
    """Allocate a state covering every variable of *kernels* (zeroed)."""
    sizes: dict[str, int] = {}
    for k in kernels:
        for var, size in k.var_sizes().items():
            if var in sizes and sizes[var] != size:
                raise ValueError(
                    f"variable {var!r} has conflicting sizes "
                    f"{sizes[var]} vs {size}"
                )
            sizes[var] = size
    return make_state(sizes, fill=fill)


def run_reference(kernels: list[Kernel], state: State) -> State:
    """Run every kernel's sequential reference in program order."""
    for k in kernels:
        k.run_reference(state)
    return state


def execute_schedule(
    schedule: FusedSchedule,
    kernels: list[Kernel],
    state: State,
    *,
    sanitize: bool = False,
) -> State:
    """Execute *schedule* against *state* (sequential-faithful order).

    Kernel ``setup`` hooks run first (they only touch kernel-owned
    outputs, so running them all upfront is safe); then every vertex in
    schedule order. Returns the mutated state.

    With ``sanitize=True`` the dynamic dependence sanitizer
    (:func:`repro.obs.memtrace.sanitize_schedule`) shadow-checks every
    memory dependence under this executor's happens-before model first,
    raising :class:`~repro.obs.memtrace.DependenceViolationError` before
    any kernel code runs.
    """
    if sanitize:
        from ..obs.memtrace import sanitize_schedule

        sanitize_schedule(schedule, kernels, executor="iter").raise_if_violations()
    check_loop_counts(kernels, schedule.loop_counts)
    offsets = schedule.offsets
    for kern in kernels:
        kern.setup(state)
    scratches = [k.make_scratch() for k in kernels]
    loop_of = schedule.loop_of()
    rec = current_recorder()
    with rec.span(
        "executor.run", executor="sequential", vertices=schedule.n_vertices
    ):
        for s, wlist in enumerate(schedule.s_partitions):
            with rec.span("executor.spartition", s=s, width=len(wlist)):
                for w, verts in enumerate(wlist):
                    with rec.span(
                        "executor.wpartition",
                        s=s,
                        w=w,
                        iterations=int(verts.shape[0]),
                    ):
                        for v in verts.tolist():
                            k = int(loop_of[v])
                            kernels[k].run_iteration(
                                v - int(offsets[k]), state, scratches[k]
                            )
        rec.count(names.EXECUTOR_ITERATIONS, schedule.n_vertices)
    return state
