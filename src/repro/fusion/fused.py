"""The public sparse-fusion API: :func:`fuse` and :class:`FusedLoops`.

Mirrors the paper's driver (Listing 1): the inspector builds the
per-kernel DAGs, the inter-kernel dependency matrices ``F`` and the
reuse ratio, then ICO produces the ``FusedSchedule``; the executor runs
the fused code with that schedule. ``scheduler=`` also exposes the fused
baselines (wavefront / LBC / DAGP on the joint DAG), which share the
exact same executor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..graph.dag import DAG, share_pattern_analyses
from ..graph.interdep import InterDep
from ..graph.joint import build_joint_dag
from ..kernels.base import Kernel, State
from ..obs import current as current_recorder
from ..obs import names
from ..runtime.executor import allocate_state, execute_schedule, run_reference
from ..runtime.machine import MachineConfig, MachineReport, SimulatedMachine
from ..schedule.cache import ScheduleCache, get_default_cache, schedule_key
from ..schedule.dagp import dagp_schedule
from ..schedule.hdagg import hdagg_schedule
from ..schedule.ico import ico_schedule
from ..schedule.lbc import lbc_schedule
from ..schedule.schedule import (
    PLAN_STORE_KEY,
    RUNTIME_META_KEYS,
    FusedSchedule,
    validate_schedule,
)
from ..schedule.wavefront import wavefront_schedule
from .inspector import build_inter_dep, compute_reuse

__all__ = ["fuse", "FusedLoops", "inspect_loops", "repack_schedule"]

_JOINT_SCHEDULERS = {
    "joint-wavefront": wavefront_schedule,
    "joint-lbc": lbc_schedule,
    "joint-dagp": dagp_schedule,
    "joint-hdagg": hdagg_schedule,
}


@dataclass
class FusedLoops:
    """Result of fusing a sequence of sparse loops.

    Produced by :func:`fuse`; bundles the inspector outputs, the chosen
    schedule, and convenience executors.
    """

    kernels: list[Kernel]
    dags: list[DAG]
    inter: dict[tuple[int, int], InterDep]
    reuse_ratio: float
    schedule: FusedSchedule
    n_threads: int
    inspector_seconds: float
    meta: dict = field(default_factory=dict)

    def allocate_state(self) -> State:
        """Zeroed state covering every kernel variable."""
        return allocate_state(self.kernels)

    def execute(self, state: State) -> State:
        """Run the fused code sequentially-faithfully (numerics oracle)."""
        return execute_schedule(self.schedule, self.kernels, state)

    def reference(self, state: State) -> State:
        """Run the unfused sequential reference of all loops."""
        return run_reference(self.kernels, state)

    def simulate(
        self,
        config: MachineConfig | None = None,
        *,
        fidelity: str = "flat",
        efficiency: float = 1.0,
    ) -> MachineReport:
        """Price the schedule on the simulated machine (see DESIGN.md §2)."""
        cfg = config or MachineConfig(n_threads=self.n_threads)
        return SimulatedMachine(cfg).simulate(
            self.schedule, self.kernels, fidelity=fidelity, efficiency=efficiency
        )

    def validate(self) -> None:
        """Re-check the schedule against the DAGs and ``F`` matrices."""
        validate_schedule(self.schedule, self.dags, self.inter)

    @property
    def flop_count(self) -> float:
        """Theoretical flops of all fused loops."""
        return float(sum(k.flop_count() for k in self.kernels))


def inspect_loops(
    kernels: list[Kernel],
    *,
    consecutive_only: bool = False,
) -> tuple[list[DAG], dict[tuple[int, int], InterDep], float]:
    """Run the inspector: DAGs, inter-dependencies, reuse ratio.

    ``F`` matrices are built for every ordered loop pair sharing a
    variable (or only consecutive pairs when *consecutive_only* — the
    common case for unrolled solver chains where transitivity covers the
    rest; note this is only safe when non-consecutive pairs genuinely
    share nothing new, which :func:`fuse` checks by default).

    The reuse ratio of a multi-loop program is that of the first pair,
    matching the paper's pairwise processing.

    A loop whose intra-DAG has the same edges as an earlier loop's shares
    that DAG's structural analyses (:meth:`~repro.graph.dag.DAG.share_analyses`),
    so levels, heights and wavefronts are computed once per pattern —
    lazily, by whichever scheduler or plan compile asks first. Counter:
    ``inspector.shared_dag_analyses``.
    """
    rec = current_recorder()
    with rec.span("inspector.intra_dags", loops=len(kernels)) as sp:
        dags = [k.intra_dag() for k in kernels]
        n_shared = share_pattern_analyses(dags)
        sp.set(shared=n_shared)
    inter: dict[tuple[int, int], InterDep] = {}
    with rec.span("inspector.inter_dep") as sp:
        for a in range(len(kernels)):
            b_range = (
                range(a + 1, min(a + 2, len(kernels)))
                if consecutive_only
                else range(a + 1, len(kernels))
            )
            for b in b_range:
                f = build_inter_dep(kernels[a], kernels[b])
                if f.nnz:
                    inter[(a, b)] = f
        sp.set(pairs=len(inter))
    with rec.span("inspector.reuse"):
        reuse = compute_reuse(kernels[0], kernels[1]) if len(kernels) > 1 else 0.0
    rec.count(names.INSPECTOR_VERTICES, sum(d.n for d in dags))
    rec.count(names.INSPECTOR_INTRA_EDGES, sum(d.n_edges for d in dags))
    rec.count(names.INSPECTOR_INTER_EDGES, sum(f.nnz for f in inter.values()))
    rec.count(names.INSPECTOR_SHARED_DAG_ANALYSES, n_shared)
    return dags, inter, reuse


def fuse(
    kernels: list[Kernel],
    n_threads: int = 8,
    *,
    scheduler: str = "ico",
    reuse_ratio: float | None = None,
    validate: bool = True,
    cache: "ScheduleCache | None" = None,
    **scheduler_kwargs,
) -> FusedLoops:
    """Fuse *kernels* (program order) into one parallel schedule.

    Parameters
    ----------
    kernels:
        Two or more loops; at least one with loop-carried dependencies is
        the paper's target case, but parallel-parallel combinations work
        too (Fig. 10).
    n_threads:
        Requested w-partitions per s-partition (``r`` in the paper).
    scheduler:
        ``"ico"`` (sparse fusion) or one of the fused baselines
        ``"joint-wavefront"`` / ``"joint-lbc"`` / ``"joint-dagp"``.
    reuse_ratio:
        Override the inspector's reuse metric (packing selection).
    validate:
        Double-check the schedule against the dependence oracle.
    cache:
        A :class:`repro.schedule.cache.ScheduleCache`; when ``None`` the
        process-wide default (``set_default_cache``) is consulted. On a
        pattern-fingerprint hit the scheduling stage is skipped entirely.
        The cache is also bound to the returned schedule (a runtime-only
        ``meta`` entry), so :func:`repro.runtime.plan.plan_for` stores its
        compiled plans there and a later process skips plan compile.
    scheduler_kwargs:
        Forwarded to the scheduler (e.g. LBC's ``initial_cut``).

    Returns
    -------
    FusedLoops
        Inspector outputs + schedule + executors. ``inspector_seconds``
        records the wall-clock inspection cost (DAGs, ``F``, scheduling),
        the quantity on the y-axis of Fig. 7.
    """
    if len(kernels) < 2:
        raise ValueError("fuse() needs at least two loops")
    if scheduler != "ico" and scheduler not in _JOINT_SCHEDULERS:
        raise ValueError(
            f"unknown scheduler {scheduler!r}; expected 'ico' or one of "
            f"{sorted(_JOINT_SCHEDULERS)}"
        )
    if cache is None:
        cache = get_default_cache()
    rec = current_recorder()
    cache_state = None
    with rec.span("inspector", scheduler=scheduler, loops=len(kernels)) as inspect_span:
        dags, inter, measured_reuse = inspect_loops(kernels)
        reuse = measured_reuse if reuse_ratio is None else float(reuse_ratio)
        rec.event("inspector.reuse_ratio", value=reuse)
        sched = key = None
        if cache is not None:
            with rec.span("inspector.cache_lookup"):
                key = schedule_key(
                    dags, inter, scheduler, n_threads, reuse, scheduler_kwargs
                )
                sched = cache.get(key)
            cache_state = "miss" if sched is None else "hit"
            rec.count(
                names.INSPECTOR_CACHE_MISSES
                if sched is None
                else names.INSPECTOR_CACHE_HITS,
                1,
            )
        if sched is None:
            if scheduler == "ico":
                sched = ico_schedule(
                    dags, inter, n_threads, reuse, **scheduler_kwargs
                )
            else:
                with rec.span(f"schedule.{scheduler}"):
                    sched = _schedule_joint(
                        scheduler, dags, inter, n_threads, reuse, **scheduler_kwargs
                    )
            if cache is not None:
                cache.put(key, sched)
        if cache is not None:
            # plan_for stores and finds this schedule's compiled plans here
            sched.meta[PLAN_STORE_KEY] = cache
    inspector_seconds = inspect_span.seconds
    rec.count(names.INSPECTOR_SECONDS, inspector_seconds)
    fused = FusedLoops(
        kernels=list(kernels),
        dags=dags,
        inter=inter,
        reuse_ratio=reuse,
        schedule=sched,
        n_threads=n_threads,
        inspector_seconds=inspector_seconds,
        meta={"scheduler": scheduler, "cache": cache_state},
    )
    if validate:
        fused.validate()
    return fused


def _schedule_joint(name, dags, inter, n_threads, reuse, *, chordalize=False, **kwargs):
    """Fused baselines: scheduler on the explicit joint DAG.

    All fused approaches use sparse fusion's packing (as in the paper's
    setup): the joint scheduler fixes (s, w) placement; vertices within a
    w-partition are re-packed separated/interleaved by the reuse ratio.

    ``chordalize=True`` (joint-lbc only) first closes the joint DAG under
    the elimination game, the step the paper reports as "typically
    consuming 64% of [fused LBC's] inspection time". Our LBC variant is
    component-based and does not *need* chordality, so this is off by
    default and enabled by the inspection-cost experiments (Figs. 7–8).
    """
    joint = build_joint_dag(dags, inter)
    if chordalize and name == "joint-lbc":
        from ..graph.chordal import ChordalizationError
        from ..graph.chordal import chordalize as _chordalize

        try:
            joint = _chordalize(joint, max_fill_factor=20.0)
        except ChordalizationError:
            pass  # fill blow-up (the paper's DAGP OOM analogue): skip
    sched = _JOINT_SCHEDULERS[name](joint, n_threads, **kwargs)
    packing = "interleaved" if reuse >= 1.0 else "separated"
    repacked = _repack(sched, dags, inter, packing)
    repacked.meta.update(sched.meta)
    repacked.meta["joint"] = True
    return repacked


def _repack(sched, dags, inter, packing):
    """Apply sparse-fusion packing inside each w-partition of *sched*."""
    from ..schedule.ico import _IcoBuilder

    loop_counts = tuple(d.n for d in dags)
    builder = _IcoBuilder(dags, inter, 1)
    builder._build_global_adjacency()
    new_sparts = builder.repack_partitions(sched.s_partitions, packing)
    return FusedSchedule(loop_counts, new_sparts, packing=packing)


def repack_schedule(
    schedule: FusedSchedule,
    dags: list[DAG],
    inter: dict[tuple[int, int], InterDep],
    packing: str,
) -> FusedSchedule:
    """*schedule* with each w-partition re-packed (Fig. 3's two variants).

    Keeps every (s, w) placement and only reorders vertices inside each
    w-partition into ``"interleaved"`` (dependence-topological mix of the
    loops) or ``"separated"`` (loop-major) order — the counterfactual the
    measured-locality profiler (:mod:`repro.analytics.locality`) compares
    the chosen packing against.
    """
    if packing not in ("interleaved", "separated"):
        raise ValueError(
            f"unknown packing {packing!r}; expected 'interleaved' or 'separated'"
        )
    repacked = _repack(schedule, dags, inter, packing)
    repacked.meta.update(
        {k: v for k, v in schedule.meta.items() if k not in RUNTIME_META_KEYS}
    )
    return repacked
