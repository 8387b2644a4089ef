"""Simulated multicore machine — the testbed stand-in (see DESIGN.md §2).

CPython's GIL rules out real fine-grained parallel fused loops, so the
performance substrate is a deterministic machine model that prices
exactly the three effects the paper's evaluation turns on:

* **synchronization** — each s-partition boundary costs a barrier
  (``barrier_cycles``), paid once per s-partition by every thread;
* **load balance** — an s-partition takes as long as its slowest
  w-partition (threads are pinned: w-partition ``w`` runs on thread
  ``w``), idle threads wait;
* **locality** — per-iteration memory cost comes either from the two-level
  LRU cache model (``fidelity="cache"``, Fig. 6) or from a flat
  per-touched-nonzero charge (``fidelity="flat"``, fast sweeps).

The compute charge is ``cycles_per_nnz * c(v) + cycles_per_iter`` with an
optional per-run ``efficiency`` multiplier (< 1 models hand-vectorized
library code like MKL; the schedule layout is unaffected).

Beyond the makespan, every run is fully **attributed**: the report
carries per-s-partition × per-thread cycle tables splitting the run
into compute, memory stall (hit/miss in cache fidelity), idle wait at
the s-partition barrier, and barrier cost itself. The tables satisfy
the conservation identity

    compute + memory + wait + barrier == makespan * n_threads

which :meth:`MachineReport.assert_conserved` checks and the test suite
asserts on every simulated run. They feed the Perfetto counter tracks
(:mod:`repro.runtime.trace`) and the schedule doctor
(:mod:`repro.analytics.doctor`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..kernels.base import Kernel
from ..obs import current as current_recorder
from ..obs import names
from ..obs.memtrace import collect_access_stream
from ..schedule.schedule import FusedSchedule
from ..utils.intsort import stable_argsort, stable_lexsort
from .cache import DRAM, L1, LLC, CacheConfig, cache_levels

__all__ = ["MachineConfig", "MachineReport", "SimulatedMachine"]


class MachineConfig:
    """Cost-model parameters of the simulated machine."""

    __slots__ = (
        "n_threads",
        "cycles_per_nnz",
        "cycles_per_iter",
        "barrier_cycles",
        "clock_ghz",
        "cache",
    )

    def __init__(
        self,
        n_threads: int = 20,
        *,
        cycles_per_nnz: float = 4.0,
        cycles_per_iter: float = 12.0,
        barrier_cycles: float = 2500.0,
        clock_ghz: float = 2.5,
        cache: CacheConfig | None = None,
    ):
        self.n_threads = int(n_threads)
        self.cycles_per_nnz = float(cycles_per_nnz)
        self.cycles_per_iter = float(cycles_per_iter)
        self.barrier_cycles = float(barrier_cycles)
        self.clock_ghz = float(clock_ghz)
        self.cache = cache if cache is not None else CacheConfig()


@dataclass
class MachineReport:
    """Result of one simulated execution.

    ``busy_cycles`` remains the (n_spartitions, n_threads) thread busy
    table; it always equals ``compute_cycles + memory_cycles``. The
    attribution tables share that shape. In flat fidelity memory cost is
    folded into the compute charge, so ``memory_cycles`` is zero; in
    cache fidelity it further splits into ``memory_hit_cycles`` (L1/LLC
    latency) and ``memory_miss_cycles`` (DRAM latency).
    """

    total_cycles: float
    spartition_cycles: list[float]
    busy_cycles: np.ndarray  # (n_spartitions, n_threads) thread busy time
    n_barriers: int
    cache_stats: dict[str, float] = field(default_factory=dict)
    #: per (s-partition, thread) pure-compute (ALU) cycles
    compute_cycles: np.ndarray | None = None
    #: per (s-partition, thread) memory-stall cycles (0 in flat fidelity)
    memory_cycles: np.ndarray | None = None
    #: cache fidelity only: memory cycles served by L1/LLC hits
    memory_hit_cycles: np.ndarray | None = None
    #: cache fidelity only: memory cycles served by DRAM
    memory_miss_cycles: np.ndarray | None = None
    #: the machine's per-s-partition barrier cost (cycles)
    barrier_cost_cycles: float = 0.0

    def __post_init__(self):
        # Reports built without explicit tables (tests, ad-hoc payloads)
        # still get a consistent attribution: all busy time is compute.
        if self.compute_cycles is None:
            self.compute_cycles = np.asarray(self.busy_cycles, dtype=float).copy()
        if self.memory_cycles is None:
            self.memory_cycles = np.zeros_like(self.compute_cycles)
        if self.memory_hit_cycles is None:
            self.memory_hit_cycles = np.zeros_like(self.compute_cycles)
        if self.memory_miss_cycles is None:
            self.memory_miss_cycles = np.zeros_like(self.compute_cycles)

    @property
    def seconds(self) -> float:
        """Wall-clock seconds at the configured clock (set by the machine)."""
        return self._seconds

    _seconds: float = 0.0

    @property
    def n_threads(self) -> int:
        """Thread count of the simulated machine."""
        return int(self.busy_cycles.shape[1]) if self.busy_cycles.ndim == 2 else 1

    # -- attribution tables (single source of truth) -------------------
    @property
    def wait_table(self) -> np.ndarray:
        """(n_sp, n_threads) idle-at-barrier cycles: slowest thread of
        each s-partition minus each thread's own busy time."""
        busy = self.busy_cycles
        if busy.size == 0:
            return np.zeros_like(busy, dtype=float)
        return busy.max(axis=1, initial=0.0)[:, None] - busy

    @property
    def barrier_table(self) -> np.ndarray:
        """(n_sp, n_threads) barrier-cost cycles (every thread pays the
        full barrier once per s-partition)."""
        return np.full_like(
            np.asarray(self.busy_cycles, dtype=float), self.barrier_cost_cycles
        )

    @property
    def wait_cycles(self) -> float:
        """Total thread wait (idle-at-barrier) cycles across s-partitions."""
        return float(self.wait_table.sum())

    def attribution(self) -> dict[str, float]:
        """Where the thread-cycles went: totals and shares per category.

        ``compute + memory + wait + barrier == makespan * n_threads``
        (the conservation identity); ``*_share`` entries divide by that
        total and sum to 1 on any non-empty run.
        """
        totals = {
            "compute_cycles": float(self.compute_cycles.sum()),
            "memory_cycles": float(self.memory_cycles.sum()),
            "wait_cycles": float(self.wait_table.sum()),
            "barrier_cycles": float(self.barrier_table.sum()),
        }
        denom = self.total_cycles * max(1, self.n_threads)
        for key in list(totals):
            totals[key.replace("_cycles", "_share")] = (
                totals[key] / denom if denom > 0 else 0.0
            )
        totals["makespan_cycles"] = float(self.total_cycles)
        totals["thread_cycles"] = denom if self.total_cycles > 0 else 0.0
        return totals

    def assert_conserved(self, rtol: float = 1e-9, atol: float = 1e-3) -> None:
        """Raise AssertionError unless the cycle-conservation identity
        ``compute + memory + wait + barrier == makespan * n_threads``
        holds (it must, for every fidelity/efficiency/override)."""
        lhs = (
            float(self.compute_cycles.sum())
            + float(self.memory_cycles.sum())
            + float(self.wait_table.sum())
            + float(self.barrier_table.sum())
        )
        rhs = self.total_cycles * self.n_threads
        if not np.isclose(lhs, rhs, rtol=rtol, atol=atol):
            raise AssertionError(
                f"cycle conservation violated: compute+memory+wait+barrier="
                f"{lhs!r} != makespan*n_threads={rhs!r} "
                f"(attribution {self.attribution()})"
            )

    def potential_gain(self, n_threads: int, barrier_cycles: float = 0.0) -> float:
        """VTune-style OpenMP potential gain: total parallel overhead
        (wait at barriers + barrier cost itself) divided by thread count."""
        overhead = self.wait_cycles + self.n_barriers * barrier_cycles * n_threads
        return float(overhead / max(1, n_threads))

    @property
    def avg_memory_latency(self) -> float:
        """Average cycles per element access (cache fidelity only)."""
        acc = self.cache_stats.get("accesses", 0.0)
        return self.cache_stats.get("cycles", 0.0) / acc if acc else 0.0


class SimulatedMachine:
    """Deterministic executor-timing model for fused schedules."""

    def __init__(self, config: MachineConfig | None = None):
        self.config = config if config is not None else MachineConfig()

    def _price_memory(
        self, schedule: FusedSchedule, kernels: list[Kernel]
    ) -> tuple[np.ndarray, np.ndarray, dict[str, float]]:
        """Cache-fidelity memory cycles per (s-partition, thread).

        Each thread's line stream is the program's
        :func:`~repro.obs.memtrace.collect_access_stream` under
        :func:`~repro.runtime.cache.line_layout`, stably sorted by
        ``(rank, slot)``: s-partitions in order, then the thread's
        w-partitions (``w % n_threads == thread``) ascending, then each
        w-partition's vertices in packed order, and within an iteration
        every ``read_vars`` then ``write_vars`` map slice in map order
        (one coalescing load per slice). All threads' streams are priced
        by one :func:`~repro.runtime.cache.cache_levels` call. Returns
        ``(hit_cycles, miss_cycles, cache_stats)``.
        """
        cfg = self.config
        cc = cfg.cache
        stream = collect_access_stream(schedule, kernels)
        sp, wp, pos = schedule.assignment()
        thread = wp % cfg.n_threads
        rank = np.empty(schedule.n_vertices, dtype=np.int64)  # in thread order
        rank[stable_lexsort((pos, wp, sp, thread))] = np.arange(schedule.n_vertices)
        n_slots = int(stream.slot.max(initial=0)) + 1
        call = rank[stream.gid] * n_slots + stream.slot
        order = stable_argsort(call)
        order = order[sp[stream.gid[order]] >= 0]  # unscheduled vertices never run
        gid = stream.gid[order]
        lines = stream.lines(cc.line_elems)[order]
        levels = cache_levels(lines, thread[gid], call[order], cc)

        n_cells = schedule.n_spartitions * cfg.n_threads
        counts = np.bincount(
            (sp[gid] * cfg.n_threads + thread[gid]) * 3 + levels, minlength=n_cells * 3
        ).reshape(schedule.n_spartitions, cfg.n_threads, 3)
        cycles = counts * cc.latencies
        totals = counts.sum(axis=(0, 1))
        stats = {
            "accesses": float(gid.shape[0]),
            "l1_hits": float(totals[L1]),
            "llc_hits": float(totals[LLC]),
            "misses": float(totals[DRAM]),
            "cycles": float(totals @ cc.latencies),
        }
        rec = current_recorder()
        if rec.enabled:
            rec.count(names.CACHE_ACCESSES, stats["accesses"])
            rec.count(names.CACHE_L1_HITS, stats["l1_hits"])
            rec.count(names.CACHE_LLC_HITS, stats["llc_hits"])
            rec.count(names.CACHE_MISSES, stats["misses"])
        return cycles[..., L1] + cycles[..., LLC], cycles[..., DRAM], stats

    def simulate(
        self,
        schedule: FusedSchedule,
        kernels: list[Kernel],
        *,
        fidelity: str = "flat",
        efficiency: float = 1.0,
        sequential_override: set[int] | None = None,
    ) -> MachineReport:
        """Price *schedule* on the simulated machine.

        Parameters
        ----------
        schedule:
            The fused schedule (global vertex ids over *kernels*).
        kernels:
            The fused loops in program order.
        fidelity:
            ``"flat"`` — memory cost folded into ``cycles_per_nnz``;
            ``"cache"`` — price each thread's access stream on the
            two-level LRU cache model (used by the locality experiments).
        efficiency:
            Compute-cost multiplier (< 1 = more optimized executor code).
        sequential_override:
            Loop indices forced to serialize onto one thread *within each
            w-partition set* — models library kernels that only ship a
            sequential implementation (MKL's ``dcsrilu0``).
        """
        cfg = self.config
        costs = np.concatenate([k.iteration_costs() for k in kernels])
        n_sp = schedule.n_spartitions
        comp = np.zeros((n_sp, cfg.n_threads))
        mem = np.zeros((n_sp, cfg.n_threads))
        mem_hit = np.zeros((n_sp, cfg.n_threads))
        mem_miss = np.zeros((n_sp, cfg.n_threads))
        sp_cycles: list[float] = []
        cache_stats: dict[str, float] = {}

        if fidelity == "cache":
            mem_hit, mem_miss, cache_stats = self._price_memory(schedule, kernels)
            mem = mem_hit + mem_miss

        loop_of = schedule.loop_of()

        for s, wlist in enumerate(schedule.s_partitions):
            for w, verts in enumerate(wlist):
                thread = w % cfg.n_threads
                compute = (
                    cfg.cycles_per_nnz * float(costs[verts].sum())
                    + cfg.cycles_per_iter * verts.shape[0]
                ) * efficiency
                if fidelity == "cache":
                    # In cache fidelity the flat per-nnz charge would
                    # double-count memory; keep only the iteration/ALU part.
                    compute = (
                        cfg.cycles_per_iter * verts.shape[0]
                        + 1.0 * float(costs[verts].sum())
                    ) * efficiency
                comp[s, thread] += compute
            if sequential_override:
                # serialize the override loops' work of this s-partition
                # onto thread 0 (in addition to their parallel cost removal)
                extra = 0.0
                for w, verts in enumerate(wlist):
                    thread = w % cfg.n_threads
                    sel = verts[np.isin(loop_of[verts], list(sequential_override))]
                    if sel.shape[0]:
                        c = (
                            cfg.cycles_per_nnz * float(costs[sel].sum())
                            + cfg.cycles_per_iter * sel.shape[0]
                        ) * efficiency
                        comp[s, thread] -= c
                        extra += c
                comp[s, 0] += extra
            busy_s = comp[s] + mem[s]
            sp_cycles.append(float(busy_s.max(initial=0.0)) + cfg.barrier_cycles)

        total = float(sum(sp_cycles))
        report = MachineReport(
            total_cycles=total,
            spartition_cycles=sp_cycles,
            busy_cycles=comp + mem,
            n_barriers=schedule.n_spartitions,
            cache_stats=cache_stats,
            compute_cycles=comp,
            memory_cycles=mem,
            memory_hit_cycles=mem_hit,
            memory_miss_cycles=mem_miss,
            barrier_cost_cycles=cfg.barrier_cycles,
        )
        report._seconds = total / (cfg.clock_ghz * 1e9)
        rec = current_recorder()
        if rec.enabled:
            attr = report.attribution()
            rec.count(names.EXECUTOR_SIM_COMPUTE_CYCLES, attr["compute_cycles"])
            rec.count(names.EXECUTOR_SIM_MEMORY_CYCLES, attr["memory_cycles"])
            rec.count(names.EXECUTOR_SIM_WAIT_CYCLES, attr["wait_cycles"])
            rec.count(names.EXECUTOR_SIM_BARRIER_CYCLES, attr["barrier_cycles"])
            rec.count(names.EXECUTOR_SIM_MAKESPAN_CYCLES, total)
        return report
