"""Measured-locality profiler: reuse distances from the real access stream.

The inspector's ``compute_reuse`` (Sec. 2.2, used for the Fig. 3 packing
decision) *estimates* data reuse from variable sizes. This module
*measures* it. It runs the schedule on the cache-fidelity machine
(:meth:`repro.runtime.machine.SimulatedMachine.simulate`) and reads
every number off that run's one per-thread line replay
(:class:`~repro.runtime.machine.LineReplay`: each thread's accesses in
execution order, coalesced per load, priced on its L1 and LLC slice):

* **reuse-distance histograms** per w-partition (each access's exact L1
  stack distance on its thread's stream, from
  :func:`repro.runtime.cache.stack_distances` — the one exact count a
  profile runs), and the L1 hit rate;
* **working sets**: distinct cache lines touched per w-partition and
  per s-partition;
* a **measured reuse ratio** — the paper's
  ``2 * common / max(total1, total2)`` metric computed from the
  *observed* distinct ``(variable, element)`` footprints of the first
  kernel pair, directly comparable to the estimate;
* the **counterfactual packing**: the same schedule re-packed the other
  way (:func:`repro.fusion.fused.repack_schedule`, interleaved vs
  separated — Fig. 3 / Table 1) is replayed too, on the same access
  stream, and the L1 hit-rate gap says whether the inspector's packing
  choice was right *on this matrix*, not just on the size estimate;
* a **false-sharing risk** count: cache lines written from two or more
  w-partitions of the same s-partition (concurrent writers on real
  hardware).

Everything is emitted as registered counters (``locality.*`` in
:mod:`repro.obs.names`) and can be merged into the unified Perfetto
trace as counter tracks (``export_perfetto(..., locality=...)``). The
schedule doctor consumes the report to upgrade its packing rule from
heuristic to measured, and reuses its machine report
(:mod:`repro.analytics.doctor`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..kernels.base import Kernel, internal_var
from ..obs import current as current_recorder
from ..obs import names
from ..obs.memtrace import AccessStream
from ..runtime.cache import L1
from ..runtime.machine import LineReplay, MachineConfig, MachineReport, SimulatedMachine
from ..schedule.schedule import FusedSchedule
from ..utils.intsort import unique

__all__ = [
    "WPartitionLocality",
    "SPartitionLocality",
    "LocalityReport",
    "profile_locality",
]

#: histogram bucket upper bounds (lines); last bucket is open-ended,
#: -1 collects cold (first-touch) accesses
_BUCKETS = (4, 16, 64, 256, 1024, 4096)


@dataclass
class WPartitionLocality:
    """Reuse behaviour of one w-partition's access stream."""

    s: int
    w: int
    n_accesses: int
    working_set: int  #: distinct cache lines
    histogram: np.ndarray  #: cold, <4, <16, <64, <256, <1024, <4096, >=4096
    hit_rate: float
    mean_reuse_distance: float


@dataclass
class SPartitionLocality:
    """Aggregate locality of one s-partition (across its w-partitions)."""

    s: int
    n_accesses: int
    working_set: int
    hit_rate: float
    false_shared_lines: int  #: lines written by >= 2 w-partitions


@dataclass
class LocalityReport:
    """Everything the profiler measured for one schedule."""

    packing: str
    line_bytes: int
    n_accesses: int
    distinct_lines: int
    hit_rate: float
    mean_reuse_distance: float
    measured_reuse: float
    estimated_reuse: float
    counterfactual_packing: str | None
    counterfactual_hit_rate: float | None
    false_shared_lines: int
    w_partitions: list[WPartitionLocality] = field(default_factory=list)
    s_partitions: list[SPartitionLocality] = field(default_factory=list)
    seconds: float = 0.0
    #: the machine configuration the replay ran on (not serialized)
    config: MachineConfig | None = field(default=None, repr=False)
    #: its cache-fidelity report, replay included (not serialized)
    machine: MachineReport | None = field(default=None, repr=False)

    @property
    def capacity_lines(self) -> int:
        """L1 lines of the machine the replay ran on."""
        return self.config.cache.l1_lines

    @property
    def packing_gap(self) -> float | None:
        """Chosen-minus-counterfactual hit rate (negative = wrong pick)."""
        if self.counterfactual_hit_rate is None:
            return None
        return self.hit_rate - self.counterfactual_hit_rate

    @property
    def measured_packing(self) -> str:
        """Packing the *measured* reuse ratio selects (paper threshold 1)."""
        return "interleaved" if self.measured_reuse >= 1.0 else "separated"

    def summary(self) -> str:
        gap = self.packing_gap
        gap_s = f"{gap:+.3f}" if gap is not None else "n/a"
        return (
            f"locality[{self.packing}]: hit_rate={self.hit_rate:.3f} "
            f"(counterfactual gap {gap_s}), measured_reuse="
            f"{self.measured_reuse:.2f} (estimate {self.estimated_reuse:.2f}), "
            f"{self.distinct_lines} lines / {self.n_accesses} accesses, "
            f"{self.false_shared_lines} false-shared lines"
        )

    def to_json(self) -> dict:
        return {
            "packing": self.packing,
            "line_bytes": self.line_bytes,
            "capacity_lines": self.capacity_lines,
            "n_accesses": self.n_accesses,
            "distinct_lines": self.distinct_lines,
            "hit_rate": self.hit_rate,
            "mean_reuse_distance": self.mean_reuse_distance,
            "measured_reuse": self.measured_reuse,
            "estimated_reuse": self.estimated_reuse,
            "measured_packing": self.measured_packing,
            "counterfactual_packing": self.counterfactual_packing,
            "counterfactual_hit_rate": self.counterfactual_hit_rate,
            "packing_gap": self.packing_gap,
            "false_shared_lines": self.false_shared_lines,
            "seconds": self.seconds,
            "w_partitions": [
                {
                    "s": w.s,
                    "w": w.w,
                    "n_accesses": w.n_accesses,
                    "working_set": w.working_set,
                    "histogram": w.histogram.tolist(),
                    "hit_rate": w.hit_rate,
                    "mean_reuse_distance": w.mean_reuse_distance,
                }
                for w in self.w_partitions
            ],
            "s_partitions": [
                {
                    "s": s.s,
                    "n_accesses": s.n_accesses,
                    "working_set": s.working_set,
                    "hit_rate": s.hit_rate,
                    "false_shared_lines": s.false_shared_lines,
                }
                for s in self.s_partitions
            ],
        }

    def emit(self) -> None:
        """Record the headline numbers as registered ``locality.*`` counters."""
        rec = current_recorder()
        if not rec.enabled:
            return
        rec.count(names.LOCALITY_ACCESSES, self.n_accesses)
        rec.count(names.LOCALITY_DISTINCT_LINES, self.distinct_lines)
        rec.count(names.LOCALITY_MEASURED_REUSE, self.measured_reuse)
        rec.count(names.LOCALITY_ESTIMATED_REUSE, self.estimated_reuse)
        rec.count(names.LOCALITY_MEAN_REUSE_DISTANCE, self.mean_reuse_distance)
        rec.count(names.LOCALITY_HIT_RATE, self.hit_rate)
        if self.counterfactual_hit_rate is not None:
            rec.count(
                names.LOCALITY_COUNTERFACTUAL_HIT_RATE,
                self.counterfactual_hit_rate,
            )
            rec.count(names.LOCALITY_PACKING_GAP, self.packing_gap)
        rec.count(names.LOCALITY_FALSE_SHARED_LINES, self.false_shared_lines)
        rec.count(names.LOCALITY_SECONDS, self.seconds)


def _l1_share(replay: LineReplay) -> float:
    """Share of *replay*'s accesses served by L1."""
    n = replay.level.shape[0]
    return int(np.count_nonzero(replay.level == L1)) / n if n else 0.0


def _tables(
    schedule: FusedSchedule, replay: LineReplay
) -> tuple[list[WPartitionLocality], list[SPartitionLocality], float]:
    """Per-w-partition and per-s-partition tables of *replay*, and the
    mean reuse distance: bincounts over its accesses, segmented by the
    non-empty w-partitions in ``(s, w)`` order."""
    n_sp = schedule.n_spartitions
    sp, wp, _ = schedule.assignment()
    s_of, dist, line = sp[replay.gid], replay.distance, replay.line
    n_w = int(wp.max(initial=0)) + 1
    sw_key = s_of * n_w + wp[replay.gid]
    seg_keys = unique(sw_key)
    seg = np.searchsorted(seg_keys, sw_key)
    seg_s = seg_keys // n_w
    n_seg = seg_keys.shape[0]
    span = int(line.max(initial=0)) + 1
    hit = replay.level == L1
    reused = dist >= 0
    n_buckets = len(_BUCKETS) + 2
    bucket = np.where(reused, 1 + np.searchsorted(_BUCKETS, dist, side="right"), 0)
    hist = np.bincount(
        seg * n_buckets + bucket, minlength=n_seg * n_buckets
    ).reshape(n_seg, n_buckets)
    n_acc = np.bincount(seg, minlength=n_seg)
    hits = np.bincount(seg[hit], minlength=n_seg)
    dist_sum = np.bincount(seg[reused], weights=dist[reused], minlength=n_seg)
    w_ws = np.bincount(unique(seg * span + line) // span, minlength=n_seg)
    w_parts = []
    for i, (s, w) in enumerate(zip(seg_s.tolist(), (seg_keys % n_w).tolist())):
        n = int(n_acc[i])
        n_reused = n - int(hist[i, 0])
        w_parts.append(
            WPartitionLocality(
                s=s,
                w=w,
                n_accesses=n,
                working_set=int(w_ws[i]),
                histogram=hist[i],
                hit_rate=int(hits[i]) / n if n else 0.0,
                mean_reuse_distance=float(dist_sum[i]) / n_reused if n_reused else 0.0,
            )
        )

    # s-partition aggregates; written lines shared by >= 2 w-partitions
    # of one s-partition are false-sharing risks
    s_acc = np.bincount(s_of, minlength=n_sp)
    s_hits = np.bincount(s_of[hit], minlength=n_sp)
    s_key = s_of * span + line
    s_ws = np.bincount(unique(s_key) // span, minlength=n_sp)
    wr = replay.write
    writer_lines = unique(s_key[wr] * n_seg + seg[wr]) // n_seg
    shared = unique(writer_lines[1:][writer_lines[1:] == writer_lines[:-1]])
    s_false = np.bincount(shared // span, minlength=n_sp)
    s_parts = [
        SPartitionLocality(
            s=s,
            n_accesses=int(s_acc[s]),
            working_set=int(s_ws[s]),
            hit_rate=int(s_hits[s]) / int(s_acc[s]) if s_acc[s] else 0.0,
            false_shared_lines=int(s_false[s]),
        )
        for s in range(n_sp)
    ]
    n_reused = int(np.count_nonzero(reused))
    mean_d = float(dist[reused].sum()) / n_reused if n_reused else 0.0
    return w_parts, s_parts, mean_d


def _measured_reuse(stream: AccessStream) -> float:
    """The paper's reuse metric from *observed* element footprints.

    ``2 * |common| / max(|footprint1|, |footprint2|)`` over distinct
    non-internal ``(variable, element)`` accesses of loops 0 and 1 —
    the measured analogue of
    :func:`repro.fusion.inspector.compute_reuse`. Footprints are
    boolean masks over ``var_id * stride + element``.
    """
    internal = np.array([internal_var(v) for v in stream.var_names], dtype=bool)
    stride = int(stream.elem.max(initial=0)) + 1
    key = stream.var * stride + stream.elem
    shared = ~internal[stream.var]
    f1 = np.zeros(len(stream.var_names) * stride, dtype=bool)
    f2 = np.zeros_like(f1)
    f1[key[shared & (stream.loop == 0)]] = True
    f2[key[shared & (stream.loop == 1)]] = True
    denom = max(np.count_nonzero(f1), np.count_nonzero(f2))
    if denom == 0:
        return 0.0
    return 2.0 * np.count_nonzero(f1 & f2) / denom


def profile_locality(
    schedule: FusedSchedule,
    kernels: list[Kernel],
    config: MachineConfig | None = None,
    *,
    counterfactual: bool = True,
    dags=None,
    inter=None,
    estimated_reuse: float | None = None,
) -> LocalityReport:
    """Measure the locality a schedule actually induces.

    Runs *schedule* on the cache-fidelity machine of *config* (default
    :class:`~repro.runtime.machine.MachineConfig`) and reads every
    number off its line replay; hit rates are L1 hit rates. The
    machine report is kept as :attr:`LocalityReport.machine`. With
    ``counterfactual=True`` the schedule is re-packed the other way
    (interleaved <-> separated) and replayed on the same machine, so
    :attr:`LocalityReport.packing_gap` quantifies the packing decision;
    *dags*/*inter* are reused when given (they must be the schedule's
    loops) and recomputed via :func:`repro.fusion.fused.inspect_loops`
    otherwise. The report is emitted as registered ``locality.*``
    counters.
    """
    if dags is not None and tuple(d.n for d in dags) != tuple(schedule.loop_counts):
        raise ValueError(
            f"dags of {tuple(d.n for d in dags)} iterations do not fit the "
            f"schedule's loops of {tuple(schedule.loop_counts)}"
        )
    t0 = time.perf_counter()
    machine = SimulatedMachine(config)
    rec = current_recorder()
    with rec.span(
        "locality.profile",
        packing=schedule.packing,
        vertices=schedule.n_vertices,
    ) as span:
        sim = machine.simulate(schedule, kernels, fidelity="cache")
        replay = sim.replay
        w_parts, s_parts, mean_d = _tables(schedule, replay)
        hit_rate = _l1_share(replay)
        est = estimated_reuse
        cf_packing = cf_hit = None
        if counterfactual or est is None:
            from ..fusion.fused import inspect_loops, repack_schedule

            if counterfactual:
                if dags is None or inter is None:
                    dags, inter, reuse = inspect_loops(kernels)
                    if est is None:
                        est = reuse
                cf_packing = (
                    "separated"
                    if schedule.packing == "interleaved"
                    else "interleaved"
                )
                cf_sched = repack_schedule(schedule, dags, inter, cf_packing)
                cf_hit = _l1_share(machine.replay(cf_sched, kernels, replay.stream))
            if est is None:
                from ..fusion.inspector import compute_reuse

                est = (
                    compute_reuse(kernels[0], kernels[1])
                    if len(kernels) > 1
                    else 0.0
                )
        cc = machine.config.cache
        report = LocalityReport(
            packing=schedule.packing,
            line_bytes=8 * cc.line_elems,  # float64 elements
            n_accesses=int(replay.gid.shape[0]),
            distinct_lines=int(unique(replay.line).shape[0]),
            hit_rate=hit_rate,
            mean_reuse_distance=mean_d,
            measured_reuse=_measured_reuse(replay.stream),
            estimated_reuse=float(est if est is not None else 0.0),
            counterfactual_packing=cf_packing,
            counterfactual_hit_rate=cf_hit,
            false_shared_lines=sum(s.false_shared_lines for s in s_parts),
            w_partitions=w_parts,
            s_partitions=s_parts,
            config=machine.config,
            machine=sim,
        )
        report.seconds = time.perf_counter() - t0
        span.set(
            accesses=report.n_accesses,
            hit_rate=round(hit_rate, 4),
            measured_reuse=round(report.measured_reuse, 4),
        )
        report.emit()
    return report
