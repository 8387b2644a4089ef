"""Measured-locality profiler: reuse distances from the real access stream.

The inspector's ``compute_reuse`` (Sec. 2.2, used for the Fig. 3 packing
decision) *estimates* data reuse from variable sizes. This module
*measures* it: the profiler replays the exact cache-line access stream a
schedule induces — per w-partition, in executed (packed) order, the
distinct lines of each iteration, built from the access stream the
sanitizer and the cache-fidelity machine share
(:func:`repro.obs.memtrace.collect_access_stream`) under their one line
layout (:func:`repro.runtime.cache.line_layout`) — and derives:

* **reuse-distance histograms** per w-partition (exact LRU stack
  distances over cache lines from the offline dominance count of
  :func:`repro.runtime.cache.stack_distances`), and
  the modeled hit rate of a ``capacity_lines``-line cache;
* **working sets**: distinct cache lines touched per w-partition and
  per s-partition;
* a **measured reuse ratio** — the paper's
  ``2 * common / max(total1, total2)`` metric computed from the
  *observed* distinct ``(variable, element)`` footprints of the first
  kernel pair, directly comparable to the estimate;
* the **counterfactual packing**: the same schedule re-packed the other
  way (:func:`repro.fusion.fused.repack_schedule`, interleaved vs
  separated — Fig. 3 / Table 1) is replayed too, and the hit-rate gap
  says whether the inspector's packing choice was right *on this
  matrix*, not just on the size estimate;
* a **false-sharing risk** count: cache lines written from two or more
  w-partitions of the same s-partition (concurrent writers on real
  hardware).

Everything is emitted as registered counters (``locality.*`` in
:mod:`repro.obs.names`) and can be merged into the unified Perfetto
trace as counter tracks (``export_perfetto(..., locality=...)``). The
schedule doctor consumes the report to upgrade its packing rule from
heuristic to measured (:mod:`repro.analytics.doctor`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..kernels.base import Kernel, internal_var
from ..obs import current as current_recorder
from ..obs import names
from ..obs.memtrace import AccessStream, collect_access_stream
from ..runtime.cache import CacheConfig, stack_distances
from ..schedule.schedule import FusedSchedule
from ..utils.arrays import distinct

__all__ = [
    "WPartitionLocality",
    "SPartitionLocality",
    "LocalityReport",
    "profile_locality",
    "reuse_distance_histogram",
]

#: histogram bucket upper bounds (lines); last bucket is open-ended,
#: -1 collects cold (first-touch) accesses
_BUCKETS = (4, 16, 64, 256, 1024, 4096)


def _segment_stats(
    dist: np.ndarray, seg: np.ndarray, n_seg: int, capacity_lines: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-segment ``(n_accesses, histogram, hits, distance_sum)``.

    *dist* are stack distances (-1 = cold) of accesses tagged with
    segment ids *seg*; ``histogram`` rows hold the cold count, one
    bucket per ``_BUCKETS`` bound and an overflow bucket.
    """
    n_buckets = len(_BUCKETS) + 2
    reused = dist >= 0
    bucket = np.where(reused, 1 + np.searchsorted(_BUCKETS, dist, side="right"), 0)
    hist = np.bincount(seg * n_buckets + bucket, minlength=n_seg * n_buckets)
    n_acc = np.bincount(seg, minlength=n_seg)
    hits = np.bincount(seg[reused & (dist < capacity_lines)], minlength=n_seg)
    dist_sum = np.bincount(seg, weights=np.where(reused, dist, 0), minlength=n_seg)
    return (
        n_acc,
        hist.reshape(n_seg, n_buckets),
        hits,
        dist_sum.astype(np.int64),
    )


def reuse_distance_histogram(
    stream: np.ndarray, *, capacity_lines: int
) -> tuple[np.ndarray, float, float]:
    """Exact LRU stack distances of *stream* (1-D line-id array).

    Returns ``(bucket_counts, hit_rate, mean_distance)`` where
    ``bucket_counts`` has one cold-miss bucket followed by one bucket
    per ``_BUCKETS`` bound plus an overflow bucket, ``hit_rate`` is the
    fraction of accesses with distance < *capacity_lines* (cold misses
    count as misses) and ``mean_distance`` averages over reused accesses
    only (NaN-free: 0.0 when nothing is reused). Distances come from
    :func:`repro.runtime.cache.stack_distances`.
    """
    stream = np.asarray(stream, dtype=np.int64)
    n = stream.shape[0]
    n_acc, hist, hits, dist_sum = _segment_stats(
        stack_distances(stream), np.zeros(n, dtype=np.int64), 1, capacity_lines
    )
    n_reused = n - int(hist[0, 0])
    return (
        hist[0],
        int(hits[0]) / n if n else 0.0,
        int(dist_sum[0]) / n_reused if n_reused else 0.0,
    )


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
    capacity_lines: int
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


# ----------------------------------------------------------------------
# access-stream assembly (line granularity, executed order)
# ----------------------------------------------------------------------
def _vertex_lines(
    stream: AccessStream, line_elems: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-vertex accessed cache lines, deduped within the vertex.

    Returns ``(indptr, lines, written)`` where ``lines[indptr[g]:
    indptr[g+1]]`` are the distinct lines vertex ``g`` touches, in
    ascending order, and ``written`` marks lines the vertex writes. One
    lexsort of the access stream by ``(vertex, line)``.
    """
    n_vertices = stream.n_vertices
    line = stream.lines(line_elems)
    order = np.lexsort((line, stream.gid))
    gid, line, write = stream.gid[order], line[order], stream.write[order]
    first = np.ones(gid.shape[0], dtype=bool)
    first[1:] = (gid[1:] != gid[:-1]) | (line[1:] != line[:-1])
    starts = np.flatnonzero(first)
    indptr = np.zeros(n_vertices + 1, dtype=np.int64)
    np.cumsum(np.bincount(gid[starts], minlength=n_vertices), out=indptr[1:])
    written = (
        np.logical_or.reduceat(write, starts) if starts.shape[0] else write[:0]
    )
    return indptr, line[starts], written


def _replay(
    schedule: FusedSchedule,
    indptr: np.ndarray,
    lines: np.ndarray,
    written: np.ndarray,
    capacity_lines: int,
) -> tuple[list[WPartitionLocality], list[SPartitionLocality], int, float, float, int]:
    """Replay *schedule*'s per-w-partition streams through the LRU model.

    Every non-empty w-partition's stream (its vertices' lines in packed
    order) is one segment of a single :func:`stack_distances` call; the
    per-segment and per-s-partition statistics are bincounts over it.
    """
    n_sp = schedule.n_spartitions
    sp, wp, pos = schedule.assignment()
    rank = np.empty(schedule.n_vertices, dtype=np.int64)  # executed order
    rank[np.lexsort((pos, wp, sp))] = np.arange(schedule.n_vertices)
    entry_gid = np.repeat(np.arange(schedule.n_vertices), np.diff(indptr))
    order = np.argsort(rank[entry_gid], kind="stable")
    order = order[sp[entry_gid[order]] >= 0]  # unscheduled vertices never run
    stream = lines[order]
    # segments: the non-empty w-partitions, in (s, w) order
    n_w = int(wp.max(initial=0)) + 1
    sw_key = (sp * n_w + wp)[entry_gid[order]]
    seg_keys = distinct(sw_key)
    seg = np.searchsorted(seg_keys, sw_key)
    seg_s = seg_keys // n_w
    n_seg = seg_keys.shape[0]
    span = int(lines.max()) + 1 if lines.shape[0] else 1
    dist = stack_distances(seg * span + stream)
    n_acc, hist, hits, dist_sum = _segment_stats(dist, seg, n_seg, capacity_lines)

    w_parts: list[WPartitionLocality] = []
    dist_weighted = 0.0
    for i, (s, w) in enumerate(zip(seg_s.tolist(), (seg_keys % n_w).tolist())):
        n = int(n_acc[i])
        n_reused = n - int(hist[i, 0])
        mean_d = int(dist_sum[i]) / n_reused if n_reused else 0.0
        w_parts.append(
            WPartitionLocality(
                s=s,
                w=w,
                n_accesses=n,
                working_set=int(hist[i, 0]),
                histogram=hist[i],
                hit_rate=int(hits[i]) / n if n else 0.0,
                mean_reuse_distance=mean_d,
            )
        )
        dist_weighted += mean_d * n_reused

    # s-partition aggregates; written lines shared by >= 2 w-partitions
    # of one s-partition are false-sharing risks
    s_acc = np.bincount(seg_s, weights=n_acc, minlength=n_sp)
    s_hits = np.bincount(seg_s, weights=hits, minlength=n_sp)
    s_key = seg_s[seg] * span + stream
    s_ws = np.bincount(distinct(s_key) // span, minlength=n_sp)
    w_entry = written[order]
    writer_lines = distinct(s_key[w_entry] * n_seg + seg[w_entry]) // n_seg
    shared = distinct(writer_lines[1:][writer_lines[1:] == writer_lines[:-1]])
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
    total_accesses = int(n_acc.sum())
    n_reused_total = total_accesses - int(hist[:, 0].sum())
    return (
        w_parts,
        s_parts,
        total_accesses,
        int(hits.sum()) / total_accesses if total_accesses else 0.0,
        dist_weighted / n_reused_total if n_reused_total else 0.0,
        int(np.count_nonzero(np.bincount(stream, minlength=1))),
    )


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
    *,
    capacity_lines: int = 512,
    counterfactual: bool = True,
    dags=None,
    inter=None,
    estimated_reuse: float | None = None,
) -> LocalityReport:
    """Measure the locality a schedule actually induces.

    Lines follow :func:`repro.runtime.cache.line_layout` at the
    :class:`~repro.runtime.cache.CacheConfig` line size (64 bytes).
    ``capacity_lines`` models a private cache (default 512 lines = 32 KiB,
    an L1d). With ``counterfactual=True`` the schedule
    is re-packed the other way (interleaved <-> separated) and replayed,
    so :attr:`LocalityReport.packing_gap` quantifies the packing
    decision; *dags*/*inter* are reused when given and recomputed via
    :func:`repro.fusion.fused.inspect_loops` otherwise. The report is
    emitted as registered ``locality.*`` counters.
    """
    t0 = time.perf_counter()
    line_elems = CacheConfig().line_elems
    rec = current_recorder()
    with rec.span(
        "locality.profile",
        packing=schedule.packing,
        vertices=schedule.n_vertices,
    ) as span:
        stream = collect_access_stream(schedule, kernels)
        indptr, all_lines, written = _vertex_lines(stream, line_elems)
        w_parts, s_parts, n_acc, hit_rate, mean_d, distinct = _replay(
            schedule, indptr, all_lines, written, capacity_lines
        )
        est = estimated_reuse
        cf_packing = cf_hit = None
        if counterfactual or est is None:
            from ..fusion.fused import inspect_loops, repack_schedule

            if counterfactual:
                if dags is None or inter is None:
                    dags, inter, reuse = inspect_loops(kernels)
                    if est is None:
                        est = reuse
                other = (
                    "separated"
                    if schedule.packing == "interleaved"
                    else "interleaved"
                )
                try:
                    cf_sched = repack_schedule(schedule, dags, inter, other)
                except Exception:
                    cf_sched = None
                if cf_sched is not None:
                    _, _, _, cf_hit, _, _ = _replay(
                        cf_sched, indptr, all_lines, written, capacity_lines
                    )
                    cf_packing = other
            if est is None:
                from ..fusion.inspector import compute_reuse

                est = (
                    compute_reuse(kernels[0], kernels[1])
                    if len(kernels) > 1
                    else 0.0
                )
        report = LocalityReport(
            packing=schedule.packing,
            line_bytes=8 * line_elems,  # float64 elements
            capacity_lines=capacity_lines,
            n_accesses=n_acc,
            distinct_lines=distinct,
            hit_rate=hit_rate,
            mean_reuse_distance=mean_d,
            measured_reuse=_measured_reuse(stream),
            estimated_reuse=float(est if est is not None else 0.0),
            counterfactual_packing=cf_packing,
            counterfactual_hit_rate=cf_hit,
            false_shared_lines=sum(s.false_shared_lines for s in s_parts),
            w_partitions=w_parts,
            s_partitions=s_parts,
        )
        report.seconds = time.perf_counter() - t0
        span.set(
            accesses=n_acc,
            hit_rate=round(hit_rate, 4),
            measured_reuse=round(report.measured_reuse, 4),
        )
        report.emit()
    return report
