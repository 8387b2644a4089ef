"""The schedule doctor: rule-based diagnosis of simulated executions.

The paper attributes sparse fusion's wins to three effects —
synchronization, load balance, locality. The doctor inverts that
argument: given a schedule's per-thread time-accounting tables
(:class:`~repro.runtime.machine.MachineReport`) and its structural
profile (:func:`~repro.runtime.profiling.profile_schedule`), it asks
*which of the three effects this schedule is losing to* and emits
ranked findings with the numeric evidence and a hint on what to try.

Each rule is a plain function ``(ctx) -> list[Finding]`` registered in
``RULES``; a finding's ``score`` is (approximately) the fraction of
total thread-cycles at stake, which is also the ranking key within a
severity class. Degenerate schedules (empty, single-vertex,
all-sequential) are valid inputs and must never crash a rule — they
just produce the obvious findings (or none).

Entry point: :func:`diagnose`. CLI: ``repro doctor`` and the
``--doctor`` flag on ``compare``/``gs``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from ..kernels.base import Kernel
from ..runtime.machine import MachineConfig, MachineReport, SimulatedMachine
from ..runtime.profiling import ScheduleProfile, profile_schedule
from ..schedule.schedule import FusedSchedule

__all__ = ["Finding", "DoctorReport", "DoctorThresholds", "diagnose", "RULES"]

#: severity order for ranking (higher index = more severe)
_SEVERITY_RANK = {"info": 0, "warning": 1, "critical": 2}


@dataclass
class Finding:
    """One diagnosed problem: what, how bad, why we think so, what to try."""

    rule: str
    severity: str  # "info" | "warning" | "critical"
    score: float  # fraction of thread-cycles at stake (ranking key)
    message: str
    evidence: dict = field(default_factory=dict)
    hint: str = ""

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "score": self.score,
            "message": self.message,
            "evidence": self.evidence,
            "hint": self.hint,
        }


@dataclass
class DoctorThresholds:
    """Tunable trigger levels for the rules (fractions unless noted)."""

    #: barrier cycles as a share of total thread-cycles
    barrier_share: float = 0.25
    #: idle (wait) cycles as a share of total thread-cycles
    idle_share: float = 0.20
    #: memory-stall cycles as a share of busy cycles (cache fidelity)
    memory_share: float = 0.50
    #: work/span below this fraction of n_threads flags span-bound
    parallelism_fraction: float = 0.5
    #: mean width below this fraction of n_threads flags underfill
    width_fraction: float = 0.5
    #: reuse ratio in [reuse_borderline, 1) under separated packing
    reuse_borderline: float = 0.7
    #: cache hit rate that suggests cross-kernel reuse is being left
    #: on the table by separated packing
    reuse_hit_rate: float = 0.6
    #: measured reuse below this while the size estimate said >= 1
    #: (interleaved) flags an over-estimated packing decision
    measured_reuse_low: float = 0.9
    #: counterfactual hit-rate advantage that flags a wrong packing
    packing_gap: float = 0.02
    #: false-shared lines as a share of distinct lines
    false_sharing_share: float = 0.02
    #: a finding escalates from warning to critical at this score
    critical_score: float = 0.45


@dataclass
class DoctorReport:
    """Ranked findings plus the attribution they were derived from."""

    findings: list[Finding]
    attribution: dict
    meta: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        """JSON-serializable payload (written by ``repro doctor --json``)."""
        return {
            "findings": [f.to_dict() for f in self.findings],
            "attribution": self.attribution,
            "meta": self.meta,
        }

    def format_table(self, *, top: int | None = None, title: str = "schedule doctor") -> str:
        """Console rendering: ranked findings with evidence and hints."""
        lines = [title, "-" * len(title)]
        attr = self.attribution
        if attr.get("thread_cycles", 0.0) > 0:
            lines.append(
                "attribution : "
                f"compute {attr['compute_share']:.0%}, "
                f"memory {attr['memory_share']:.0%}, "
                f"wait {attr['wait_share']:.0%}, "
                f"barrier {attr['barrier_share']:.0%} "
                f"of {attr['thread_cycles']:.0f} thread-cycles"
            )
        if not self.findings:
            lines.append("no findings — schedule looks healthy at current thresholds")
            return "\n".join(lines)
        shown = self.findings if top is None else self.findings[:top]
        for i, f in enumerate(shown, 1):
            lines.append(f"{i}. [{f.severity.upper():8s}] {f.rule}  (score {f.score:.2f})")
            lines.append(f"   {f.message}")
            if f.evidence:
                ev = ", ".join(
                    f"{k}={_fmt_ev(v)}" for k, v in sorted(f.evidence.items())
                )
                lines.append(f"   evidence: {ev}")
            if f.hint:
                lines.append(f"   hint: {f.hint}")
        if top is not None and len(self.findings) > top:
            lines.append(f"... {len(self.findings) - top} more (rerun with --top 0)")
        return "\n".join(lines)


def _fmt_ev(v) -> str:
    if isinstance(v, float):
        return f"{v:.4g}"
    if isinstance(v, (list, tuple)):
        return json.dumps(v)
    return str(v)


@dataclass
class _Context:
    """Everything a rule may look at."""

    schedule: FusedSchedule
    kernels: list[Kernel]
    config: MachineConfig
    report: MachineReport
    profile: ScheduleProfile
    thresholds: DoctorThresholds
    #: measured-locality profile (repro.analytics.locality), when run
    locality: object | None = None

    @property
    def thread_cycles(self) -> float:
        return self.report.total_cycles * max(1, self.config.n_threads)


def _severity(score: float, thr: DoctorThresholds) -> str:
    return "critical" if score >= thr.critical_score else "warning"


# -- rules -------------------------------------------------------------
def rule_barrier_share(ctx: _Context) -> list[Finding]:
    """Synchronization: barrier cost dominating the run."""
    rep, thr = ctx.report, ctx.thresholds
    total = ctx.thread_cycles
    if total <= 0:
        return []
    barrier = float(rep.barrier_table.sum())
    share = barrier / total
    if share <= thr.barrier_share:
        return []
    busy_max = rep.busy_cycles.max(axis=1, initial=0.0)
    b = rep.barrier_cost_cycles
    # s-partitions whose entire compute phase is cheaper than one
    # barrier: merging them into a neighbour wins outright.
    cheap = np.nonzero(busy_max < b)[0]
    widths = ctx.schedule.widths()
    r = ctx.config.n_threads
    pairs = [
        f"s{s}->s{s + 1}"
        for s in range(len(widths) - 1)
        if widths[s] + widths[s + 1] <= r
    ]
    return [
        Finding(
            rule="barrier-dominated",
            severity=_severity(share, thr),
            score=share,
            message=(
                f"barrier cost is {share:.0%} of total thread-cycles "
                f"({ctx.schedule.n_spartitions} s-partitions x "
                f"{b:.0f} cycles each)"
            ),
            evidence={
                "barrier_share": share,
                "n_spartitions": ctx.schedule.n_spartitions,
                "barrier_cycles": b,
                "spartitions_cheaper_than_barrier": int(cheap.size),
                "merge_candidates": pairs[:8],
            },
            hint=(
                "reduce s-partition count: coarsen the schedule (larger "
                "w-partitions), raise ICO's merge aggressiveness, or fuse "
                "more loops per chunk"
                + (
                    f"; {cheap.size} s-partition(s) do less compute than one "
                    "barrier costs"
                    if cheap.size
                    else ""
                )
            ),
        )
    ]


def rule_idle(ctx: _Context) -> list[Finding]:
    """Load balance: threads waiting at s-partition barriers."""
    rep, thr = ctx.report, ctx.thresholds
    total = ctx.thread_cycles
    if total <= 0:
        return []
    wait = rep.wait_table
    share = float(wait.sum()) / total
    if share <= thr.idle_share:
        return []
    per_sp_wait = wait.sum(axis=1)
    s = int(np.argmax(per_sp_wait))
    busy_s = rep.busy_cycles[s]
    active = busy_s[busy_s > 0]
    ratio = float(busy_s.max() / active.mean()) if active.size else 1.0
    sp_cycles = ctx.config.n_threads * float(rep.spartition_cycles[s])
    idle_s = float(wait[s].sum()) / sp_cycles if sp_cycles > 0 else 0.0
    return [
        Finding(
            rule="load-imbalance",
            severity=_severity(share, thr),
            score=share,
            message=(
                f"threads are idle {share:.0%} of the run; worst is "
                f"s-partition {s}: {idle_s:.0%} idle, max/mean w-partition "
                f"cost {ratio:.1f}x — slack rebalance ineffective there"
            ),
            evidence={
                "idle_share": share,
                "worst_spartition": s,
                "worst_idle_fraction": idle_s,
                "worst_max_over_mean": ratio,
                "worst_wait_cycles": float(per_sp_wait[s]),
            },
            hint=(
                "rebalance w-partition costs (slack re-assignment, vertex "
                "splitting of heavy w-partitions) or lower r so every "
                "w-partition gets real work"
            ),
        )
    ]


def rule_memory_bound(ctx: _Context) -> list[Finding]:
    """Locality: memory stalls dominating busy time (cache fidelity)."""
    rep, thr = ctx.report, ctx.thresholds
    busy = float(rep.busy_cycles.sum())
    mem = float(rep.memory_cycles.sum())
    if busy <= 0 or mem <= 0:
        return []
    share = mem / busy
    if share <= thr.memory_share:
        return []
    miss = float(rep.memory_miss_cycles.sum())
    miss_share = miss / mem if mem > 0 else 0.0
    score = mem / ctx.thread_cycles if ctx.thread_cycles > 0 else 0.0
    return [
        Finding(
            rule="memory-bound",
            severity=_severity(score, thr),
            score=score,
            message=(
                f"memory stalls are {share:.0%} of busy cycles "
                f"({miss_share:.0%} of that from DRAM misses, "
                f"avg latency {rep.avg_memory_latency:.1f} cycles/access)"
            ),
            evidence={
                "memory_share_of_busy": share,
                "miss_share_of_memory": miss_share,
                "avg_memory_latency": rep.avg_memory_latency,
                "memory_cycles": mem,
            },
            hint=(
                "improve locality: interleaved packing for cross-kernel "
                "temporal reuse, or smaller w-partitions so working sets "
                "fit the private caches"
            ),
        )
    ]


def rule_packing(ctx: _Context) -> list[Finding]:
    """Packing choice vs measured/estimated reuse.

    With a measured-locality profile the rule is *measured*: the packing
    the measured reuse ratio selects, and the replayed counterfactual
    hit rate, judge the inspector's choice directly. Without one it
    falls back to the original heuristic (borderline size estimate or a
    hot simulated cache under separated packing).
    """
    thr = ctx.thresholds
    sched, rep = ctx.schedule, ctx.report
    loc = ctx.locality
    if loc is not None:
        desired = loc.measured_packing
        gap = loc.packing_gap
        wrong_dir = desired != sched.packing
        losing = gap is not None and gap < -thr.packing_gap
        if not (wrong_dir or losing):
            return []
        why = []
        if wrong_dir:
            why.append(
                f"measured reuse {loc.measured_reuse:.2f} selects "
                f"{desired} (estimate said {loc.estimated_reuse:.2f})"
            )
        if losing:
            why.append(
                f"replaying the {loc.counterfactual_packing} counterfactual "
                f"models a {-gap:.1%} higher hit rate"
            )
        score = max(0.05, abs(gap) if gap is not None else 0.05)
        return [
            Finding(
                rule="packing-choice",
                severity="warning" if losing else "info",
                score=min(score, 1.0),
                message=(
                    f"{sched.packing} packing chosen but "
                    + " and ".join(why)
                ),
                evidence={
                    "packing": sched.packing,
                    "measured_packing": desired,
                    "measured_reuse": loc.measured_reuse,
                    "estimated_reuse": loc.estimated_reuse,
                    "hit_rate": loc.hit_rate,
                    **(
                        {
                            "counterfactual_hit_rate": loc.counterfactual_hit_rate,
                            "packing_gap": gap,
                        }
                        if gap is not None
                        else {}
                    ),
                },
                hint=(
                    f"re-fuse with reuse_ratio forced to "
                    f"{'>= 1.0' if desired == 'interleaved' else '< 1.0'} "
                    f"({desired}) and compare measured hit rates"
                ),
            )
        ]
    if sched.packing != "separated":
        return []
    reuse = sched.meta.get("reuse_ratio")
    stats = rep.cache_stats
    hits = stats.get("l1_hits", 0.0) + stats.get("llc_hits", 0.0)
    accesses = stats.get("accesses", 0.0)
    hit_rate = hits / accesses if accesses else None
    borderline = reuse is not None and thr.reuse_borderline <= float(reuse) < 1.0
    hot = hit_rate is not None and hit_rate >= thr.reuse_hit_rate
    if not (borderline or hot):
        return []
    why = []
    if borderline:
        why.append(f"reuse ratio {float(reuse):.2f} is borderline (cutoff 1.0)")
    if hot:
        why.append(f"measured cache hit rate {hit_rate:.0%} suggests live cross-kernel reuse")
    return [
        Finding(
            rule="packing-choice",
            severity="info",
            score=0.05,
            message=(
                "separated packing chosen but " + " and ".join(why)
                + " — interleaved may win"
            ),
            evidence={
                "packing": sched.packing,
                **({"reuse_ratio": float(reuse)} if reuse is not None else {}),
                **({"cache_hit_rate": hit_rate} if hit_rate is not None else {}),
            },
            hint=(
                "re-fuse with reuse_ratio forced >= 1.0 (interleaved) and "
                "compare simulated avg memory latency under fidelity='cache'"
            ),
        )
    ]


def rule_span_bound(ctx: _Context) -> list[Finding]:
    """Parallelism: work/span below what the machine offers."""
    prof, thr = ctx.profile, ctx.thresholds
    r = ctx.config.n_threads
    if prof.n_vertices == 0 or r <= 1:
        return []
    bound = prof.parallelism_bound
    if bound >= thr.parallelism_fraction * r:
        return []
    # cycles lost to the span limit relative to perfect speedup
    score = min(1.0, max(0.0, 1.0 - bound / r))
    return [
        Finding(
            rule="span-bound",
            severity=_severity(score, thr) if bound < 0.25 * r else "warning",
            score=score,
            message=(
                f"work/span bound is {bound:.1f}x but the machine has "
                f"{r} threads — no schedule of this DAG partitioning can "
                f"use them all"
            ),
            evidence={
                "parallelism_bound": bound,
                "n_threads": r,
                "span_cost": prof.span,
                "total_cost": prof.total_cost,
            },
            hint=(
                "shorten the critical path: fuse across more loops, split "
                "heavy vertices, or accept fewer threads for this phase"
            ),
        )
    ]


def rule_underfilled(ctx: _Context) -> list[Finding]:
    """Width: s-partitions offering fewer w-partitions than threads."""
    prof, thr = ctx.profile, ctx.thresholds
    r = ctx.config.n_threads
    if not prof.widths or r <= 1:
        return []
    mean_w = prof.mean_width
    if mean_w >= thr.width_fraction * r:
        return []
    score = min(1.0, max(0.0, 1.0 - mean_w / r))
    narrow = sum(1 for w in prof.widths if w < r)
    return [
        Finding(
            rule="underfilled",
            severity="warning",
            score=score,
            message=(
                f"mean s-partition width {mean_w:.1f} < {r} threads "
                f"({narrow}/{len(prof.widths)} s-partitions leave threads "
                f"without a w-partition)"
            ),
            evidence={
                "mean_width": mean_w,
                "n_threads": r,
                "narrow_spartitions": narrow,
                "n_spartitions": len(prof.widths),
            },
            hint=(
                "the partitioner produced too few w-partitions: lower the "
                "per-w-partition cost target or check that the DAG has "
                "enough independent work per wavefront"
            ),
        )
    ]


def rule_measured_reuse(ctx: _Context) -> list[Finding]:
    """Interleaving chosen on an over-estimated reuse ratio.

    The size-based estimate counts whole variables; the measured ratio
    counts elements actually touched by both kernels. When interleaving
    was chosen on an estimate >= 1 but the measurement comes in well
    below it (e.g. a TRSV reading only the L half of an LU factor), the
    interleave is paying its packing cost for reuse that isn't there.
    """
    loc, thr = ctx.locality, ctx.thresholds
    if loc is None or ctx.schedule.packing != "interleaved":
        return []
    if loc.estimated_reuse < 1.0 or loc.measured_reuse >= thr.measured_reuse_low:
        return []
    overshoot = loc.estimated_reuse - loc.measured_reuse
    return [
        Finding(
            rule="low-measured-reuse",
            severity="warning",
            score=min(1.0, overshoot / max(loc.estimated_reuse, 1e-9)),
            message=(
                f"interleaved packing was chosen on an estimated reuse of "
                f"{loc.estimated_reuse:.2f}, but the measured access stream "
                f"shows only {loc.measured_reuse:.2f} — the estimate counts "
                f"whole variables, the kernels touch less"
            ),
            evidence={
                "estimated_reuse": loc.estimated_reuse,
                "measured_reuse": loc.measured_reuse,
                "hit_rate": loc.hit_rate,
                "mean_reuse_distance": loc.mean_reuse_distance,
            },
            hint=(
                "re-fuse with reuse_ratio set to the measured value (or "
                "force separated packing) and compare measured hit rates"
            ),
        )
    ]


def rule_false_sharing(ctx: _Context) -> list[Finding]:
    """Cache lines written by multiple concurrent w-partitions."""
    loc, thr = ctx.locality, ctx.thresholds
    if loc is None or loc.distinct_lines == 0:
        return []
    share = loc.false_shared_lines / loc.distinct_lines
    if share <= thr.false_sharing_share:
        return []
    worst = max(loc.s_partitions, key=lambda s: s.false_shared_lines)
    return [
        Finding(
            rule="false-sharing-risk",
            severity="warning",
            score=min(1.0, share),
            message=(
                f"{loc.false_shared_lines} cache lines "
                f"({share:.0%} of the working set) are written from two or "
                f"more w-partitions of the same s-partition — on real "
                f"hardware those lines ping-pong between cores"
            ),
            evidence={
                "false_shared_lines": loc.false_shared_lines,
                "distinct_lines": loc.distinct_lines,
                "share": share,
                "worst_spartition": worst.s,
                "worst_spartition_lines": worst.false_shared_lines,
                "line_bytes": loc.line_bytes,
            },
            hint=(
                "align w-partition boundaries to cache-line multiples of "
                "the written vectors, or pad shared accumulation targets; "
                "atomic scatter kernels (SpMV-CSC) are the usual source"
            ),
        )
    ]


#: rule registry, applied in order; extend freely.
RULES = (
    rule_barrier_share,
    rule_idle,
    rule_memory_bound,
    rule_packing,
    rule_measured_reuse,
    rule_false_sharing,
    rule_span_bound,
    rule_underfilled,
)


def diagnose(
    schedule: FusedSchedule,
    kernels: list[Kernel],
    config: MachineConfig | None = None,
    *,
    fidelity: str = "flat",
    report: MachineReport | None = None,
    profile: ScheduleProfile | None = None,
    thresholds: DoctorThresholds | None = None,
    locality=None,
) -> DoctorReport:
    """Diagnose *schedule*; returns ranked findings with evidence.

    Pass a precomputed *report* (same schedule/config/fidelity) to skip
    the simulation, and/or a precomputed *profile*; otherwise both are
    computed here. ``fidelity="cache"`` enables the locality rules
    (memory-bound, measured-reuse packing evidence).

    *locality* — a :class:`repro.analytics.locality.LocalityReport` for
    the same schedule — upgrades the packing rule from heuristic to
    measured and enables the ``low-measured-reuse`` and
    ``false-sharing-risk`` rules. In cache fidelity without a *report*,
    *config* defaults to the profiler's, and when it is that same object
    the profiler's machine report is reused instead of simulating again.
    """
    if report is None and locality is not None and fidelity == "cache":
        config = config or locality.config
        if config is locality.config:
            report = locality.machine
    cfg = config or MachineConfig()
    thr = thresholds or DoctorThresholds()
    if report is None:
        report = SimulatedMachine(cfg).simulate(schedule, kernels, fidelity=fidelity)
    if profile is None:
        profile = profile_schedule(schedule, kernels)
    ctx = _Context(
        schedule=schedule,
        kernels=kernels,
        config=cfg,
        report=report,
        profile=profile,
        thresholds=thr,
        locality=locality,
    )
    findings: list[Finding] = []
    for rule in RULES:
        findings.extend(rule(ctx))
    findings.sort(key=lambda f: (_SEVERITY_RANK[f.severity], f.score), reverse=True)
    return DoctorReport(
        findings=findings,
        attribution=report.attribution(),
        meta={
            "n_threads": cfg.n_threads,
            "fidelity": fidelity,
            "scheduler": schedule.meta.get("scheduler", "unknown"),
            "packing": schedule.packing,
            "measured_locality": locality is not None,
            "n_spartitions": schedule.n_spartitions,
            "n_vertices": schedule.n_vertices,
        },
    )
