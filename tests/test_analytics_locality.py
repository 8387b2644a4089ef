"""Measured-locality profiler: reuse-distance histograms, measured
reuse vs the inspector's size-based estimate, counterfactual packing,
and the doctor rules the measurements enable."""

import json

import numpy as np
import pytest

from repro import fuse
from repro.analytics import diagnose, profile_locality
from repro.analytics.locality import _BUCKETS
from repro.fusion import build_combination, repack_schedule
from repro.obs import Recorder, names, sanitize_schedule
from repro.obs.exporters import export_perfetto
from repro.obs.recorder import set_recorder
from repro.runtime import CacheConfig, MachineConfig, SimulatedMachine
from repro.runtime.cache import L1, line_layout
from repro.sparse import laplacian_2d

from .cache_oracle import OracleThreadCache


def small_l1(n_threads=6, l1_lines=16):
    return MachineConfig(n_threads, cache=CacheConfig(l1_lines=l1_lines))


def profiled(cid, a, *, config=None, seed=None):
    kernels, _ = build_combination(cid, a, seed=cid if seed is None else seed)
    fl = fuse(kernels, 6)
    report = profile_locality(
        fl.schedule,
        kernels,
        config or small_l1(),
        dags=fl.dags,
        inter=fl.inter,
        estimated_reuse=fl.reuse_ratio,
    )
    return fl, kernels, report


# ----------------------------------------------------------------------
# exactness against a brute per-thread replay
# ----------------------------------------------------------------------
def brute_replay(schedule, kernels, config):
    """Per-w ``(histogram, working_set, hit_rate)`` and per-s false-shared
    counts from the per-iteration accessors, walked as the threads
    execute (``reads_of`` then ``writes_of`` per variable, one load
    each): L1 verdicts from each thread's oracle cache, distances from a
    list-based LRU stack over the thread's whole stream."""
    cc = config.cache
    sizes = {}
    for k in kernels:
        for var, size in k.var_sizes().items():
            sizes[var] = max(sizes.get(var, 0), size)
    base = line_layout(sizes, cc.line_elems)
    caches = [OracleThreadCache(cc) for _ in range(config.n_threads)]
    stacks = [[] for _ in range(config.n_threads)]
    w_out, s_false = [], []
    for wlist in schedule.s_partitions:
        writers = {}
        for w, verts in enumerate(wlist):
            if verts.shape[0] == 0:
                continue
            th = w % config.n_threads
            stack, seen = stacks[th], set()
            hist, hits, n = np.zeros(len(_BUCKETS) + 2, np.int64), 0, 0
            for g in verts.tolist():
                k = int(np.searchsorted(schedule.offsets, g, side="right")) - 1
                kern, i = kernels[k], g - int(schedule.offsets[k])
                loads = [(v, kern.reads_of(v, i), False) for v in kern.read_vars]
                loads += [(v, kern.writes_of(v, i), True) for v in kern.write_vars]
                for var, idx, write in loads:
                    lines = (base[var] + idx // cc.line_elems).tolist()
                    if write:
                        for line in lines:
                            writers.setdefault(line, set()).add(w)
                    hits += caches[th].load(lines).count(0)
                    for line in lines:
                        n += 1
                        seen.add(line)
                        if line in stack:
                            d = stack.index(line)
                            stack.remove(line)
                            hist[1 + int(np.searchsorted(_BUCKETS, d, side="right"))] += 1
                        else:
                            hist[0] += 1
                        stack.insert(0, line)
            w_out.append((hist.tolist(), len(seen), hits / n if n else 0.0))
        s_false.append(sum(len(ws) >= 2 for ws in writers.values()))
    return w_out, s_false


@pytest.mark.parametrize("cid", (1, 3, 5))
def test_profile_matches_brute_replay(cid, lap2d_nd):
    # 4 threads for the 6-wide schedule: w-partitions wrap onto threads
    cfg = small_l1(n_threads=4)
    fl, kernels, report = profiled(cid, lap2d_nd, config=cfg)
    w_out, s_false = brute_replay(fl.schedule, kernels, cfg)
    assert [
        (w.histogram.tolist(), w.working_set, w.hit_rate)
        for w in report.w_partitions
    ] == w_out
    assert [s.false_shared_lines for s in report.s_partitions] == s_false


# ----------------------------------------------------------------------
# measured reuse vs the inspector's estimate (Table 1)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("cid", (1, 2, 3, 4, 6))
def test_measured_reuse_agrees_in_direction(cid, lap2d_nd):
    fl, _, report = profiled(cid, lap2d_nd)
    assert (report.measured_reuse >= 1.0) == (fl.reuse_ratio >= 1.0)
    assert report.measured_packing == fl.schedule.packing
    assert report.estimated_reuse == pytest.approx(fl.reuse_ratio)


def test_combo5_measures_below_its_estimate(lap2d_nd):
    # ILU0->TRSV: the TRSV reads only the L half of the LU factor, so
    # the element-accurate measurement lands well under the size-based
    # estimate that justified interleaving — the motivating case for
    # the low-measured-reuse doctor rule
    fl, _, report = profiled(5, lap2d_nd)
    assert fl.reuse_ratio >= 1.0
    assert fl.schedule.packing == "interleaved"
    assert report.measured_reuse < 0.5
    assert report.measured_packing == "separated"


# ----------------------------------------------------------------------
# report structure
# ----------------------------------------------------------------------
def test_report_partitions_consistent(lap2d_nd):
    fl, _, report = profiled(1, lap2d_nd)
    sched = fl.schedule
    assert len(report.s_partitions) == len(sched.s_partitions)
    assert len(report.w_partitions) == sum(
        len(ws) for ws in sched.s_partitions
    )
    assert report.n_accesses == sum(w.n_accesses for w in report.w_partitions)
    assert report.n_accesses == sum(s.n_accesses for s in report.s_partitions)
    for w in report.w_partitions:
        assert 0.0 <= w.hit_rate <= 1.0
        assert w.histogram.sum() == w.n_accesses
        assert w.working_set <= report.distinct_lines
    assert 0.0 <= report.hit_rate <= 1.0
    assert 0 <= report.false_shared_lines <= report.distinct_lines


def test_counterfactual_packing_replayed(lap2d_nd):
    fl, kernels, report = profiled(1, lap2d_nd)
    assert report.packing == "interleaved"
    assert report.counterfactual_packing == "separated"
    assert report.counterfactual_hit_rate is not None
    assert report.packing_gap == pytest.approx(
        report.hit_rate - report.counterfactual_hit_rate
    )
    # the gap is a real difference of replays, not a copy
    repacked = repack_schedule(fl.schedule, fl.dags, fl.inter, "separated")
    assert repacked.packing == "separated"
    assert sanitize_schedule(repacked, kernels).clean
    rp = SimulatedMachine(report.config).replay(repacked, kernels)
    assert report.counterfactual_hit_rate == np.mean(rp.level == L1)


def test_counterfactual_can_be_disabled(lap2d_nd):
    kernels, _ = build_combination(1, lap2d_nd, seed=1)
    fl = fuse(kernels, 6)
    report = profile_locality(fl.schedule, kernels, small_l1(), counterfactual=False)
    assert report.counterfactual_hit_rate is None
    assert report.packing_gap is None


@pytest.mark.parametrize("n", (7, 9))
def test_foreign_dags_rejected(n):
    """DAGs of a smaller or larger matrix fail fast, naming both loop
    sizes, rather than deep inside the counterfactual repack."""
    kernels, _ = build_combination(1, laplacian_2d(8), seed=1)
    fl = fuse(kernels, 4)
    other = fuse(build_combination(1, laplacian_2d(n), seed=1)[0], 4)
    m = n * n
    with pytest.raises(ValueError, match=rf"\({m}, {m}\).*\(64, 64\)"):
        profile_locality(fl.schedule, kernels, dags=other.dags, inter=other.inter)


def test_report_to_json_fields(lap2d_nd):
    _, _, report = profiled(1, lap2d_nd)
    payload = json.loads(json.dumps(report.to_json()))
    for key in (
        "packing",
        "hit_rate",
        "measured_reuse",
        "estimated_reuse",
        "measured_packing",
        "packing_gap",
        "false_shared_lines",
        "w_partitions",
        "s_partitions",
    ):
        assert key in payload
    assert payload["w_partitions"][0]["histogram"]
    assert "hit_rate" in report.summary() or "hit_rate=" in report.summary()


def test_repack_schedule_validates_packing_arg(lap2d_nd):
    kernels, _ = build_combination(1, lap2d_nd, seed=1)
    fl = fuse(kernels, 6)
    with pytest.raises(ValueError, match="packing"):
        repack_schedule(fl.schedule, fl.dags, fl.inter, "diagonal")


# ----------------------------------------------------------------------
# counters and the unified trace
# ----------------------------------------------------------------------
def test_emit_registers_only_known_counters(lap2d_nd):
    _, _, report = profiled(1, lap2d_nd)
    rec = Recorder()
    prev = set_recorder(rec)
    try:
        report.emit()
    finally:
        set_recorder(prev)
    assert rec.counters[names.LOCALITY_HIT_RATE] == pytest.approx(
        report.hit_rate
    )
    assert rec.counters[names.LOCALITY_MEASURED_REUSE] == pytest.approx(
        report.measured_reuse
    )
    assert names.LOCALITY_PACKING_GAP in rec.counters
    for name in rec.counters:
        assert name in names.REGISTRY


def test_perfetto_trace_carries_locality_tracks(tmp_path, lap2d_nd):
    fl, kernels, report = profiled(1, lap2d_nd)
    rec = Recorder()
    out = export_perfetto(
        rec,
        tmp_path / "trace.json",
        schedule=fl.schedule,
        kernels=kernels,
        locality=report,
    )
    payload = json.loads(out.read_text())
    counter_names = {
        e["name"] for e in payload["traceEvents"] if e.get("ph") == "C"
    }
    assert "executor.locality.working_set (lines)" in counter_names
    assert "executor.locality.hit_rate" in counter_names
    loc = payload["otherData"]["locality"]
    assert loc["packing"] == report.packing
    assert loc["measured_reuse"] == pytest.approx(report.measured_reuse)


# ----------------------------------------------------------------------
# doctor integration
# ----------------------------------------------------------------------
def test_doctor_low_measured_reuse_fires_on_combo5(lap2d_nd):
    fl, kernels, report = profiled(5, lap2d_nd)
    dr = diagnose(fl.schedule, kernels, locality=report)
    rules = {f.rule for f in dr.findings}
    assert "low-measured-reuse" in rules
    finding = next(f for f in dr.findings if f.rule == "low-measured-reuse")
    assert finding.severity == "warning"
    assert dr.meta["measured_locality"] is True


def test_doctor_measured_packing_quiet_when_agreeing(lap2d_nd):
    fl, kernels, report = profiled(1, lap2d_nd)
    dr = diagnose(fl.schedule, kernels, locality=report)
    assert "low-measured-reuse" not in {f.rule for f in dr.findings}


def test_doctor_false_sharing_rule_uses_threshold(lap2d_nd):
    from repro.analytics import DoctorThresholds

    fl, kernels, report = profiled(1, lap2d_nd)
    assert report.false_shared_lines > 0  # precondition of the scenario
    sensitive = diagnose(
        fl.schedule,
        kernels,
        locality=report,
        thresholds=DoctorThresholds(false_sharing_share=0.0),
    )
    assert "false-sharing-risk" in {f.rule for f in sensitive.findings}
    deaf = diagnose(
        fl.schedule,
        kernels,
        locality=report,
        thresholds=DoctorThresholds(false_sharing_share=1.0),
    )
    assert "false-sharing-risk" not in {f.rule for f in deaf.findings}


def test_doctor_without_locality_unchanged(lap2d_nd):
    kernels, _ = build_combination(1, lap2d_nd, seed=1)
    fl = fuse(kernels, 6)
    dr = diagnose(fl.schedule, kernels)
    assert dr.meta["measured_locality"] is False
    assert "low-measured-reuse" not in {f.rule for f in dr.findings}
    assert "false-sharing-risk" not in {f.rule for f in dr.findings}


def test_profile_counts_exact_distances_once(lap2d_nd, monkeypatch):
    """Where every thread's working set fits L1, pricing both replays
    decides every verdict from bounds: the one exact count is the
    chosen replay's histogram, over its thread-line keys."""
    from repro.runtime import cache, machine

    kernels, _ = build_combination(1, lap2d_nd, seed=1)
    fl = fuse(kernels, 6)
    counted, depth = [], [0]
    exact = cache.stack_distances

    def counting(keys):
        if depth[0] == 0:  # not its own recursion on the run heads
            counted.append(keys.shape[0])
        depth[0] += 1
        try:
            return exact(keys)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(cache, "stack_distances", counting)
    monkeypatch.setattr(machine, "stack_distances", counting)
    loc = profile_locality(fl.schedule, kernels, dags=fl.dags, inter=fl.inter)
    assert loc.counterfactual_hit_rate is not None
    assert counted == [loc.n_accesses]


def test_doctor_reuses_the_profilers_replay(lap2d_nd, monkeypatch):
    """One profile + diagnose replays twice (the chosen schedule and the
    counterfactual) and diagnoses exactly as a fresh simulation does."""
    kernels, _ = build_combination(5, lap2d_nd, seed=5)
    fl = fuse(kernels, 6)
    calls = []
    replay = SimulatedMachine.replay

    def counting(self, schedule, kernels, stream=None):
        calls.append(schedule)
        return replay(self, schedule, kernels, stream)

    monkeypatch.setattr(SimulatedMachine, "replay", counting)
    loc = profile_locality(fl.schedule, kernels, dags=fl.dags, inter=fl.inter)
    reused = diagnose(fl.schedule, kernels, fidelity="cache", locality=loc)
    assert len(calls) == 2
    assert calls[0] is fl.schedule and calls[1].packing != fl.schedule.packing
    fresh = diagnose(
        fl.schedule, kernels, MachineConfig(), fidelity="cache", locality=loc
    )
    assert len(calls) == 3
    assert reused.to_json() == fresh.to_json()
