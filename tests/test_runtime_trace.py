"""Simulated executor timeline: the Chrome-trace events and their file."""

import json

import numpy as np
import pytest

from repro import fuse
from repro.fusion import build_combination
from repro.obs import Recorder, export_perfetto
from repro.runtime import MachineConfig, SimulatedMachine
from repro.runtime.trace import simulated_trace_events
from repro.schedule import FusedSchedule


@pytest.fixture
def fused(lap2d_nd):
    kernels, _ = build_combination(4, lap2d_nd)
    return fuse(kernels, 4), kernels


def written_events(path, schedule, kernels, config=None):
    """The simulated executor's events as written to a trace file."""
    p = export_perfetto(
        Recorder(), path, schedule=schedule, kernels=kernels, config=config
    )
    return [e for e in json.loads(p.read_text())["traceEvents"] if "cat" in e]


def test_trace_structure(tmp_path, fused):
    fl, kernels = fused
    events = written_events(
        tmp_path / "trace.json", fl.schedule, kernels, MachineConfig(n_threads=4)
    )
    assert events, "no events"
    slices = [e for e in events if e["cat"] == "wpartition"]
    barriers = [e for e in events if e["cat"] == "barrier"]
    assert len(barriers) == fl.schedule.n_spartitions
    assert len(slices) == sum(len(w) for w in fl.schedule.s_partitions)
    # thread ids bounded by machine size
    assert max(e["tid"] for e in slices) < 4
    # every slice has a kernel mix annotation
    assert all("kernels" in e["args"] for e in slices)


def test_trace_timestamps_monotone_per_spartition(tmp_path, fused):
    fl, kernels = fused
    events = written_events(tmp_path / "t.json", fl.schedule, kernels)
    slices = sorted(
        (e for e in events if e["cat"] == "wpartition"),
        key=lambda e: e["args"]["s_partition"],
    )
    starts = [e["ts"] for e in slices]
    sparts = [e["args"]["s_partition"] for e in slices]
    for (t1, s1), (t2, s2) in zip(zip(starts, sparts), zip(starts[1:], sparts[1:])):
        if s2 > s1:
            assert t2 > t1


def test_trace_iteration_totals(tmp_path, fused):
    fl, kernels = fused
    events = written_events(tmp_path / "t.json", fl.schedule, kernels)
    total = sum(
        e["args"]["iterations"] for e in events if e["cat"] == "wpartition"
    )
    assert total == fl.schedule.n_vertices


def test_barrier_markers_placed_after_each_spartition(fused):
    fl, kernels = fused
    cfg = MachineConfig(n_threads=4)
    events, _ = simulated_trace_events(fl.schedule, kernels, cfg)
    barriers = sorted(
        (e for e in events if e["cat"] == "barrier"),
        key=lambda e: e["args"]["s_partition"],
    )
    assert [e["args"]["s_partition"] for e in barriers] == list(
        range(fl.schedule.n_spartitions)
    )
    us_per_barrier = cfg.barrier_cycles / (cfg.clock_ghz * 1e3)
    slices = [e for e in events if e["cat"] == "wpartition"]
    for b in barriers:
        assert b["dur"] == pytest.approx(us_per_barrier)
        # the barrier starts when the slowest w-partition of its
        # s-partition finishes
        ends = [
            e["ts"] + e["dur"]
            for e in slices
            if e["args"]["s_partition"] == b["args"]["s_partition"]
        ]
        assert b["ts"] == pytest.approx(max(ends), abs=0.01)


class TestCounterTracks:
    def test_attribution_samples_per_spartition(self, fused):
        fl, kernels = fused
        cfg = MachineConfig(n_threads=4)
        events, _ = simulated_trace_events(fl.schedule, kernels, cfg)
        counters = [e for e in events if e["ph"] == "C"]
        assert all(e["cat"] == "counter" for e in counters)
        attribution = [
            e for e in counters if e["name"] == "executor.attribution (cycles)"
        ]
        idle = [e for e in counters if e["name"] == "executor.idle_fraction"]
        # one sample per s-partition plus the terminating zero sample
        assert len(attribution) == fl.schedule.n_spartitions + 1
        assert len(idle) == fl.schedule.n_spartitions + 1
        assert attribution[-1]["args"] == {
            "compute": 0.0, "memory": 0.0, "wait": 0.0, "barrier": 0.0,
        }
        assert all(0.0 <= e["args"]["idle"] <= 1.0 for e in idle)

    def test_samples_match_accounting_tables(self, fused):
        fl, kernels = fused
        cfg = MachineConfig(n_threads=4)
        report = SimulatedMachine(cfg).simulate(fl.schedule, kernels)
        events, _ = simulated_trace_events(
            fl.schedule, kernels, cfg, report=report
        )
        samples = sorted(
            (
                e
                for e in events
                if e["ph"] == "C" and e["name"] == "executor.attribution (cycles)"
            ),
            key=lambda e: e["ts"],
        )[:-1]  # drop the terminating zero sample
        for s, e in enumerate(samples):
            a = e["args"]
            assert a["compute"] == pytest.approx(report.compute_cycles[s].sum())
            assert a["wait"] == pytest.approx(report.wait_table[s].sum())
            # per s-partition the conservation identity holds sample-wise
            total = a["compute"] + a["memory"] + a["wait"] + a["barrier"]
            assert total == pytest.approx(
                cfg.n_threads * report.spartition_cycles[s]
            )
        # and the samples sum to the whole run
        grand = sum(
            sum(e["args"].values()) for e in samples
        )
        assert grand == pytest.approx(cfg.n_threads * report.total_cycles)

    def test_empty_schedule_has_no_counter_samples(self, lap2d_nd):
        from repro.kernels import SpMVCSR

        k = SpMVCSR(lap2d_nd)
        empty = FusedSchedule((lap2d_nd.n_rows,), [])
        events, total_us = simulated_trace_events(empty, [k], MachineConfig())
        assert events == [] and total_us == 0.0
