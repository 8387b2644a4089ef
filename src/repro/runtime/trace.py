"""Chrome-trace events of simulated executions.

Builds the ``chrome://tracing`` / Perfetto-compatible timeline of a
schedule on the simulated machine: one row per thread, one slice per
w-partition (labelled by s-partition, kernel mix, and cost), barrier
markers, and **attribution counter tracks** — per-s-partition
compute / memory / wait / barrier cycle totals (plus an idle-fraction
track) sampled from the :class:`~repro.runtime.machine.MachineReport`
accounting tables. Load the written trace into https://ui.perfetto.dev
to *see* the load imbalance and synchronization structure the paper's
plots aggregate into single numbers.

:func:`simulated_trace_events` returns the raw ``traceEvents`` list;
:func:`repro.obs.exporters.export_perfetto` (``schedule=``) writes it,
merged with any live inspector spans, as one unified trace file.
"""

from __future__ import annotations

from ..kernels.base import Kernel
from ..schedule.schedule import FusedSchedule
from .machine import MachineConfig, MachineReport, SimulatedMachine

__all__ = ["simulated_trace_events"]


def simulated_trace_events(
    schedule: FusedSchedule,
    kernels: list[Kernel],
    config: MachineConfig | None = None,
    *,
    fidelity: str = "flat",
    t0_us: float = 0.0,
    pid: int = 0,
    report: MachineReport | None = None,
    locality=None,
) -> tuple[list[dict], float]:
    """Simulate *schedule* and build its Chrome ``traceEvents`` list.

    Returns ``(events, total_us)``; timestamps are simulated
    microseconds starting at *t0_us*, emitted under process id *pid*.
    Pass a precomputed *report* (from the same schedule/config/fidelity)
    to skip the simulation; otherwise one is run here.

    *locality* (a :class:`repro.analytics.locality.LocalityReport` for
    the same schedule) adds measured-locality counter tracks: per
    s-partition working set and modeled hit rate, sampled at the
    s-partition start like the attribution tracks.
    """
    cfg = config or MachineConfig()
    if report is None:
        report = SimulatedMachine(cfg).simulate(schedule, kernels, fidelity=fidelity)
    loop_of = schedule.loop_of()

    def us(cycles: float) -> float:
        return cycles / (cfg.clock_ghz * 1e3)

    def counter(name: str, ts_us: float, values: dict) -> dict:
        return {
            "name": name,
            "cat": "counter",
            "ph": "C",
            "ts": ts_us,
            "pid": pid,
            "tid": 0,
            "args": values,
        }

    events = []
    t_start = 0.0
    wait = report.wait_table
    n_threads = cfg.n_threads
    loc_by_s = (
        {sl.s: sl for sl in locality.s_partitions} if locality is not None else {}
    )
    for s, wlist in enumerate(schedule.s_partitions):
        sp_busy = report.busy_cycles[s]
        for w, verts in enumerate(wlist):
            thread = w % cfg.n_threads
            loops = loop_of[verts]
            mix = ", ".join(
                f"{kernels[k].name}x{int((loops == k).sum())}"
                for k in sorted(set(loops.tolist()))
            )
            events.append(
                {
                    "name": f"s{s}/w{w}",
                    "cat": "wpartition",
                    "ph": "X",
                    "ts": t0_us + us(t_start),
                    "dur": max(us(sp_busy[thread]), 0.001),
                    "pid": pid,
                    "tid": thread,
                    "args": {
                        "s_partition": s,
                        "w_partition": w,
                        "iterations": int(verts.shape[0]),
                        "kernels": mix,
                    },
                }
            )
        sp_end = t_start + float(sp_busy.max(initial=0.0))
        events.append(
            {
                "name": f"barrier s{s}",
                "cat": "barrier",
                "ph": "X",
                "ts": t0_us + us(sp_end),
                "dur": max(us(cfg.barrier_cycles), 0.001),
                "pid": pid,
                "tid": 0,
                "args": {"s_partition": s},
            }
        )
        # Attribution counter tracks: one sample per s-partition at its
        # start, valid until the next sample — Perfetto stacks the args
        # keys into one multi-series counter track per name.
        sp_thread_cycles = n_threads * (float(sp_busy.max(initial=0.0)) + cfg.barrier_cycles)
        events.append(
            counter(
                "executor.attribution (cycles)",
                t0_us + us(t_start),
                {
                    "compute": float(report.compute_cycles[s].sum()),
                    "memory": float(report.memory_cycles[s].sum()),
                    "wait": float(wait[s].sum()),
                    "barrier": cfg.barrier_cycles * n_threads,
                },
            )
        )
        events.append(
            counter(
                "executor.idle_fraction",
                t0_us + us(t_start),
                {
                    "idle": (
                        float(wait[s].sum()) / sp_thread_cycles
                        if sp_thread_cycles > 0
                        else 0.0
                    )
                },
            )
        )
        sl = loc_by_s.get(s)
        if sl is not None:
            events.append(
                counter(
                    "executor.locality.working_set (lines)",
                    t0_us + us(t_start),
                    {"lines": float(sl.working_set)},
                )
            )
            events.append(
                counter(
                    "executor.locality.hit_rate",
                    t0_us + us(t_start),
                    {"hit_rate": float(sl.hit_rate)},
                )
            )
        t_start = sp_end + cfg.barrier_cycles
    if schedule.n_spartitions:
        # terminate the counter tracks at the end of the run
        events.append(
            counter(
                "executor.attribution (cycles)",
                t0_us + us(t_start),
                {"compute": 0.0, "memory": 0.0, "wait": 0.0, "barrier": 0.0},
            )
        )
        events.append(
            counter("executor.idle_fraction", t0_us + us(t_start), {"idle": 0.0})
        )
        if loc_by_s:
            events.append(
                counter(
                    "executor.locality.working_set (lines)",
                    t0_us + us(t_start),
                    {"lines": 0.0},
                )
            )
            events.append(
                counter(
                    "executor.locality.hit_rate",
                    t0_us + us(t_start),
                    {"hit_rate": 0.0},
                )
            )
    return events, us(report.total_cycles)

