"""Wall-clock benchmark of the sparse-fusion inspector-executor.

Run from the repository root:

    python3 perfbench/run.py --workload {solve,cold,warm,analysis} \
        --seed N --seconds S --trace {0,1}

The workload's inputs are built from ``--seed`` (see ``workloads.py``).
Set-up runs ``SETUP_REPEATS`` times; the last set-up is the one measured.
One untimed warm-up pass follows. Then the workload's cases run round-robin
in a closed loop, one operation at a time, for ``--seconds`` and at least
``MIN_PASSES`` passes. Every operation's output is checked outside the
timed region.

Speed normalisation. On a shared 2-vCPU VM, a fixed loop of pure CPU work
runs in fast and slow phases up to 1.6x apart, each lasting from seconds to
minutes. A run's raw times therefore depend on the phases it overlaps: the
raw medians of one workload spread by 20-40% across runs. So the benchmark
times ``reference_work`` around every operation and every set-up. That is a
fixed piece of Python and NumPy work that uses nothing of the program. An
operation's time is divided by the mean of the two reference times next to
it, and multiplied by ``REFERENCE_MS``. The result is the operation's time
at the reference speed: a phase slows both sides, and cancels out.

With ``--trace 0`` the program runs with its default no-op recorder, and
the end-to-end metrics are printed:

* ``latency_ms`` is one pass over the cases: the sum of each case's median
  normalised operation time.
* ``setup_s`` is the median normalised set-up time.

With ``--trace 1`` every operation runs under its own ``repro.obs``
recorder, and the per-layer metrics are printed:

* The per-layer times are span self-times, normalised the same way. Each
  is the sum over cases of its per-case median.
* The counts are the program's counters per pass.
* ``traced_latency_ms``, compared with an untraced run's ``latency_ms``,
  gives the tracing overhead.

Raw wall-clock medians and minima go to standard error. The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
MIN_PASSES = 3
#: ``reference_work``'s duration at the reference speed (the fast phase of
#: the VM the bounds were set on); converts normalised times back to ms.
REFERENCE_MS = 1.5

#: span name -> per-layer metric its self-time is charged to. ``bench.*``
#: spans are opened by the workloads around calls the program does not
#: span itself. ``ico*``, ``lbc`` and ``schedule.*`` spans are the
#: scheduler; anything else (factorization, solver vector arithmetic,
#: schedule validation, the reuse estimate) is ``other_ms``.
SPAN_LAYERS = {
    "bench.build": "build_ms",
    "inspector.intra_dags": "dag_ms",
    "inspector.inter_dep": "join_ms",
    "inspector.join": "join_ms",
    "inspector.cache_lookup": "cache_lookup_ms",
    "plan.compile": "compile_ms",
    "executor.run": "execute_ms",
    "executor.spartition": "execute_ms",
    "sanitize.run": "sanitize_ms",
    "locality.profile": "locality_ms",
    "bench.doctor": "doctor_ms",
}
TIME_LAYERS = (
    "build_ms",
    "dag_ms",
    "join_ms",
    "schedule_ms",
    "cache_lookup_ms",
    "compile_ms",
    "execute_ms",
    "sanitize_ms",
    "locality_ms",
    "doctor_ms",
    "other_ms",
)
#: per-layer metric -> registered ``repro.obs`` counter it reads
COUNTERS = {
    "cache_hits": "inspector.cache_hits",
    "cache_misses": "inspector.cache_misses",
    "plan_compiles": "plan.cache_misses",
    "level_steps": "executor.level_count",
    "batched_iterations": "executor.batched_iterations",
    "scalar_iterations": "executor.scalar_iterations",
    "inter_edges": "inspector.inter_edges",
    "sanitize_accesses": "sanitize.accesses",
    "locality_accesses": "locality.accesses",
}
CASE_COUNTS = ("solver_iterations",)


def reference_work() -> float:
    """Seconds taken by a fixed mix of interpreted and NumPy work.

    Arithmetic in a bytecode loop, small gathers and scatters, and dict
    building and sorting with a key function: the kinds of work the
    inspector and executors do. On a shared VM these tracked the
    workloads' slow phases more closely than a memory-bound gather over
    2 MiB did.
    """
    import numpy as np

    # A collection here would scan the workload's heap, not time the CPU.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        acc = 0
        for i in range(10_000):
            acc += i * i
        x = np.arange(4096, dtype=np.float64)
        perm = (np.arange(4096) * 7919) % 4096
        for _ in range(6):
            y = np.zeros(4096)
            np.add.at(y, perm, x)
            x = y[perm] * 0.5 + 1.0
        table = {i: (i * 7919) % 10007 for i in range(3000)}
        sorted(table.items(), key=lambda kv: kv[1])
        return perf_counter() - t0
    finally:
        if gc_was_enabled:
            gc.enable()


def layer_of(span_name: str) -> str:
    if span_name in SPAN_LAYERS:
        return SPAN_LAYERS[span_name]
    if span_name.split(".")[0] in ("ico", "lbc", "schedule"):
        return "schedule_ms"
    return "other_ms"


def layer_times(recorder) -> dict[str, float]:
    """Self-time (ms) of the recorder's spans, summed per layer."""
    child_seconds: dict[int, float] = {}
    for span in recorder.spans:
        if span.parent_id is not None:
            child_seconds[span.parent_id] = (
                child_seconds.get(span.parent_id, 0.0) + span.seconds
            )
    out = dict.fromkeys(TIME_LAYERS, 0.0)
    for span in recorder.spans:
        self_seconds = span.seconds - child_seconds.get(span.span_id, 0.0)
        out[layer_of(span.name)] += 1e3 * self_seconds
    return out


def run_op(case, obs, traced: bool):
    """Run *case* once; returns ``(ok, seconds, per-layer sample or None)``.

    *obs* is the program's ``repro.obs`` module, imported once the source
    tree is on the path.
    """
    recorder = obs.Recorder() if traced else None
    with obs.recording(recorder) if traced else nullcontext():
        t0 = perf_counter()
        try:
            with obs.current().span("bench.op"):
                result = case.run()
        except Exception:
            traceback.print_exc(file=sys.stderr)
            return False, 0.0, None
        seconds = perf_counter() - t0
    try:
        ok = bool(case.check(result))
    except Exception:
        traceback.print_exc(file=sys.stderr)
        ok = False
    if not ok:
        print(f"check failed: {case.name}", file=sys.stderr)
    sample = None
    if traced:
        sample = layer_times(recorder)
        for metric, counter in COUNTERS.items():
            sample[metric] = recorder.counter(counter)
        sample.update(dict.fromkeys(CASE_COUNTS, 0.0) | case.counts(result))
    return ok, seconds, sample


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=("solve", "cold", "warm", "analysis")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # Single-threaded BLAS keeps run-to-run noise down on a shared machine;
    # the executors under test are single-threaded Python either way.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "src"))

    from repro import obs
    from workloads import WORKLOADS

    for _ in range(3):
        reference_work()
    setup = WORKLOADS[args.workload]
    setup_s = []
    workload = None
    for _ in range(SETUP_REPEATS):
        if workload is not None:
            workload.cleanup()
        ref_before = reference_work()
        t0 = perf_counter()
        workload = setup(args.seed)
        seconds = perf_counter() - t0
        ref_mean = (ref_before + reference_work()) / 2
        setup_s.append(seconds / ref_mean * REFERENCE_MS / 1e3)

    traced = bool(args.trace)
    raw = {case.name: [] for case in workload.cases}
    norm = {case.name: [] for case in workload.cases}
    samples = {case.name: [] for case in workload.cases}
    attempted = failed = 0
    try:
        for case in workload.cases:  # warm-up pass, untimed
            ok, _, _ = run_op(case, obs, traced)
            attempted += 1
            failed += 0 if ok else 1
        ref_before = reference_work()
        deadline = perf_counter() + args.seconds
        passes = 0
        while passes < MIN_PASSES or perf_counter() < deadline:
            for case in workload.cases:
                ok, seconds, sample = run_op(case, obs, traced)
                ref_after = reference_work()
                scale = REFERENCE_MS / ((ref_before + ref_after) / 2)
                ref_before = ref_after
                attempted += 1
                if not ok:
                    failed += 1
                    continue
                raw[case.name].append(seconds)
                norm[case.name].append(seconds * scale)
                if traced:
                    samples[case.name].append(
                        {
                            k: v * scale / 1e3 if k in TIME_LAYERS else v
                            for k, v in sample.items()
                        }
                    )
            passes += 1
    finally:
        workload.cleanup()

    if any(not ts for ts in raw.values()):
        print("error: a case never completed successfully", file=sys.stderr)
        return 1
    latency_ms = sum(statistics.median(ts) for ts in norm.values())
    if traced:
        metrics = {
            name: {
                "value": sum(
                    statistics.median(s[name] for s in case_samples)
                    for case_samples in samples.values()
                ),
                "unit": "ms" if name.endswith("_ms") else "count",
            }
            for name in TIME_LAYERS + tuple(COUNTERS) + CASE_COUNTS
        }
        metrics["traced_latency_ms"] = {"value": latency_ms, "unit": "ms"}
    else:
        metrics = {
            "latency_ms": {"value": latency_ms, "unit": "ms"},
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
        }

    for name, ts in raw.items():
        print(
            f"{args.workload}/{name}: {len(ts)} ops; raw median "
            f"{1e3 * statistics.median(ts):.2f} ms, raw min {1e3 * min(ts):.2f} ms; "
            f"normalised median {statistics.median(norm[name]):.2f} ms",
            file=sys.stderr,
        )
    print(
        f"one pass {latency_ms:.2f} ms normalised; normalised set-ups "
        + ", ".join(f"{s:.3f}" for s in setup_s)
        + " s",
        file=sys.stderr,
    )
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
