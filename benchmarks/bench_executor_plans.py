"""Executor comparison — per-iteration vs compiled plans.

For every suite matrix, runs the two workloads the paper's runtime
section cares about most — the SpTRSV→SpMV combination (Table 1 row 3,
the Fig. 5 protagonist) and the unrolled Gauss-Seidel chain (Fig. 9) —
under both executors:

* ``iter`` — :func:`repro.runtime.execute_schedule`, the semantics
  oracle (one Python call per iteration);
* ``plan`` — :func:`repro.runtime.execute_schedule_planned`, the
  compiled level-batched plan that vectorizes dependence-carrying
  kernels (SpTRSV, SpIC0, SpILU0) one intra-DAG level of one
  s-partition at a time.

Reported per matrix: wall seconds per executor (best of ``--reps``
repeats on a fresh state each time), plan compile seconds, the speedup
of ``plan`` over ``iter``, and the step counts (dispatches) of the fused
plan and of the unfused ParSy plan of the same loops. The results JSON
additionally stores the inspector + plan-compile ``stage_breakdown`` and
the plan-cache counters, proving repeated executions skip compilation
(``plan.cache_hits`` > 0).

The summary also records whether a warm run skips plan compile: fuse +
planned execution of SpTRSV→SpMV on the first matrix, twice, each time
with a fresh :class:`~repro.schedule.cache.ScheduleCache` on one shared
directory (as two processes would); the second run must load its plan
from the cache's plan store.

``--smoke`` runs one tiny matrix with few reps — the CI guardrail mode;
CI fails when ``plan`` is slower than ``iter`` (with 10% headroom), when
the fused plan needs more steps than the unfused one, or when the warm
run compiles a plan.

pytest-benchmark: one planned execution (post-compile) of the fused
SpTRSV→SpMV schedule at small scale.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time

import numpy as np

from repro import fuse
from repro.baselines.unfused import parsy_schedule
from repro.fusion import build_combination
from repro.obs import recording, stage_breakdown
from repro.runtime import execute_schedule, execute_schedule_planned, plan_for
from repro.schedule import ScheduleCache
from repro.solvers import build_gs_chain
from repro.solvers.gauss_seidel import gs_split

sys.path.insert(0, str(__import__("pathlib").Path(__file__).parent))
from common import (
    geomean,
    print_header,
    reordered_suite,
    save_results,
    small_test_matrix,
)

EXECUTORS = ("iter", "plan")


def _run_once(executor, schedule, kernels, state):
    t0 = time.perf_counter()
    if executor == "plan":
        execute_schedule_planned(schedule, kernels, state)
    else:
        execute_schedule(schedule, kernels, state)
    return time.perf_counter() - t0


def _time_executors(schedule, kernels, state, *, reps, n_threads):
    """Best-of-*reps* wall seconds per executor, fresh state per rep.

    The plan is compiled before timing (under a recorder, so compile
    time and cache hits land in the returned diagnostics) — executions
    after the first always cache-hit, which is the amortized regime the
    solver loops run in. The diagnostics also count the steps of this
    plan and of the unfused ParSy plan over *n_threads*.
    """
    with recording() as rec:
        plan = plan_for(schedule, kernels)
        for _ in range(reps):
            plan_for(schedule, kernels)
    unfused = plan_for(parsy_schedule(kernels, n_threads), kernels)
    diags = {
        "plan_compile_seconds": rec.counter("plan.compile_seconds"),
        "plan_cache_hits": rec.counter("plan.cache_hits"),
        "plan_cache_misses": rec.counter("plan.cache_misses"),
        "plan_steps": plan.n_steps,
        "unfused_plan_steps": unfused.n_steps,
    }
    seconds = {}
    for ex in EXECUTORS:
        best = float("inf")
        for _ in range(reps):
            st = {k: v.copy() for k, v in state.items()}
            best = min(best, _run_once(ex, schedule, kernels, st))
        seconds[ex] = best
    return seconds, diags


def bench_combo3(a, *, n_threads, reps):
    """SpTRSV→SpMV (Table 1 row 3) under every executor."""
    kernels, state = build_combination(3, a, seed=3)
    with recording() as rec:
        fl = fuse(kernels, n_threads, validate=False)
    seconds, diags = _time_executors(
        fl.schedule, kernels, state, reps=reps, n_threads=n_threads
    )
    return seconds, diags, stage_breakdown(rec)


def bench_gs_chain(a, *, n_threads, reps, unroll=2):
    """One unrolled-GS chunk (2*unroll fused loops) under every executor."""
    kernels, x_in, _ = build_gs_chain(a, unroll)
    low, e = gs_split(a)
    with recording() as rec:
        fl = fuse(kernels, n_threads, validate=False)
    from repro.runtime import allocate_state

    state = allocate_state(kernels)
    state["Lx"][:] = low.data
    state["Ex"][:] = e.data
    rng = np.random.default_rng(9)
    state["b"][:] = rng.random(a.n_rows)
    state[x_in][:] = rng.random(a.n_rows)
    seconds, diags = _time_executors(
        fl.schedule, kernels, state, reps=reps, n_threads=n_threads
    )
    return seconds, diags, stage_breakdown(rec)


def warm_plan_compiles(a, *, n_threads):
    """Plan compilations in the second of two fuse + planned runs of
    SpTRSV→SpMV whose fresh caches share one directory (0 when the
    second run loads the stored plan)."""
    with tempfile.TemporaryDirectory(prefix="plan-store-") as cache_dir:
        for _ in range(2):
            kernels, state = build_combination(3, a, seed=3)
            with recording() as rec:
                fl = fuse(
                    kernels,
                    n_threads,
                    cache=ScheduleCache(directory=cache_dir),
                    validate=False,
                )
                execute_schedule_planned(fl.schedule, kernels, state)
    return int(rec.counter("plan.cache_misses"))


def run(*, smoke=False, reps=None, n_threads=8, verbose=True):
    if smoke:
        from repro.sparse import apply_ordering, laplacian_2d

        a, _ = apply_ordering(laplacian_2d(12), "nd")
        suite = [type("M", (), {"name": "lap2d:12", "matrix": a})()]
        reps = reps or 2
    else:
        suite = reordered_suite()
        reps = reps or 3

    rows = []
    for m in suite:
        for workload, bench in (
            ("sptrsv-spmv", bench_combo3),
            ("gs-chain", bench_gs_chain),
        ):
            seconds, diags, stages = bench(m.matrix, n_threads=n_threads, reps=reps)
            stages["plan.compile_seconds"] = diags["plan_compile_seconds"]
            row = {
                "matrix": m.name,
                "workload": workload,
                "n": m.matrix.n_rows,
                "nnz": m.matrix.nnz,
                "seconds": seconds,
                "speedup_plan_vs_iter": seconds["iter"] / seconds["plan"],
                "plan_compile_seconds": diags["plan_compile_seconds"],
                "plan_cache_hits": diags["plan_cache_hits"],
                "plan_cache_misses": diags["plan_cache_misses"],
                "plan_steps": diags["plan_steps"],
                "unfused_plan_steps": diags["unfused_plan_steps"],
                "stage_breakdown": stages,
            }
            rows.append(row)
            if verbose:
                print(
                    f"{m.name:16s} {workload:12s} "
                    f"iter {seconds['iter'] * 1e3:8.1f}ms  "
                    f"plan {seconds['plan'] * 1e3:8.1f}ms  "
                    f"({row['speedup_plan_vs_iter']:.1f}x vs iter, "
                    f"compile {diags['plan_compile_seconds'] * 1e3:.1f}ms, "
                    f"{int(diags['plan_cache_hits'])} cache hits, "
                    f"{diags['plan_steps']} steps vs "
                    f"{diags['unfused_plan_steps']} unfused)"
                )

    warm_compiles = warm_plan_compiles(suite[0].matrix, n_threads=n_threads)
    summary = {
        "geomean_speedup_plan_vs_iter": geomean(
            [r["speedup_plan_vs_iter"] for r in rows]
        ),
        "all_cache_hits_positive": all(r["plan_cache_hits"] > 0 for r in rows),
        "all_fused_steps_within_unfused": all(
            r["plan_steps"] <= r["unfused_plan_steps"] for r in rows
        ),
        "warm_run_skips_plan_compile": warm_compiles == 0,
    }
    if verbose:
        print(
            f"\ngeomean speedup: plan vs iter "
            f"{summary['geomean_speedup_plan_vs_iter']:.2f}x"
        )
    return {"rows": rows, "summary": summary, "smoke": smoke, "reps": reps}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true", help="tiny CI guardrail run")
    ap.add_argument("--reps", type=int, default=None)
    ap.add_argument("--threads", type=int, default=8)
    ap.add_argument(
        "--max-regression",
        type=float,
        default=0.10,
        help="fail when plan is this fraction slower than iter (smoke mode)",
    )
    args = ap.parse_args(argv)
    print_header("Executor comparison: iter vs compiled plans")
    payload = run(smoke=args.smoke, reps=args.reps, n_threads=args.threads)
    if args.smoke:
        floor = 1.0 / (1.0 + args.max_regression)
        bad = [
            r
            for r in payload["rows"]
            if r["speedup_plan_vs_iter"] < floor
        ]
        if bad:
            for r in bad:
                print(
                    f"FAIL: {r['matrix']} {r['workload']}: plan is "
                    f"{1 / r['speedup_plan_vs_iter']:.2f}x the iter time "
                    f"(allowed {1 + args.max_regression:.2f}x)"
                )
            return 1
        if not payload["summary"]["all_cache_hits_positive"]:
            print("FAIL: plan cache never hit on repeated executions")
            return 1
        longer = [
            r for r in payload["rows"] if r["plan_steps"] > r["unfused_plan_steps"]
        ]
        for r in longer:
            print(
                f"FAIL: {r['matrix']} {r['workload']}: fused plan has "
                f"{r['plan_steps']} steps, unfused ParSy plan "
                f"{r['unfused_plan_steps']}"
            )
        if longer:
            return 1
        if not payload["summary"]["warm_run_skips_plan_compile"]:
            print("FAIL: a fresh cache on a populated directory compiled a plan")
            return 1
        print(
            "smoke OK: plan within tolerance of iter, cache hits recorded, "
            "fused plans no longer than unfused, warm run loaded its plan"
        )
        return 0
    path = save_results("executor_plans", payload)
    print(f"results written to {path}")
    return 0


# -- pytest-benchmark unit ---------------------------------------------------
def test_planned_execution_small(benchmark):
    a = small_test_matrix()
    kernels, state = build_combination(3, a, seed=3)
    fl = fuse(kernels, 8, validate=False)
    plan = plan_for(fl.schedule, kernels)

    def unit():
        st = {k: v.copy() for k, v in state.items()}
        execute_schedule_planned(fl.schedule, kernels, st, plan=plan)

    benchmark(unit)


if __name__ == "__main__":
    sys.exit(main())
