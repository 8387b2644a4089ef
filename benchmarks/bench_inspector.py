"""Inspector cost — vectorized frontier inspector vs the per-vertex seed.

Times the scheduling stage of the inspector three ways on every suite
matrix:

* ``seed`` — the frozen per-vertex reference implementations
  (:mod:`repro.schedule.reference`), the pre-vectorization seed code;
* ``vec``  — the production frontier-at-a-time LBC/ICO paths
  (:func:`repro.schedule.lbc_schedule` / :func:`repro.schedule.ico_schedule`);
* ``warm`` — a later :func:`repro.fuse` call on fresh kernels of the
  same pattern with a pattern-keyed :class:`repro.schedule.ScheduleCache`:
  the scheduling stage is skipped entirely and the inspector pays only
  DAG, access-map and ``F`` construction plus the fingerprint hash.

Workloads: joint-LBC on the SpTRSV DAG (the head-partitioning path) and
ICO on the TRSV-MV and ILU0-TRSV combinations (Table 1 rows 3 and 5).
Each row also reports NER (executor runs to amortize the inspector,
Fig. 7) under all three inspector costs — the point of the perf work is
that a cheaper inspector amortizes in fewer runs, and a warm cache in
almost none.

``--smoke`` runs one tiny matrix with few reps — the CI guardrail mode;
CI fails when the vectorized inspector is slower than the seed (with
headroom), when the warm cache fails to hit, or when a warm (cache-hit)
inspector is not faster than scheduling the same pattern from scratch.

pytest-benchmark: one ICO scheduling pass at small scale.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from repro.baselines import run_implementation, sequential_baseline_seconds
from repro.fusion import build_combination, fuse
from repro.fusion.fused import inspect_loops
from repro.runtime.metrics import ner
from repro.schedule import ScheduleCache, ico_schedule, lbc_schedule
from repro.schedule.reference import (
    ico_schedule_reference,
    lbc_schedule_reference,
)

sys.path.insert(0, str(__import__("pathlib").Path(__file__).parent))
from common import (
    PAPER_THREADS,
    geomean,
    machine_config,
    measure_stage_breakdown,
    print_header,
    reordered_suite,
    save_results,
    small_test_matrix,
)

ICO_COMBOS = ((3, "ico-trsv-mv"), (5, "ico-ilu0-trsv"))
R = 8


def _best_of(fn, reps: int) -> float:
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _lbc_row(matrix, reps: int) -> dict:
    kernels, _ = build_combination(3, matrix)
    dag = kernels[0].intra_dag()
    seed = _best_of(lambda: lbc_schedule_reference(dag, R), reps)
    vec = _best_of(lambda: lbc_schedule(dag, R), reps)
    return {
        "workload": "lbc-sptrsv",
        "seed_seconds": seed,
        "vec_seconds": vec,
        "speedup": seed / vec,
    }


def _ico_row(matrix, combo: int, name: str, reps: int) -> dict:
    kernels, _ = build_combination(combo, matrix)
    dags, inter, reuse = inspect_loops(kernels)
    seed = _best_of(lambda: ico_schedule_reference(dags, inter, R, reuse), reps)
    vec = _best_of(lambda: ico_schedule(dags, inter, R, reuse), reps)

    # Warm-cache inspector: a later fuse() of the same pattern, on fresh
    # kernel objects (nothing memoized, as in a new process), pays only
    # DAG/access-map/F construction + the fingerprint hash.
    cache = ScheduleCache()
    fuse(kernels, R, cache=cache, validate=False)
    warm = min(
        fuse(
            build_combination(combo, matrix)[0], R, cache=cache, validate=False
        ).inspector_seconds
        for _ in range(reps)
    )

    cfg = machine_config()
    baseline = sequential_baseline_seconds(kernels, cfg)
    res = run_implementation("sparse-fusion", kernels, PAPER_THREADS, cfg)
    return {
        "workload": name,
        "seed_seconds": seed,
        "vec_seconds": vec,
        "speedup": seed / vec,
        "warm_inspector_seconds": warm,
        "warm_cache_hits": cache.stats["hits"],
        "ner_seed": ner(seed, baseline, res.executor_seconds),
        "ner_vec": ner(vec, baseline, res.executor_seconds),
        "ner_warm": ner(warm, baseline, res.executor_seconds),
        "stage_breakdown": measure_stage_breakdown(
            build_combination(combo, matrix)[0]
        ),
    }


def run(*, smoke=False, reps=None, verbose=True):
    if smoke:
        # Big enough that per-vertex vs frontier-at-a-time is the regime
        # under test (numpy overhead dominates below ~1k vertices).
        from repro.sparse import apply_ordering, laplacian_2d

        a, _ = apply_ordering(laplacian_2d(40), "nd")
        suite = [type("M", (), {"name": "lap2d:40", "matrix": a})()]
        reps = reps or 3  # 2 reps is too noisy for the regression gate
    else:
        suite = reordered_suite()
        reps = reps or 3

    rows = []
    for m in suite:
        benches = [lambda: _lbc_row(m.matrix, reps)]
        benches += [
            (lambda c=cid, n=name: _ico_row(m.matrix, c, n, reps))
            for cid, name in ICO_COMBOS
        ]
        for bench in benches:
            row = {"matrix": m.name, "n": m.matrix.n_rows, "nnz": m.matrix.nnz}
            row.update(bench())
            rows.append(row)
            if verbose:
                warm = row.get("warm_inspector_seconds")
                warm_s = f"  warm {warm * 1e3:7.2f}ms" if warm is not None else ""
                print(
                    f"{row['matrix']:16s} {row['workload']:14s} "
                    f"seed {row['seed_seconds'] * 1e3:8.2f}ms  "
                    f"vec {row['vec_seconds'] * 1e3:8.2f}ms  "
                    f"({row['speedup']:.1f}x){warm_s}"
                )

    ico_rows = [r for r in rows if "warm_inspector_seconds" in r]
    summary = {
        "geomean_speedup_vec_vs_seed": geomean([r["speedup"] for r in rows]),
        "geomean_warm_vs_seed": geomean(
            [r["seed_seconds"] / r["warm_inspector_seconds"] for r in ico_rows]
        ),
        "all_warm_cache_hit": all(r["warm_cache_hits"] > 0 for r in ico_rows),
        # a cache hit must cost less than scheduling from scratch
        "all_warm_below_vec": all(
            r["warm_inspector_seconds"] < r["vec_seconds"] for r in ico_rows
        ),
        "median_finite_ner_vec": float(
            np.median(
                [r["ner_vec"] for r in ico_rows if np.isfinite(r["ner_vec"])]
                or [-1]
            )
        ),
    }
    if verbose:
        print(
            f"\ngeomean inspector speedup: vec vs seed "
            f"{summary['geomean_speedup_vec_vs_seed']:.2f}x, "
            f"warm-cache vs seed {summary['geomean_warm_vs_seed']:.2f}x"
        )
    return {"rows": rows, "summary": summary, "smoke": smoke, "reps": reps}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true", help="tiny CI guardrail run")
    ap.add_argument("--reps", type=int, default=None)
    ap.add_argument(
        "--max-regression",
        type=float,
        default=0.20,
        help="fail when vec is this fraction slower than seed (smoke mode)",
    )
    args = ap.parse_args(argv)
    print_header("Inspector cost: vectorized vs per-vertex seed")
    payload = run(smoke=args.smoke, reps=args.reps)
    if args.smoke:
        floor = 1.0 / (1.0 + args.max_regression)
        bad = [r for r in payload["rows"] if r["speedup"] < floor]
        if bad:
            for r in bad:
                print(
                    f"FAIL: {r['matrix']} {r['workload']}: vectorized is "
                    f"{1 / r['speedup']:.2f}x the seed time "
                    f"(allowed {1 + args.max_regression:.2f}x)"
                )
            return 1
        if not payload["summary"]["all_warm_cache_hit"]:
            print("FAIL: schedule cache never hit on repeated fuse()")
            return 1
        slow_warm = [
            r
            for r in payload["rows"]
            if "warm_inspector_seconds" in r
            and not r["warm_inspector_seconds"] < r["vec_seconds"]
        ]
        for r in slow_warm:
            print(
                f"FAIL: {r['matrix']} {r['workload']}: warm inspector "
                f"{r['warm_inspector_seconds'] * 1e3:.2f}ms is not below the "
                f"cold vectorized schedule {r['vec_seconds'] * 1e3:.2f}ms"
            )
        if slow_warm:
            return 1
        print(
            "smoke OK: vectorized inspector within tolerance, cache hits "
            "recorded, warm inspector below cold scheduling"
        )
        return 0
    path = save_results("inspector", payload)
    print(f"results written to {path}")
    return 0


# -- pytest-benchmark unit ---------------------------------------------------
def test_ico_scheduling_small(benchmark):
    a = small_test_matrix()
    kernels, _ = build_combination(3, a)
    dags, inter, reuse = inspect_loops(kernels)
    sched = benchmark(lambda: ico_schedule(dags, inter, 8, reuse))
    assert sched.s_partitions


if __name__ == "__main__":
    raise SystemExit(main())
