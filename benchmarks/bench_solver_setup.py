"""Solver set-up reuse — a fresh process's first solve against repeated
solves on one pattern.

``pcg_ic0`` and ``gauss_seidel`` keep what they derive from a matrix's
pattern (kernels, level schedules, unbound plans) in the inspection
cache, so only the first call on a pattern builds it. This benchmark
reports both sides of that trade. Each of ``--processes`` fresh
processes (this script run with ``--child``):

1. builds the matrix of perfbench's ``solve`` workload: the
   nested-dissection ordered ``8^3`` 7-point Poisson matrix under a
   random diagonal scaling ``D A D``, and a random right-hand side;
2. times the process's first call of each solver;
3. times ``--repeats`` more calls of each on the same matrix, with a new
   right-hand side each, and keeps their median;
4. counts the plan compiles (``plan.cache_misses``) of one more repeated
   call and of one call on a changed pattern (the ``7^3`` matrix).

Printed per solver: the median over processes of the first-call time
and of each process's repeated-call median, in ms, then one JSON line.
Every timed call is normalised the way perfbench normalises an
operation: divided by the mean of the ``reference_work`` runs around it
and multiplied by ``REFERENCE_MS`` (``perfbench/run.py``), so a VM's
fast and slow phases cancel out.

``--smoke`` runs one process with few repeats, the CI guardrail: it
exits 1 when a repeated call compiles a plan, or when a changed-pattern
call compiles none.

    PYTHONPATH=src python benchmarks/bench_solver_setup.py [--smoke]
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

SOLVERS = ("pcg-ic0", "gauss-seidel")
ROOT = Path(__file__).resolve().parent.parent


def _scaled_poisson(nx: int, rng):
    import numpy as np

    from repro.sparse import CSRMatrix, apply_ordering, laplacian_3d

    a, _ = apply_ordering(laplacian_3d(nx), "nd")
    d = rng.uniform(0.5, 2.0, a.n_rows)
    rows = np.repeat(np.arange(a.n_rows), np.diff(a.indptr))
    return CSRMatrix(
        a.n_rows, a.n_cols, a.indptr, a.indices, a.data * d[rows] * d[a.indices]
    )


def child(seed: int, repeats: int) -> dict:
    """One fresh process's measurements (see the module docstring)."""
    import numpy as np

    from repro.obs import recording
    from repro.solvers import gauss_seidel, pcg_ic0

    sys.path.insert(0, str(ROOT / "perfbench"))
    from run import REFERENCE_MS, reference_work

    def timed(call):
        """``(result, ms)``: *call*'s time at the reference speed."""
        before = reference_work()
        t0 = perf_counter()
        result = call()
        seconds = perf_counter() - t0
        scale = REFERENCE_MS / ((before + reference_work()) / 2)
        return result, seconds * scale

    solve = {
        "pcg-ic0": lambda a, b: pcg_ic0(a, b, tol=1e-8),
        "gauss-seidel": lambda a, b: gauss_seidel(a, b, tol=1e-6, max_iters=2000),
    }
    rng = np.random.default_rng(seed)
    a = _scaled_poisson(8, rng)
    changed = _scaled_poisson(7, rng)
    for _ in range(3):
        reference_work()
    out = {}
    for name in SOLVERS:
        b = rng.random(a.n_rows)
        first, first_ms = timed(lambda: solve[name](a, b))
        times = []
        for _ in range(repeats):
            b = rng.random(a.n_rows)
            times.append(timed(lambda: solve[name](a, b))[1])
        with recording() as rec:
            solve[name](a, rng.random(a.n_rows))
        repeat_compiles = rec.counter("plan.cache_misses")
        with recording() as rec:
            solve[name](changed, rng.random(changed.n_rows))
        out[name] = {
            "first_ms": first_ms,
            "repeat_ms": statistics.median(times),
            "iterations": first.iterations,
            "repeat_compiles": repeat_compiles,
            "changed_pattern_compiles": rec.counter("plan.cache_misses"),
        }
    return out


def run(*, processes: int, repeats: int, seed: int) -> dict:
    """Run *processes* fresh children and summarise them per solver."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    runs = []
    for k in range(processes):
        command = [sys.executable, __file__, "--child", "--seed", str(seed + k)]
        proc = subprocess.run(
            [*command, "--repeats", str(repeats)],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        runs.append(json.loads(proc.stdout.splitlines()[-1]))
    summary = {}
    for name in SOLVERS:
        rows = [r[name] for r in runs]
        summary[name] = {
            "first_ms": statistics.median(r["first_ms"] for r in rows),
            "repeat_ms": statistics.median(r["repeat_ms"] for r in rows),
            "repeat_compiles": max(r["repeat_compiles"] for r in rows),
            "changed_pattern_compiles": min(
                r["changed_pattern_compiles"] for r in rows
            ),
        }
    return {"processes": processes, "repeats": repeats, "summary": summary}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true", help="tiny CI guardrail run")
    ap.add_argument("--processes", type=int, default=7)
    ap.add_argument("--repeats", type=int, default=15)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        print(json.dumps(child(args.seed, args.repeats)))
        return 0
    if args.smoke:
        args.processes, args.repeats = 1, 3
    payload = run(processes=args.processes, repeats=args.repeats, seed=args.seed)
    print(
        f"{'solver':<14}{'first call ms':>15}{'repeated ms':>13}"
        f"{'compiles: repeat':>18}{'changed':>9}"
    )
    for name, s in payload["summary"].items():
        print(
            f"{name:<14}{s['first_ms']:>15.2f}{s['repeat_ms']:>13.2f}"
            f"{s['repeat_compiles']:>18.0f}{s['changed_pattern_compiles']:>9.0f}"
        )
    print(json.dumps(payload))
    if not args.smoke:
        return 0
    failed = False
    for name, s in payload["summary"].items():
        if s["repeat_compiles"] != 0:
            print(f"FAIL: {name}: a repeated call on one pattern compiled a plan")
            failed = True
        if s["changed_pattern_compiles"] < 1:
            print(f"FAIL: {name}: a call on a changed pattern compiled no plan")
            failed = True
    if not failed:
        print("smoke OK: repeated calls compile nothing, a changed pattern compiles")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
