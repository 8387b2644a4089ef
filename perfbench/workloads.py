"""The benchmark's workloads: inputs built from a seed, and the cases run on them.

Every workload is a function ``setup(seed) -> Workload``. Its cases are run
round-robin by ``run.py``; one pass over all cases is the unit the
end-to-end latency describes. The seed drives only values: each matrix is
a fixed-pattern 3-D Poisson matrix (nested-dissection ordered) under a
random positive diagonal scaling ``D A D``, plus random right-hand sides.
Congruent scaling leaves the sparsity pattern, and therefore every
schedule, and the IC0-PCG and Gauss-Seidel iteration counts unchanged, so
seeds vary the inputs without varying the work.
"""

from __future__ import annotations

import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro import build_combination, fuse
from repro.analytics.doctor import diagnose
from repro.analytics.locality import profile_locality
from repro.obs import current as current_recorder
from repro.obs.memtrace import sanitize_schedule
from repro.runtime.executor import run_reference
from repro.runtime.plan import execute_schedule_planned
from repro.schedule.cache import ScheduleCache
from repro.solvers.gauss_seidel import gauss_seidel
from repro.solvers.pcg import pcg_ic0
from repro.sparse import apply_ordering, laplacian_3d
from repro.sparse.csr import CSRMatrix

#: Table 1 combinations: TRSV-TRSV, TRSV-MV, IC0-TRSV and ILU0-TRSV, i.e.
#: CD-CD and CD-Par pairs with and without a factorization. The Par-CD
#: pairs 2 and 6 only add a diagonal scaling in front of a factorization
#: already covered here.
COMBOS = (1, 3, 4, 5)
N_THREADS = 8
PCG_TOL = 1e-8
GS_TOL = 1e-6


@dataclass
class Case:
    """One timed operation: ``run()`` returns what ``check(result)`` verifies."""

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]
    #: per-op counts the program does not emit as counters
    counts: Callable[[Any], dict] = lambda result: {}


@dataclass
class Workload:
    cases: list[Case]
    cleanup: Callable[[], None] = field(default=lambda: None)


def scaled_poisson(nx: int, rng: np.random.Generator) -> CSRMatrix:
    """``D A D`` for the nd-ordered ``nx^3`` 7-point Laplacian, ``D`` random."""
    a, _ = apply_ordering(laplacian_3d(nx), "nd")
    d = rng.uniform(0.5, 2.0, a.n_rows)
    rows = np.repeat(np.arange(a.n_rows), np.diff(a.indptr))
    return CSRMatrix(
        a.n_rows, a.n_cols, a.indptr, a.indices, a.data * d[rows] * d[a.indices]
    )


def _states_match(state: dict, expected: dict) -> bool:
    # "_"-prefixed arrays are executor scratch (e.g. CSC-TRSV accumulators)
    # that the sequential reference never touches.
    return all(
        np.allclose(state[var], ref, rtol=1e-9, atol=1e-12)
        for var, ref in expected.items()
        if not var.startswith("_")
    )


# ---------------------------------------------------------------------------
def solve(seed: int) -> Workload:
    """Time to solution with both fused solvers, at their default settings."""
    rng = np.random.default_rng(seed)
    a = scaled_poisson(8, rng)
    a_scipy = a.to_scipy()
    b = rng.random(a.n_rows)

    def solved(result, tol: float) -> bool:
        # PCG stops on its recurrence residual, which drifts from the true
        # one by rounding; allow one order of magnitude for that.
        residual = np.linalg.norm(b - a_scipy @ result.x) / np.linalg.norm(b)
        return result.converged and residual <= 10 * tol

    iterations = lambda result: {"solver_iterations": result.iterations}
    return Workload(
        [
            Case(
                "pcg-ic0",
                lambda: pcg_ic0(a, b, tol=PCG_TOL),
                lambda r: solved(r, PCG_TOL),
                iterations,
            ),
            Case(
                "gauss-seidel",
                lambda: gauss_seidel(a, b, tol=GS_TOL, max_iters=2000),
                lambda r: solved(r, GS_TOL),
                iterations,
            ),
        ]
    )


# ---------------------------------------------------------------------------
def _one_shot_cases(a: CSRMatrix, seed: int, cache_dir: Path | None) -> list[Case]:
    """Build the loops, fuse them, execute the plan once; per combination."""
    cases = []
    for combo in COMBOS:
        expected = run_reference(*build_combination(combo, a, seed))

        def run(combo=combo):
            with current_recorder().span("bench.build"):
                kernels, state = build_combination(combo, a, seed)
            # A fresh cache object per op has an empty memory tier, as in
            # a new process: a hit has to come from disk.
            cache = ScheduleCache(directory=cache_dir) if cache_dir else None
            fused = fuse(kernels, N_THREADS, cache=cache)
            execute_schedule_planned(fused.schedule, fused.kernels, state)
            return state, cache

        def check(result, expected=expected):
            state, cache = result
            hit_as_intended = cache is None or cache.stats["hits"] == 1
            return hit_as_intended and _states_match(state, expected)

        cases.append(Case(f"combo{combo}", run, check))
    return cases


def cold(seed: int) -> Workload:
    """One-shot fusion with no schedule cache: inspect, schedule, compile, run."""
    a = scaled_poisson(12, np.random.default_rng(seed))
    return Workload(_one_shot_cases(a, seed, None))


def warm(seed: int) -> Workload:
    """One-shot fusion whose schedules a previous process left in the disk cache."""
    a = scaled_poisson(12, np.random.default_rng(seed))
    root = Path(__file__).resolve().parent.parent
    cache_dir = Path(tempfile.mkdtemp(prefix=".perfbench-cache-", dir=root))
    try:
        for combo in COMBOS:
            kernels, _ = build_combination(combo, a, seed)
            fuse(kernels, N_THREADS, cache=ScheduleCache(directory=cache_dir))
        cases = _one_shot_cases(a, seed, cache_dir)
    except BaseException:
        shutil.rmtree(cache_dir, ignore_errors=True)
        raise
    return Workload(cases, lambda: shutil.rmtree(cache_dir, ignore_errors=True))


# ---------------------------------------------------------------------------
def analysis(seed: int) -> Workload:
    """The analysis tools on a fused schedule, as one fresh invocation runs them:
    the plan-executor sanitizer, the locality profiler with its counterfactual
    packing, and the doctor on the cache-fidelity machine model."""
    a = scaled_poisson(8, np.random.default_rng(seed))
    cases = []
    for combo in COMBOS:
        kernels, _ = build_combination(combo, a, seed)
        fused = fuse(kernels, N_THREADS)
        first: list[tuple] = []

        def run(fused=fused):
            # copy() drops the memoized plan, so the sanitizer compiles it
            # as a fresh process would.
            report = sanitize_schedule(
                fused.schedule.copy(), fused.kernels, executor="plan"
            )
            locality = profile_locality(
                fused.schedule,
                fused.kernels,
                dags=fused.dags,
                inter=fused.inter,
                estimated_reuse=fused.reuse_ratio,
            )
            with current_recorder().span("bench.doctor"):
                doctor = diagnose(
                    fused.schedule, fused.kernels, fidelity="cache", locality=locality
                )
            return report, locality, doctor

        def check(result, first=first):
            report, locality, doctor = result
            fingerprint = (
                report.n_accesses,
                report.n_pairs,
                locality.n_accesses,
                locality.hit_rate,
                locality.counterfactual_hit_rate,
                [f.rule for f in doctor.findings],
            )
            if not first:
                first.append(fingerprint)
            return (
                report.n_violations == 0
                and report.n_pairs > 0
                and locality.n_accesses > 0
                and 0.0 <= locality.hit_rate <= 1.0
                and fingerprint == first[0]
            )

        cases.append(Case(f"combo{combo}", run, check))
    return Workload(cases)


WORKLOADS = {"solve": solve, "cold": cold, "warm": warm, "analysis": analysis}
