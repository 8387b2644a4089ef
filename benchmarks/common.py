"""Shared benchmark infrastructure.

Every ``bench_*.py`` module is both:

* a **pytest-benchmark** target — ``pytest benchmarks/ --benchmark-only``
  times a representative unit of the experiment at small scale, and
* a **standalone experiment** — ``python benchmarks/bench_X.py`` runs the
  full sweep and prints the rows/series of the corresponding paper table
  or figure (plus writes ``benchmarks/results/<name>.json``).

``REPRO_BENCH_SCALE`` (``tiny`` / ``small`` / ``medium``, default
``small``) selects the matrix suite for standalone runs.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from repro.runtime import MachineConfig
from repro.sparse import SuiteMatrix, apply_ordering, benchmark_suite
from repro.sparse.csr import CSRMatrix

RESULTS_DIR = Path(__file__).parent / "results"

#: The paper's testbed: 20 CascadeLake cores at 2.5 GHz.
PAPER_THREADS = 20


def machine_config(n_threads: int = PAPER_THREADS) -> MachineConfig:
    """The standard simulated machine for all experiments."""
    return MachineConfig(n_threads=n_threads)


def bench_scale() -> str:
    """Suite scale for standalone runs (env ``REPRO_BENCH_SCALE``)."""
    return os.environ.get("REPRO_BENCH_SCALE", "small")


def reordered_suite(scale: str | None = None) -> list[SuiteMatrix]:
    """The benchmark suite, ND-reordered (the paper's METIS step)."""
    out = []
    for m in benchmark_suite(scale or bench_scale()):
        reordered, _ = apply_ordering(m.matrix, "nd")
        out.append(SuiteMatrix(name=m.name, family=m.family, matrix=reordered))
    return out


def small_test_matrix() -> CSRMatrix:
    """One ND-reordered mid-size matrix for pytest-benchmark units."""
    from repro.sparse import laplacian_3d

    a, _ = apply_ordering(laplacian_3d(10), "nd")
    return a


def geomean(values) -> float:
    """Geometric mean (ignores non-positive and non-finite values).

    ``inf`` entries come from the NER never-amortizes sentinel; letting
    one through would turn the whole aggregate into ``inf``.
    """
    arr = np.asarray(
        [v for v in values if v > 0 and np.isfinite(v)], dtype=float
    )
    return float(np.exp(np.log(arr).mean())) if arr.size else float("nan")


def _jsonable(obj):
    """Strict-JSON payload: non-finite floats (the NER ``inf`` sentinel)
    become ``None`` so the results files stay parseable everywhere."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (float, np.floating)):
        return float(obj) if np.isfinite(obj) else None
    if isinstance(obj, np.integer):
        return int(obj)
    return obj


def save_results(name: str, payload: dict) -> Path:
    """Write an experiment's rows to ``benchmarks/results/<name>.json``."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.json"
    path.write_text(
        json.dumps(_jsonable(payload), indent=2, default=float, allow_nan=False)
    )
    return path


def measure_stage_breakdown(
    kernels, n_threads: int = PAPER_THREADS, *, scheduler: str = "ico"
) -> dict[str, float]:
    """Per-stage inspector seconds for fusing *kernels* (one fresh run).

    Pass kernels nothing has inspected yet: DAGs, access maps and the
    ``F`` join are memoized on the kernel objects, so a second
    inspection of the same objects skips those stages.

    Runs :func:`repro.fuse` under a dedicated
    :class:`~repro.obs.Recorder` and returns span-name -> total seconds
    (inter-DAG join, LBC head partitioning, pairing, merging, slack
    re-balancing, packing, ...). Stored in results JSON under
    ``"stage_breakdown"`` so perf PRs can show *which* stage moved.
    """
    from repro import fuse
    from repro.obs import recording, stage_breakdown

    with recording() as rec:
        fuse(kernels, n_threads, scheduler=scheduler, validate=False)
    return stage_breakdown(rec)


def print_header(title: str) -> None:
    """Standard experiment banner."""
    print("=" * 78)
    print(title)
    print("=" * 78)


def scaled_config(a, n_threads: int) -> MachineConfig:
    """Machine with caches scaled to the workload.

    The paper's matrices dwarf the 33 MiB LLC (bone010 alone is 71M
    nonzeros); simulating at that size is infeasible, so the cache
    shrinks to keep the working-set-to-cache *ratio* comparable — the
    regime where cross-kernel temporal reuse is a real effect rather
    than free. Used by every cache-fidelity experiment (Figs. 6, 10).
    """
    from repro.runtime import CacheConfig

    lines_needed = max(1, a.nnz // 8)
    # The LLC slice must be well below one thread's share of the operand
    # (lines_needed / n_threads), otherwise a phase-by-phase baseline
    # re-streams its chunk from cache and the cross-kernel reuse signal
    # vanishes.
    cache = CacheConfig(
        l1_lines=max(8, lines_needed // 256),
        llc_lines=max(32, lines_needed // (4 * max(1, n_threads))),
    )
    return MachineConfig(n_threads=n_threads, cache=cache)
