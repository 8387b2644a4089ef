"""Benchmark regression guard: diff fresh results against baselines.

Every standalone benchmark writes ``benchmarks/results/<name>.json``
with a ``summary`` of headline metrics (geomean gflops / speedups, NER,
inspector seconds, plan cache hits). This module diffs a fresh results
directory against the committed one, metric by metric, with per-metric
noise thresholds:

* **deterministic** metrics (simulated-machine gflops/speedups, rates,
  structural counts) get a tight tolerance — a real 10% drop is flagged;
* **wall-clock** metrics (inspector seconds, NER, anything timed on the
  host) get a loose tolerance, since they move with the machine.

Cross-machine comparisons of wall-clock numbers are inherently noisy,
so CI instead runs ``--smoke``: the smoke benchmarks execute in-process
on a tiny matrix and are checked against **absolute floors** (e.g.
"compiled-plan executor no more than 10% slower than the per-iteration
oracle", "plan cache hits on every repeat") rather than against the
committed full-scale numbers.

CLI: ``repro bench-diff`` (also ``python benchmarks/regress.py``).
"""

from __future__ import annotations

import importlib.util
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "MetricSpec",
    "DiffRow",
    "extract_metrics",
    "metric_spec",
    "diff_payloads",
    "diff_dirs",
    "format_diff_table",
    "has_regressions",
    "smoke_check",
    "SMOKE_FLOORS",
]


@dataclass(frozen=True)
class MetricSpec:
    """How to judge one metric: which way is better, and how much
    relative movement is noise."""

    direction: str  # "higher" | "lower"
    rel_tol: float


#: tolerance classes (see module docstring)
_TIGHT = 0.05  # deterministic simulated metrics
_LOOSE = 0.35  # wall-clock metrics

#: exact-name overrides; anything else falls through the heuristics in
#: :func:`metric_spec`.
_SPEC_OVERRIDES: dict[str, MetricSpec] = {
    # NER mixes measured inspector seconds with simulated executor
    # seconds, so it inherits wall-clock noise.
    "median_finite_ner_vec": MetricSpec("higher", _LOOSE),
    # packing ablation: "wrong packing costs this much" — higher means
    # packing matters more; only a collapse toward 1.0 is suspicious.
    "geomean_wrong_packing": MetricSpec("higher", _TIGHT),
}

_WALL_CLOCK_MARKERS = ("seconds", "_ms", "warm_vs", "vec_vs_seed", "ner")


def metric_spec(name: str) -> MetricSpec:
    """Judgement spec for a summary metric, by name convention."""
    if name in _SPEC_OVERRIDES:
        return _SPEC_OVERRIDES[name]
    lower = name.lower()
    if any(m in lower for m in _WALL_CLOCK_MARKERS):
        direction = "lower" if "seconds" in lower or lower.endswith("_ms") else "higher"
        return MetricSpec(direction, _LOOSE)
    # deterministic simulated metrics: gflops, speedups, rates, counts
    return MetricSpec("higher", _TIGHT)


def extract_metrics(payload: dict) -> dict[str, float]:
    """Flatten a benchmark results payload into ``{metric: value}``.

    Takes every numeric scalar in ``payload["summary"]`` (bools become
    0/1; nested dicts and nulls are skipped) and derives a few row-level
    aggregates where the rows carry recognizable headline columns:

    * rows with ``sf_gflops`` → ``geomean_sf_gflops`` (Fig. 5 style)
    * rows with ``vec_seconds`` → ``total_vec_seconds`` (inspector cost)
    * rows with ``plan_cache_hits`` → ``min_plan_cache_hits``
    """
    metrics: dict[str, float] = {}
    for key, value in payload.get("summary", {}).items():
        if isinstance(value, bool):
            metrics[key] = 1.0 if value else 0.0
        elif isinstance(value, (int, float)) and np.isfinite(value):
            metrics[key] = float(value)
    rows = payload.get("rows", [])
    if rows and isinstance(rows, list) and isinstance(rows[0], dict):
        gflops = [
            r["sf_gflops"]
            for r in rows
            if isinstance(r.get("sf_gflops"), (int, float))
        ]
        if gflops:
            arr = np.asarray([g for g in gflops if g > 0], dtype=float)
            if arr.size:
                metrics["geomean_sf_gflops"] = float(np.exp(np.log(arr).mean()))
        vec = [
            r["vec_seconds"]
            for r in rows
            if isinstance(r.get("vec_seconds"), (int, float))
        ]
        if vec:
            metrics["total_vec_seconds"] = float(sum(vec))
        hits = [
            r["plan_cache_hits"]
            for r in rows
            if isinstance(r.get("plan_cache_hits"), (int, float))
        ]
        if hits:
            metrics["min_plan_cache_hits"] = float(min(hits))
    return metrics


@dataclass
class DiffRow:
    """One metric's verdict in a baseline-vs-fresh comparison."""

    bench: str
    metric: str
    baseline: float | None
    fresh: float | None
    change: float  # signed relative change, (fresh - baseline) / |baseline|
    direction: str
    rel_tol: float
    verdict: str  # "ok" | "improved" | "regressed" | "new" | "missing"

    @property
    def failed(self) -> bool:
        return self.verdict == "regressed"


def diff_payloads(bench: str, baseline: dict, fresh: dict) -> list[DiffRow]:
    """Diff two results payloads of the same benchmark."""
    base_m = extract_metrics(baseline)
    fresh_m = extract_metrics(fresh)
    rows: list[DiffRow] = []
    for name in sorted(set(base_m) | set(fresh_m)):
        spec = metric_spec(name)
        b, f = base_m.get(name), fresh_m.get(name)
        if b is None:
            rows.append(DiffRow(bench, name, None, f, 0.0, spec.direction, spec.rel_tol, "new"))
            continue
        if f is None:
            rows.append(
                DiffRow(bench, name, b, None, 0.0, spec.direction, spec.rel_tol, "missing")
            )
            continue
        change = (f - b) / abs(b) if b != 0 else (0.0 if f == 0 else np.inf * np.sign(f))
        worse = change < -spec.rel_tol if spec.direction == "higher" else change > spec.rel_tol
        better = change > spec.rel_tol if spec.direction == "higher" else change < -spec.rel_tol
        verdict = "regressed" if worse else ("improved" if better else "ok")
        rows.append(
            DiffRow(bench, name, b, f, float(change), spec.direction, spec.rel_tol, verdict)
        )
    return rows


def _read_results(path: Path) -> dict:
    """Parse one results JSON; failures name the offending file."""
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise ValueError(
            f"cannot read benchmark results from '{path}': {exc}"
        ) from exc
    if not isinstance(payload, dict):
        raise ValueError(
            f"cannot read benchmark results from '{path}': top level is "
            f"{type(payload).__name__}, expected a results object"
        )
    return payload


def diff_dirs(
    baseline_dir, fresh_dir, *, benches: list[str] | None = None
) -> list[DiffRow]:
    """Diff every ``*.json`` present in both directories.

    A baseline file with no fresh counterpart yields a single
    ``missing`` row (benchmark not rerun — informational, not a
    failure); fresh files without a baseline yield ``new`` rows.
    """
    baseline_dir, fresh_dir = Path(baseline_dir), Path(fresh_dir)
    names = sorted(
        {p.stem for p in baseline_dir.glob("*.json")}
        | {p.stem for p in fresh_dir.glob("*.json")}
    )
    if benches is not None:
        names = [n for n in names if n in set(benches)]
    rows: list[DiffRow] = []
    for name in names:
        bp, fp = baseline_dir / f"{name}.json", fresh_dir / f"{name}.json"
        base = _read_results(bp) if bp.exists() else None
        fresh = _read_results(fp) if fp.exists() else None
        if base is None:
            rows.extend(diff_payloads(name, {}, fresh))
        elif fresh is None:
            rows.append(DiffRow(name, "(all)", None, None, 0.0, "higher", 0.0, "missing"))
        else:
            rows.extend(diff_payloads(name, base, fresh))
    return rows


def has_regressions(rows: list[DiffRow]) -> bool:
    return any(r.failed for r in rows)


def format_diff_table(rows: list[DiffRow], *, only_interesting: bool = False) -> str:
    """Console verdict table; *only_interesting* hides in-tolerance rows."""
    shown = [r for r in rows if r.verdict != "ok"] if only_interesting else rows
    lines = [
        f"{'benchmark':22s} {'metric':34s} {'baseline':>12s} {'fresh':>12s} "
        f"{'change':>8s} {'tol':>6s} verdict"
    ]
    lines.append("-" * len(lines[0]))
    for r in shown:
        b = f"{r.baseline:.4g}" if r.baseline is not None else "-"
        f = f"{r.fresh:.4g}" if r.fresh is not None else "-"
        ch = f"{r.change:+.1%}" if r.baseline is not None and r.fresh is not None else "-"
        mark = {"regressed": "FAIL", "improved": "ok +", "ok": "ok"}.get(r.verdict, r.verdict)
        lines.append(
            f"{r.bench:22s} {r.metric:34s} {b:>12s} {f:>12s} {ch:>8s} "
            f"{r.rel_tol:>5.0%} {mark}"
        )
    n_fail = sum(r.failed for r in rows)
    lines.append(
        f"{len(rows)} metrics compared, {n_fail} regression(s)"
        + ("" if n_fail else " — all within tolerance")
    )
    return "\n".join(lines)


# -- smoke mode (the CI guardrail) -------------------------------------
#: absolute floors checked against in-process smoke benchmark runs:
#: bench module -> list of (metric, floor, how-to-read-it)
SMOKE_FLOORS: dict[str, list[tuple[str, float, str]]] = {
    "bench_executor_plans": [
        (
            "geomean_speedup_plan_vs_iter",
            1.0 / 1.10,
            "compiled-plan executor must not be >10% slower than the "
            "per-iteration oracle",
        ),
        ("all_cache_hits_positive", 1.0, "plan cache must hit on repeats"),
        (
            "all_fused_steps_within_unfused",
            1.0,
            "fused plans must need no more steps than unfused ParSy plans",
        ),
        (
            "warm_run_skips_plan_compile",
            1.0,
            "a fresh cache on a populated directory must load, not compile, "
            "its plan",
        ),
    ],
    "bench_inspector": [
        (
            "geomean_speedup_vec_vs_seed",
            1.0 / 1.20,
            "vectorized inspector must not be >20% slower than the "
            "per-vertex seed",
        ),
        ("all_warm_cache_hit", 1.0, "schedule cache must hit on warm fuse()"),
        (
            "all_warm_below_vec",
            1.0,
            "warm (cache-hit) inspector must beat cold vectorized scheduling",
        ),
    ],
}


def _load_bench_module(bench_dir: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, bench_dir / f"{name}.py")
    if spec is None or spec.loader is None:
        raise FileNotFoundError(f"benchmark module {name} not found in {bench_dir}")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def smoke_check(bench_dir, *, verbose: bool = False) -> list[DiffRow]:
    """Run the smoke benchmarks in-process and check the absolute floors.

    Returns :class:`DiffRow` rows with ``baseline`` = the floor, so the
    same verdict table renders both modes.
    """
    bench_dir = Path(bench_dir)
    rows: list[DiffRow] = []
    for name, floors in SMOKE_FLOORS.items():
        mod = _load_bench_module(bench_dir, name)
        payload = mod.run(smoke=True, verbose=verbose)
        metrics = extract_metrics(payload)
        for metric, floor, why in floors:
            value = metrics.get(metric)
            if value is None:
                rows.append(
                    DiffRow(name, metric, floor, None, 0.0, "higher", 0.0, "missing")
                )
                continue
            ok = value >= floor
            change = (value - floor) / abs(floor) if floor else 0.0
            rows.append(
                DiffRow(
                    name,
                    metric,
                    floor,
                    value,
                    float(change),
                    "higher",
                    0.0,
                    "ok" if ok else "regressed",
                )
            )
    return rows
