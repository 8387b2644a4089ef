"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``info``
    Matrix and dependence-DAG statistics for a matrix spec.
``fuse``
    Run the inspector + a scheduler on a Table 1 combination; print the
    schedule profile; optionally persist the schedule (``--save``).
``compare``
    The Fig. 5 comparison (all implementations) for one combination.
``gs``
    Solve ``A x = b`` with fused backward Gauss-Seidel.
``trace``
    Trace the inspector→ICO→executor pipeline for one combination:
    prints a per-stage summary table and writes a unified Perfetto
    trace (plus optional JSONL / Prometheus text dumps). See
    ``docs/observability.md``.
``doctor``
    Run the schedule doctor on one combination: simulate, attribute
    the cycles, and print ranked findings with evidence and hints
    (:mod:`repro.analytics.doctor`).
``bench-diff``
    Benchmark regression guard: diff fresh ``benchmarks/results``
    JSONs against the committed baselines, or run the ``--smoke``
    absolute-floor checks (the CI guardrail).
``sanitize``
    Dynamic dependence sanitizer: shadow-check every memory dependence
    of a fused schedule under the happens-before model of one (or all)
    executors (:mod:`repro.obs.memtrace`). Exit 1 on violations.
``locality``
    Measured-locality profiler: reuse-distance histograms, working
    sets, measured reuse ratio and the counterfactual-packing gap
    (:mod:`repro.analytics.locality`).

``fuse``, ``compare`` and ``gs`` also accept ``--trace PATH`` to record
the run and write the unified Perfetto trace alongside their normal
output, and ``--sanitize`` to run the dependence sanitizer before
executing; ``compare`` and ``gs`` accept ``--doctor`` to append the
schedule doctor's findings, and ``doctor`` accepts ``--locality`` to
feed measured locality into its rules.

Matrix specs are either a Matrix Market path (``path/to/m.mtx``) or a
synthetic generator spec: ``lap2d:N``, ``lap3d:N``, ``fe3d:N``,
``band:N,BW``, ``rand:N[,NNZ_PER_ROW]``, ``pow:N[,NNZ_PER_ROW]``,
``arrow:N``, ``chained:BLOCKS,SIZE``. Every
matrix is ND-reordered unless ``--ordering natural`` is given.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .baselines import IMPLEMENTATIONS, compare_implementations
from .fusion import COMBINATIONS, build_combination, fuse
from .graph import DAG
from .obs import (
    Recorder,
    export_jsonl,
    export_perfetto,
    export_prometheus,
    format_summary,
    recording,
)
from .runtime import CacheConfig, MachineConfig
from .runtime.profiling import format_profile, profile_schedule
from .schedule import pattern_fingerprint, save_schedule
from .sparse import (
    apply_ordering,
    arrow_spd,
    banded_spd,
    chained_spd,
    fe_3d_27pt,
    laplacian_2d,
    laplacian_3d,
    powerlaw_spd,
    random_spd,
    read_matrix_market,
)

__all__ = ["main", "parse_matrix_spec", "CLIError"]


class CLIError(Exception):
    """A user-facing CLI failure: printed as ``error: ...`` (no
    traceback) and turned into exit code 2 by :func:`main`."""


def _version() -> str:
    """Package version from installed metadata, else the source tree."""
    try:
        from importlib.metadata import version

        return version("repro")
    except Exception:
        from . import __version__

        return __version__


def _count(text: str) -> int:
    """A generator count (``N``, ``BLOCKS``, ``SIZE``): an integer >= 1."""
    n = int(text)
    if n < 1:
        raise ValueError(f"count {n} < 1")
    return n


#: name -> (expected form after ``name:``, builder over the comma-split
#: arguments). A builder raises ``TypeError`` on a wrong argument count
#: and ``ValueError`` on a value that does not parse or a count below 1.
_GENERATORS = {
    "lap2d": ("N", lambda n: laplacian_2d(_count(n))),
    "lap3d": ("N", lambda n: laplacian_3d(_count(n))),
    "fe3d": ("N", lambda n: fe_3d_27pt(_count(n))),
    "band": ("N,BW", lambda n, bw: banded_spd(_count(n), int(bw))),
    "rand": ("N[,NNZ_PER_ROW]", lambda n, k="8": random_spd(_count(n), float(k))),
    "pow": ("N[,NNZ_PER_ROW]", lambda n, k="8": powerlaw_spd(_count(n), float(k))),
    "arrow": ("N", lambda n: arrow_spd(_count(n))),
    "chained": ("BLOCKS,SIZE", lambda b, size: chained_spd(_count(b), _count(size))),
}


def parse_matrix_spec(spec: str):
    """Resolve a matrix spec (generator string or ``.mtx`` path).

    A generator spec that does not fit its form raises :class:`CLIError`
    naming the spec and the form, as an unreadable ``.mtx`` path does.
    """
    name, sep, rest = spec.partition(":")
    if sep and name in _GENERATORS:
        form, build = _GENERATORS[name]
        try:
            return build(*rest.split(","))
        except (TypeError, ValueError) as exc:
            raise CLIError(
                f"malformed matrix spec '{spec}': expected {name}:{form}"
            ) from exc
    return _read_artifact("matrix", spec, read_matrix_market)


def _load(args):
    a = parse_matrix_spec(args.matrix)
    if args.ordering != "natural":
        a, _ = apply_ordering(a, args.ordering)
    return a


def _start_recording(args):
    """Recorder + context for the pipeline-summary commands.

    Always records (the summary line needs the inspector/plan spans and
    cache counters); the Perfetto trace is only written with ``--trace``.
    Also installs the default schedule cache when ``--inspector-cache``
    is given (bare flag = in-memory, with a value = on-disk directory).
    """
    from .schedule import ScheduleCache, set_default_cache

    if getattr(args, "inspector_cache", None) is not None:
        set_default_cache(ScheduleCache(directory=args.inspector_cache or None))
    rec = Recorder()
    return rec, recording(rec)


def _pipeline_summary(rec) -> str:
    """One-line NER health readout: inspector / plan-compile / caches."""
    counters = rec.counters
    inspector = counters.get("inspector.seconds", 0.0)
    plan = sum(s.seconds for s in rec.spans if s.name == "plan.compile")
    hits = int(counters.get("inspector.cache_hits", 0))
    misses = int(counters.get("inspector.cache_misses", 0))
    cache = (
        f"schedule cache {hits} hit / {misses} miss"
        if hits or misses
        else "schedule cache off"
    )
    plan_hits = int(counters.get("plan.store_hits", 0))
    plan_misses = int(counters.get("plan.store_misses", 0))
    if plan_hits or plan_misses:
        cache += f", plan store {plan_hits} hit / {plan_misses} miss"
    return (
        f"pipeline    inspector {inspector * 1e3:.1f} ms, "
        f"plan compile {plan * 1e3:.1f} ms, {cache}"
    )


def _write_artifact(what, path, write):
    """Run *write* (a ``path -> path`` callable); turn filesystem
    failures (missing directory, permissions, path-is-a-directory) into
    a clear :class:`CLIError` instead of a traceback."""
    try:
        return write(path)
    except (OSError, IsADirectoryError) as exc:
        detail = exc.strerror or str(exc)
        raise CLIError(f"cannot write {what} to '{path}': {detail}") from exc


def _read_artifact(what, path, read):
    """Run *read* (a ``path -> value`` callable); turn a missing or
    unreadable input artifact (matrix file, schedule/trace JSON) into a
    clear ``error: cannot read ...`` + exit 2 instead of a traceback."""
    try:
        return read(path)
    except (OSError, IsADirectoryError) as exc:
        detail = exc.strerror or str(exc)
        raise CLIError(f"cannot read {what} from '{path}': {detail}") from exc
    except ValueError as exc:
        raise CLIError(f"cannot read {what} from '{path}': {exc}") from exc


def _write_unified_trace(rec, path, schedule, kernels, n_threads) -> None:
    out = _write_artifact(
        "unified trace",
        path,
        lambda p: export_perfetto(
            rec,
            p,
            schedule=schedule,
            kernels=kernels,
            config=MachineConfig(n_threads=n_threads),
        ),
    )
    print(f"unified trace written to {out} (open at https://ui.perfetto.dev)")


def _cmd_info(args) -> int:
    from .sparse import analyze_matrix

    a = _load(args)
    s = analyze_matrix(a)
    print(f"matrix   : n={s.n}, nnz={s.nnz}, density={s.density:.2e}")
    print(f"pattern  : bandwidth={s.bandwidth}, profile={s.profile:.1f}, "
          f"symmetric={s.symmetric_pattern}")
    print(f"rows     : nnz mean={s.row_nnz_mean:.1f}, max={s.row_nnz_max}, "
          f"cv={s.row_nnz_cv:.2f}")
    print(f"DAG      : edges={s.dag_edges}, wavefronts={s.wavefronts}, "
          f"parallelism={s.parallelism:.1f}")
    print(f"wavefront widths: max={s.max_wavefront_width}, "
          f"mean={s.mean_wavefront_width:.1f}")
    print(f"slack    : {100 * s.slack_fraction:.0f}% of vertices "
          f"have positive slack")
    return 0


def _execute_with(executor, schedule, kernels, state, sanitize=False):
    """Run *schedule* under the named executor; returns wall seconds."""
    import time

    from .runtime import execute_schedule, execute_schedule_planned

    t0 = time.perf_counter()
    if executor == "plan":
        execute_schedule_planned(schedule, kernels, state, sanitize=sanitize)
    else:
        execute_schedule(schedule, kernels, state, sanitize=sanitize)
    return time.perf_counter() - t0


def _cmd_fuse(args) -> int:
    a = _load(args)
    kernels, state = build_combination(args.combo, a)
    rec, ctx = _start_recording(args)
    with ctx:
        fl = fuse(kernels, args.threads, scheduler=args.scheduler)
        executed = _execute_with(
            args.executor,
            fl.schedule,
            kernels,
            state,
            sanitize=args.sanitize,
        )
    combo = COMBINATIONS[args.combo]
    print(f"combination {args.combo} ({combo.name}): {combo.operations}")
    if args.sanitize:
        print(f"sanitizer   clean ({args.executor} happens-before model)")
    print(f"reuse ratio {fl.reuse_ratio:.3f} -> {fl.schedule.packing} packing")
    print(f"inspector   {fl.inspector_seconds * 1e3:.1f} ms")
    print(f"executed    {executed * 1e3:.1f} ms ({args.executor} executor)")
    print(_pipeline_summary(rec))
    print(format_profile(profile_schedule(fl.schedule, kernels)))
    if args.save:
        fp = pattern_fingerprint(*(k.intra_dag() for k in kernels))
        path = save_schedule(args.save, fl.schedule, fingerprint=fp)
        print(f"schedule saved to {path}")
    if args.trace:
        _write_unified_trace(rec, args.trace, fl.schedule, kernels, args.threads)
    return 0


def _cmd_compare(args) -> int:
    a = _load(args)
    kernels, state = build_combination(args.combo, a)
    cfg = MachineConfig(n_threads=args.threads)
    rec, ctx = _start_recording(args)
    with ctx:
        results = compare_implementations(kernels, args.threads, cfg)
        executed = _execute_with(
            args.executor,
            results["sparse-fusion"].schedule,
            kernels,
            state,
            sanitize=args.sanitize,
        )
    print(f"{'implementation':16s} {'GFLOP/s':>8s} {'sim time':>10s} "
          f"{'barriers':>8s} {'inspect':>9s}")
    for name, res in sorted(
        results.items(), key=lambda kv: kv[1].executor_seconds
    ):
        print(
            f"{name:16s} {res.gflops:8.2f} "
            f"{res.executor_seconds * 1e6:8.1f}us "
            f"{res.schedule.n_spartitions:8d} "
            f"{res.inspector_seconds * 1e3:7.1f}ms"
        )
    print(
        f"sparse-fusion schedule executed in {executed * 1e3:.1f} ms "
        f"({args.executor} executor)"
    )
    print(_pipeline_summary(rec))
    if args.doctor:
        print()
        _run_doctor(results["sparse-fusion"].schedule, kernels, args)
    if args.trace:
        sched = results["sparse-fusion"].schedule
        _write_unified_trace(rec, args.trace, sched, kernels, args.threads)
    return 0


def _cmd_gs(args) -> int:
    from .solvers import build_gs_chain, gauss_seidel, gauss_seidel_simulated

    a = _load(args)
    rng = np.random.default_rng(args.seed)
    b = rng.random(a.n_rows)
    rec, ctx = _start_recording(args)
    with ctx:
        res = gauss_seidel(
            a,
            b,
            tol=args.tol,
            max_iters=args.max_iters,
            unroll=args.unroll,
            method=args.method,
            n_threads=args.threads,
            executor=args.executor,
        )
    status = "converged" if res.converged else "NOT converged"
    residual = f" (residual {res.residuals[-1]:.2e})" if res.residuals else ""
    print(f"{status} in {res.iterations} iterations{residual}")
    sim = gauss_seidel_simulated(
        a,
        b,
        iterations=res.iterations,
        unroll=args.unroll,
        method=args.method,
        n_threads=args.threads,
    )
    print(
        f"simulated solve {sim.simulated_solve_seconds * 1e3:.2f} ms "
        f"({args.method} schedule, inspector {sim.inspector_seconds * 1e3:.1f} ms); "
        f"{res.meta['chunks']} chunks of {2 * args.unroll} loops, "
        f"set up in {res.inspector_seconds * 1e3:.1f} ms"
    )
    print(_pipeline_summary(rec))
    if args.doctor or args.trace or args.sanitize:
        kernels, _, _ = build_gs_chain(a, args.unroll)
        if args.sanitize:
            from .obs.memtrace import sanitize_schedule

            report = sanitize_schedule(res.schedule, kernels, executor=args.executor)
            print(report.summary())
            report.raise_if_violations()
        if args.doctor:
            print()
            _run_doctor(res.schedule, kernels, args)
        if args.trace:
            _write_unified_trace(
                rec, args.trace, res.schedule, kernels, args.threads
            )
    return 0


def _cmd_trace(args) -> int:
    a = _load(args)
    kernels, _ = build_combination(args.combo, a)
    combo = COMBINATIONS[args.combo]
    rec = Recorder()
    with recording(rec):
        fl = fuse(kernels, args.threads, scheduler=args.scheduler)
    print(f"combination {args.combo} ({combo.name}): {combo.operations}")
    print(
        f"reuse ratio {fl.reuse_ratio:.3f} -> {fl.schedule.packing} packing, "
        f"{fl.schedule.n_spartitions} s-partitions"
    )
    print()
    print(format_summary(rec, title=f"pipeline trace ({args.scheduler})"))
    _write_unified_trace(rec, args.out, fl.schedule, kernels, args.threads)
    if args.jsonl:
        out = _write_artifact(
            "JSONL event log", args.jsonl, lambda p: export_jsonl(rec, p)
        )
        print(f"JSONL event log written to {out}")
    if args.prom:
        _write_artifact(
            "Prometheus text", args.prom, lambda p: export_prometheus(rec, p)
        )
        print(f"Prometheus text written to {args.prom}")
    return 0


def _run_doctor(
    schedule,
    kernels,
    args,
    *,
    fidelity=None,
    json_path=None,
    top=5,
    locality=None,
    config=None,
):
    """Shared doctor driver: diagnose, print, optionally dump JSON."""
    import json as _json

    from .analytics import diagnose

    report = diagnose(
        schedule,
        kernels,
        config or MachineConfig(n_threads=args.threads),
        fidelity=fidelity or getattr(args, "fidelity", "flat"),
        locality=locality,
    )
    print(report.format_table(top=top or None))
    if json_path:
        _write_artifact(
            "doctor report",
            json_path,
            lambda p: _write_text(p, _json.dumps(report.to_json(), indent=2)),
        )
        print(f"doctor report written to {json_path}")
    return report


def _write_text(path, text):
    from pathlib import Path

    Path(path).write_text(text)
    return path


def _cmd_doctor(args) -> int:
    a = _load(args)
    kernels, _ = build_combination(args.combo, a)
    combo = COMBINATIONS[args.combo]
    rec, ctx = _start_recording(args)
    with ctx:
        fl = fuse(kernels, args.threads, scheduler=args.scheduler)
    print(f"combination {args.combo} ({combo.name}): {combo.operations}")
    print(
        f"reuse ratio {fl.reuse_ratio:.3f} -> {fl.schedule.packing} packing, "
        f"{fl.schedule.n_spartitions} s-partitions\n"
    )
    cfg = MachineConfig(n_threads=args.threads)
    locality = None
    if args.locality:
        from .analytics import profile_locality

        locality = profile_locality(
            fl.schedule,
            kernels,
            cfg,
            dags=fl.dags,
            inter=fl.inter,
            estimated_reuse=fl.reuse_ratio,
        )
        print(locality.summary() + "\n")
    _run_doctor(
        fl.schedule,
        kernels,
        args,
        fidelity=args.fidelity,
        json_path=args.json,
        top=args.top,
        locality=locality,
        config=cfg,
    )
    if args.trace:
        _write_unified_trace(rec, args.trace, fl.schedule, kernels, args.threads)
    return 0


def _cmd_sanitize(args) -> int:
    import json as _json

    from .obs.memtrace import sanitize_schedule

    a = _load(args)
    kernels, _ = build_combination(args.combo, a)
    combo = COMBINATIONS[args.combo]
    fl = fuse(kernels, args.threads, scheduler=args.scheduler)
    executors = (
        ("iter", "plan") if args.executor == "all" else (args.executor,)
    )
    print(f"combination {args.combo} ({combo.name}): {combo.operations}")
    print(
        f"schedule    {fl.schedule.n_spartitions} s-partitions, "
        f"{fl.schedule.n_vertices} vertices ({args.scheduler})"
    )
    reports = [
        sanitize_schedule(fl.schedule, kernels, executor=ex) for ex in executors
    ]
    for report in reports:
        print(report.format(max_lines=args.max_violations))
    if args.json:
        _write_artifact(
            "sanitizer report",
            args.json,
            lambda p: _write_text(
                p,
                _json.dumps([r.to_json() for r in reports], indent=2),
            ),
        )
        print(f"sanitizer report written to {args.json}")
    return 1 if any(not r.clean for r in reports) else 0


def _cmd_locality(args) -> int:
    import json as _json

    from .analytics import profile_locality

    a = _load(args)
    kernels, _ = build_combination(args.combo, a)
    combo = COMBINATIONS[args.combo]
    cfg = MachineConfig(
        n_threads=args.threads, cache=CacheConfig(l1_lines=args.capacity_lines)
    )
    rec, ctx = _start_recording(args)
    with ctx:
        fl = fuse(kernels, args.threads, scheduler=args.scheduler)
        report = profile_locality(
            fl.schedule,
            kernels,
            cfg,
            dags=fl.dags,
            inter=fl.inter,
            estimated_reuse=fl.reuse_ratio,
        )
    print(f"combination {args.combo} ({combo.name}): {combo.operations}")
    print(report.summary())
    print(
        f"packing     measured ratio selects {report.measured_packing}; "
        f"inspector chose {report.packing}"
    )
    hdr = f"{'s/w':>7s} {'accesses':>9s} {'lines':>7s} {'hit rate':>9s} {'mean dist':>10s}"
    print(hdr)
    for w in report.w_partitions[: args.top or None]:
        print(
            f"s{w.s}/w{w.w:<4d} {w.n_accesses:9d} {w.working_set:7d} "
            f"{w.hit_rate:9.3f} {w.mean_reuse_distance:10.1f}"
        )
    if args.top and len(report.w_partitions) > args.top:
        print(f"... {len(report.w_partitions) - args.top} more w-partitions")
    if args.json:
        _write_artifact(
            "locality report",
            args.json,
            lambda p: _write_text(p, _json.dumps(report.to_json(), indent=2)),
        )
        print(f"locality report written to {args.json}")
    if args.trace:
        out = _write_artifact(
            "unified trace",
            args.trace,
            lambda p: export_perfetto(
                rec,
                p,
                schedule=fl.schedule,
                kernels=kernels,
                config=cfg,
                locality=report,
            ),
        )
        print(f"unified trace written to {out} (open at https://ui.perfetto.dev)")
    return 0


def _cmd_bench_diff(args) -> int:
    import json as _json
    from dataclasses import asdict
    from pathlib import Path

    from .analytics.regress import (
        diff_dirs,
        format_diff_table,
        has_regressions,
        smoke_check,
    )

    if args.smoke:
        if not Path(args.bench_dir).is_dir():
            raise CLIError(f"benchmark directory '{args.bench_dir}' not found")
        rows = smoke_check(args.bench_dir, verbose=args.verbose)
    else:
        if args.fresh is None:
            raise CLIError("--fresh DIR is required (or use --smoke)")
        for label, d in (("baseline", args.baseline), ("fresh", args.fresh)):
            if not Path(d).is_dir():
                raise CLIError(f"{label} results directory '{d}' not found")
        try:
            rows = diff_dirs(
                args.baseline, args.fresh, benches=args.bench or None
            )
        except ValueError as exc:
            raise CLIError(str(exc)) from exc
    if not rows:
        raise CLIError("no benchmark results to compare")
    print(format_diff_table(rows, only_interesting=args.only_interesting))
    if args.json:
        _write_artifact(
            "bench-diff report",
            args.json,
            lambda p: _write_text(
                p, _json.dumps([asdict(r) for r in rows], indent=2)
            ),
        )
        print(f"bench-diff report written to {args.json}")
    return 1 if has_regressions(rows) else 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests and docs)."""
    p = argparse.ArgumentParser(
        prog="repro",
        description="Sparse fusion (SC'23) reproduction toolkit",
    )
    p.add_argument(
        "--version", action="version", version=f"%(prog)s {_version()}"
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, *, trace=False, executor=False, doctor=False):
        sp.add_argument("--matrix", default="lap3d:10", help="matrix spec")
        sp.add_argument(
            "--ordering",
            default="nd",
            choices=("nd", "rcm", "natural"),
            help="pre-ordering (default: nested dissection)",
        )
        sp.add_argument("--threads", type=int, default=8)
        if trace:
            sp.add_argument(
                "--trace",
                metavar="PATH",
                help="record the run; write a unified Perfetto trace to PATH",
            )
            sp.add_argument(
                "--inspector-cache",
                nargs="?",
                const="",
                default=None,
                metavar="DIR",
                help="memoize schedules by pattern fingerprint (bare flag: "
                "in-memory for this run; with DIR: persistent on-disk store)",
            )
        if doctor:
            sp.add_argument(
                "--doctor",
                action="store_true",
                help="append the schedule doctor's ranked findings "
                "(see `repro doctor`)",
            )
        if executor:
            sp.add_argument(
                "--executor",
                default="plan",
                choices=("iter", "plan"),
                help="schedule executor: compiled level-batched plan "
                "(default) or the per-iteration oracle",
            )
            sp.add_argument(
                "--sanitize",
                action="store_true",
                help="shadow-check every memory dependence under the "
                "chosen executor's happens-before model before running "
                "(exit 1 on violations; see `repro sanitize`)",
            )

    sp = sub.add_parser("info", help="matrix and DAG statistics")
    common(sp)
    sp.set_defaults(fn=_cmd_info)

    sp = sub.add_parser("fuse", help="fuse one Table 1 combination")
    common(sp, trace=True, executor=True)
    sp.add_argument("--combo", type=int, default=4, choices=sorted(COMBINATIONS))
    sp.add_argument(
        "--scheduler",
        default="ico",
        choices=("ico", "joint-wavefront", "joint-lbc", "joint-dagp", "joint-hdagg"),
    )
    sp.add_argument(
        "--save", help="persist the schedule to this file (read by load_schedule)"
    )
    sp.set_defaults(fn=_cmd_fuse)

    sp = sub.add_parser("compare", help="compare all implementations")
    common(sp, trace=True, executor=True, doctor=True)
    sp.add_argument("--combo", type=int, default=4, choices=sorted(COMBINATIONS))
    sp.set_defaults(fn=_cmd_compare)

    sp = sub.add_parser("gs", help="fused Gauss-Seidel solve")
    common(sp, trace=True, executor=True, doctor=True)
    sp.add_argument("--unroll", type=int, default=2)
    sp.add_argument("--tol", type=float, default=1e-8)
    sp.add_argument("--max-iters", type=int, default=2000)
    sp.add_argument(
        "--method",
        default="sparse-fusion",
        choices=("sparse-fusion", "parsy", "joint-lbc", "joint-wavefront"),
    )
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(fn=_cmd_gs)

    sp = sub.add_parser(
        "trace", help="trace the inspector/ICO pipeline for one combination"
    )
    common(sp)
    sp.add_argument("--combo", type=int, default=4, choices=sorted(COMBINATIONS))
    sp.add_argument(
        "--scheduler",
        default="ico",
        choices=("ico", "joint-wavefront", "joint-lbc", "joint-dagp", "joint-hdagg"),
    )
    sp.add_argument(
        "--out",
        default="trace.json",
        help="unified Perfetto trace path (default: trace.json)",
    )
    sp.add_argument("--jsonl", help="also write a JSONL event log")
    sp.add_argument("--prom", help="also write Prometheus text metrics")
    sp.set_defaults(fn=_cmd_trace)

    sp = sub.add_parser(
        "doctor", help="diagnose a schedule: attribution + ranked findings"
    )
    common(sp, trace=True)
    sp.add_argument("--combo", type=int, default=1, choices=sorted(COMBINATIONS))
    sp.add_argument(
        "--scheduler",
        default="ico",
        choices=("ico", "joint-wavefront", "joint-lbc", "joint-dagp", "joint-hdagg"),
    )
    sp.add_argument(
        "--fidelity",
        default="flat",
        choices=("flat", "cache"),
        help="'cache' runs the LRU simulator and enables the locality rules",
    )
    sp.add_argument("--json", metavar="PATH", help="also write the report as JSON")
    sp.add_argument(
        "--top",
        type=int,
        default=0,
        help="show only the top N findings (0 = all)",
    )
    sp.add_argument(
        "--locality",
        action="store_true",
        help="run the measured-locality profiler first and feed it to "
        "the rules (measured packing judgement, low-measured-reuse, "
        "false-sharing-risk)",
    )
    sp.set_defaults(fn=_cmd_doctor)

    sp = sub.add_parser(
        "sanitize",
        help="dynamic dependence sanitizer: check a fused schedule's "
        "memory dependences under each executor's happens-before model",
    )
    common(sp)
    sp.add_argument("--combo", type=int, default=1, choices=sorted(COMBINATIONS))
    sp.add_argument(
        "--scheduler",
        default="ico",
        choices=("ico", "joint-wavefront", "joint-lbc", "joint-dagp", "joint-hdagg"),
    )
    sp.add_argument(
        "--executor",
        default="all",
        choices=("iter", "plan", "all"),
        help="happens-before model to check under (default: both)",
    )
    sp.add_argument(
        "--max-violations",
        type=int,
        default=10,
        help="violations to print per executor (the count is exact)",
    )
    sp.add_argument("--json", metavar="PATH", help="also write the reports as JSON")
    sp.set_defaults(fn=_cmd_sanitize)

    sp = sub.add_parser(
        "locality",
        help="measured-locality profiler: reuse distances, working sets "
        "and the counterfactual-packing gap for one combination",
    )
    common(sp, trace=True)
    sp.add_argument("--combo", type=int, default=1, choices=sorted(COMBINATIONS))
    sp.add_argument(
        "--scheduler",
        default="ico",
        choices=("ico", "joint-wavefront", "joint-lbc", "joint-dagp", "joint-hdagg"),
    )
    sp.add_argument(
        "--capacity-lines",
        type=int,
        default=512,
        help="L1 capacity in lines of the simulated machine whose per-thread "
        "replay is profiled (default 512 = 32 KiB)",
    )
    sp.add_argument(
        "--top",
        type=int,
        default=12,
        help="w-partition rows to print (0 = all)",
    )
    sp.add_argument("--json", metavar="PATH", help="also write the report as JSON")
    sp.set_defaults(fn=_cmd_locality)

    sp = sub.add_parser(
        "bench-diff", help="benchmark regression guard (see docs/observability.md)"
    )
    sp.add_argument(
        "--baseline",
        default="benchmarks/results",
        help="committed baseline results directory",
    )
    sp.add_argument("--fresh", help="fresh results directory to judge")
    sp.add_argument(
        "--bench",
        action="append",
        help="restrict to this benchmark name (repeatable)",
    )
    sp.add_argument(
        "--smoke",
        action="store_true",
        help="run the smoke benchmarks in-process and check absolute "
        "floors (the CI guardrail; ignores --baseline/--fresh)",
    )
    sp.add_argument(
        "--bench-dir",
        default="benchmarks",
        help="directory holding the bench_*.py modules (--smoke)",
    )
    sp.add_argument(
        "--only-interesting",
        action="store_true",
        help="hide metrics that are within tolerance",
    )
    sp.add_argument("--json", metavar="PATH", help="also write the verdicts as JSON")
    sp.add_argument("--verbose", action="store_true", help="benchmark chatter")
    sp.set_defaults(fn=_cmd_bench_diff)
    return p


def main(argv=None) -> int:
    """CLI entry point."""
    from .obs.memtrace import DependenceViolationError

    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except DependenceViolationError as exc:
        # a broken schedule, not a CLI usage error: report + exit 1
        print(exc.report.format(), file=sys.stderr)
        return 1
    except CLIError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
