"""Trace the full pipeline for TRSV -> SpMV (Table 1 combination 3).

Records the inspector + ICO run and one compiled-plan execution with a
:class:`repro.obs.Recorder`, then writes:

* ``trace_pipeline.json``  — unified Perfetto trace: live inspector/ICO
  and plan spans plus the simulated executor timeline, one row per
  thread. Open it at https://ui.perfetto.dev.
* ``trace_pipeline.jsonl`` — the machine-readable span/counter/event log.

Run:  python examples/trace_pipeline.py
"""

import numpy as np

from repro import MachineConfig, fuse
from repro.kernels import SpMVCSC, SpTRSVCSR
from repro.obs import export_jsonl, export_perfetto, format_summary, recording
from repro.runtime import execute_schedule_planned
from repro.sparse import apply_ordering, laplacian_3d

N_THREADS = 8


def main() -> None:
    a, _ = apply_ordering(laplacian_3d(12), "nd")
    low = a.lower_triangle()
    k_trsv = SpTRSVCSR(low, l_var="Lx", b_var="x0", x_var="y")
    k_spmv = SpMVCSC(a.to_csc(), a_var="Ax", x_var="y", y_var="z")

    # -- record inspector + ICO + a plan execution -----------------------
    with recording() as rec:
        fused = fuse([k_trsv, k_spmv], N_THREADS)
        state = fused.allocate_state()
        state["Lx"][:] = low.data
        state["Ax"][:] = a.to_csc().data
        state["x0"][:] = np.random.default_rng(0).random(a.n_rows)
        execute_schedule_planned(fused.schedule, fused.kernels, state)

    # -- console: where did the time go? ----------------------------------
    print(format_summary(rec, title=f"TRSV->SpMV pipeline, n={a.n_rows}"))
    print()
    ico_stages = {
        name: agg["seconds"]
        for name, agg in rec.totals().items()
        if name.startswith("ico.")
    }
    widest = max(ico_stages.values())
    print("ICO stage shares:")
    for name, sec in sorted(ico_stages.items(), key=lambda kv: -kv[1]):
        bar = "#" * max(1, round(30 * sec / widest))
        print(f"  {name:20s} {sec * 1e3:7.2f} ms  {bar}")

    # -- files -------------------------------------------------------------
    trace = export_perfetto(
        rec,
        "trace_pipeline.json",
        schedule=fused.schedule,
        kernels=fused.kernels,
        config=MachineConfig(n_threads=N_THREADS),
    )
    log = export_jsonl(rec, "trace_pipeline.jsonl")
    print()
    print(f"unified Perfetto trace : {trace}  (open at https://ui.perfetto.dev)")
    print(f"JSONL event log        : {log}")


if __name__ == "__main__":
    main()
