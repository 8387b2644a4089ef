"""Figure 7 — number of executor runs (NER) to amortize the inspector.

``NER = inspector_time / (baseline_time - executor_time)`` where the
baseline is plain sequential unfused execution. Negative NER means the
executor never beats the baseline (inspection cannot amortize); lower
positive values are better. The paper shows TRSV-MV and ILU0-TRSV;
expected shape: sparse fusion / ParSy / MKL have the lowest NER,
fused-LBC needs tens-to-hundreds of runs (chordalization dominates),
fused-DAGP is negative or very high.

Clocks: the numerator (inspector time) is *measured wall-clock* seconds
of our Python inspectors; the denominator (baseline minus executor time)
is a saving on the *simulated* machine. The mix is deliberate: the
paper's claim is about relative inspection effort across tools on the
same inputs, and every tool here pays Python costs. It is not a
same-clock amortization count, and the printout says so.

pytest-benchmark: the sparse-fusion inspector (the quantity whose
smallness the paper credits to one-DAG-at-a-time pairing).
"""

from __future__ import annotations

import sys

import numpy as np

from repro.baselines import run_implementation, sequential_baseline_seconds
from repro.fusion import COMBINATIONS, build_combination
from repro.runtime.metrics import ner

sys.path.insert(0, str(__import__("pathlib").Path(__file__).parent))
from common import (
    PAPER_THREADS,
    machine_config,
    measure_stage_breakdown,
    print_header,
    reordered_suite,
    save_results,
    small_test_matrix,
)

IMPLS = ("sparse-fusion", "parsy", "mkl", "joint-wavefront", "joint-lbc", "joint-dagp")
COMBOS = (3, 5)  # TRSV-MV and ILU0-TRSV, as in the paper


def run(verbose=True):
    cfg = machine_config()
    rows = []
    for m in reordered_suite():
        for cid in COMBOS:
            combo = COMBINATIONS[cid]
            baseline = sequential_baseline_seconds(
                combo.build(m.matrix)[0], cfg
            )
            entry = {"matrix": m.name, "nnz": m.nnz, "combo": combo.name}
            for name in IMPLS:
                kwargs = {"chordalize": True} if name == "joint-lbc" else None
                # Fresh kernels per tool: DAGs, access maps and F are
                # memoized on the kernel objects, so a shared list would
                # hand every tool after the first a free join.
                res = run_implementation(
                    name,
                    combo.build(m.matrix)[0],
                    PAPER_THREADS,
                    cfg,
                    scheduler_kwargs=kwargs,
                )
                entry[name] = ner(
                    res.inspector_seconds, baseline, res.executor_seconds
                )
            rows.append(entry)
    if verbose:
        print_header("Figure 7: executor runs to amortize the inspector (NER)")
        print(
            "NER = wall-clock inspector seconds / simulated saving per run "
            "(baseline - executor, machine model)"
        )
        for cid in COMBOS:
            combo = COMBINATIONS[cid]
            print(f"\n-- {combo.name} -- (inf = never amortizes)")
            print(f"{'matrix':14s} " + " ".join(f"{n:>11s}" for n in IMPLS))
            for r in rows:
                if r["combo"] != combo.name:
                    continue
                cells = []
                for n in IMPLS:
                    v = r[n]
                    if not np.isfinite(v):
                        cells.append(f"{'inf':>11s}")
                    else:
                        cells.append(f"{max(min(v, 9999), -9999):11.1f}")
                print(f"{r['matrix']:14s} " + " ".join(cells))
        med = {
            n: float(
                np.median(
                    [r[n] for r in rows if r[n] > 0 and np.isfinite(r[n])]
                    or [-1]
                )
            )
            for n in IMPLS
        }
        print("\nmedian positive NER per implementation:")
        for n, v in med.items():
            print(f"  {n:16s} {v:8.1f}")
    return rows


def test_fig7_inspector_cost(benchmark):
    from repro.fusion import fuse

    a = small_test_matrix()
    # Fresh kernels every round, outside the timed call: the inspector
    # memoizes its join and access maps on the kernel objects.
    fl = benchmark.pedantic(
        fuse,
        setup=lambda: ((build_combination(3, a)[0], 8), {"validate": False}),
        rounds=5,
    )
    assert fl.inspector_seconds > 0


def test_fig7_fusion_ner_below_joint_lbc():
    cfg = machine_config(8)
    a = small_test_matrix()
    baseline = sequential_baseline_seconds(build_combination(3, a)[0], cfg)
    sf = run_implementation("sparse-fusion", build_combination(3, a)[0], 8, cfg)
    jl = run_implementation("joint-lbc", build_combination(3, a)[0], 8, cfg)
    ner_sf = ner(sf.inspector_seconds, baseline, sf.executor_seconds)
    ner_jl = ner(jl.inspector_seconds, baseline, jl.executor_seconds)
    if all(v > 0 and np.isfinite(v) for v in (ner_sf, ner_jl)):
        assert ner_sf <= ner_jl * 1.5


def stage_breakdowns() -> dict:
    """Inspector sub-stage seconds per combination (largest suite matrix)."""
    suite = reordered_suite()
    m = max(suite, key=lambda sm: sm.nnz)
    out = {}
    for cid in COMBOS:
        combo = COMBINATIONS[cid]
        kernels, _ = combo.build(m.matrix)
        out[combo.name] = {
            "matrix": m.name,
            "stages": measure_stage_breakdown(kernels),
        }
    return out


if __name__ == "__main__":
    save_results(
        "fig7_ner", {"rows": run(), "stage_breakdown": stage_breakdowns()}
    )
