"""Figure 8 — DAG partitioner time vs DAG size, one DAG vs joint DAG.

Measures wall-clock inspection time of LBC and DAGP on (a) the SpTRSV
DAG alone and (b) the joint DAG of SpMV (CSR) fused with SpTRSV — whose
edge count is roughly three times the SpTRSV DAG's (intra edges + the
SpMV-pattern ``F`` edges), exactly the paper's setup. Expected shape:
DAGP above LBC everywhere; joint above one-DAG for each method; for
fused LBC the chordalization pass dominates (the paper's 64% note),
reported separately.

pytest-benchmark: LBC on one DAG (the cheap end of the figure).
"""

from __future__ import annotations

import sys
import time

from repro.graph import DAG, InterDep, build_joint_dag, chordalize
from repro.graph.chordal import ChordalizationError
from repro.schedule import dagp_schedule, lbc_schedule

sys.path.insert(0, str(__import__("pathlib").Path(__file__).parent))
from common import (
    PAPER_THREADS,
    print_header,
    reordered_suite,
    save_results,
    small_test_matrix,
)


def build_dags(a):
    """(one_dag, joint_dag) for SpTRSV and SpMV-CSR -> SpTRSV."""
    low = a.lower_triangle()
    g_trsv = DAG.from_lower_triangular(low)
    g_spmv = DAG.empty(a.n_rows, a.row_nnz().astype(float))
    # SpMV CSR feeding TRSV's rhs element-wise reads y over the pattern
    # of A -> F = pattern of L's consumer relation; the paper states the
    # joint DAG has ~3x the edges of the SpTRSV DAG, which the full-A
    # pattern F reproduces.
    f = InterDep.from_csr_pattern(a)
    return g_trsv, build_joint_dag([g_spmv, g_trsv], {(0, 1): f})


def timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def run(verbose=True):
    rows = []
    for m in sorted(reordered_suite(), key=lambda m: m.nnz):
        one, joint = build_dags(m.matrix)
        entry = {
            "matrix": m.name,
            "one_edges": one.n_edges,
            "joint_edges": joint.n_edges,
            "lbc_one": timed(lambda: lbc_schedule(one, PAPER_THREADS)),
            "lbc_joint": timed(lambda: lbc_schedule(joint, PAPER_THREADS)),
            "dagp_one": timed(lambda: dagp_schedule(one, PAPER_THREADS)),
            "dagp_joint": timed(lambda: dagp_schedule(joint, PAPER_THREADS)),
        }

        def chordal_joint():
            try:
                chordalize(joint, max_fill_factor=20.0)
            except ChordalizationError:
                pass

        entry["chordalize_joint"] = timed(chordal_joint)
        rows.append(entry)
    if verbose:
        print_header("Figure 8: partitioner time vs DAG size (seconds)")
        print(
            f"{'matrix':14s} {'edges':>8s} {'j-edges':>8s} "
            f"{'LBC-1':>8s} {'LBC-j':>8s} {'DAGP-1':>8s} {'DAGP-j':>8s} "
            f"{'chord-j':>8s}"
        )
        for r in rows:
            print(
                f"{r['matrix']:14s} {r['one_edges']:8d} {r['joint_edges']:8d} "
                f"{r['lbc_one']:8.3f} {r['lbc_joint']:8.3f} "
                f"{r['dagp_one']:8.3f} {r['dagp_joint']:8.3f} "
                f"{r['chordalize_joint']:8.3f}"
            )
        dagp_over_lbc = sum(r["dagp_one"] > r["lbc_one"] for r in rows)
        joint_over_one = sum(r["lbc_joint"] > r["lbc_one"] for r in rows)
        print(
            f"\nDAGP slower than LBC (one DAG) on {dagp_over_lbc}/{len(rows)}; "
            f"joint slower than one DAG for LBC on {joint_over_one}/{len(rows)}"
        )
    return rows


def test_fig8_lbc_one_dag(benchmark):
    one, _ = build_dags(small_test_matrix())
    sched = benchmark(lambda: lbc_schedule(one, PAPER_THREADS))
    assert sched.n_spartitions >= 1


def test_fig8_joint_has_about_3x_edges():
    one, joint = build_dags(small_test_matrix())
    ratio = joint.n_edges / one.n_edges
    assert 2.0 <= ratio <= 4.0


def test_fig8_dagp_slower_than_lbc():
    one, _ = build_dags(small_test_matrix())
    t_lbc = timed(lambda: lbc_schedule(one, PAPER_THREADS))
    t_dagp = timed(lambda: dagp_schedule(one, PAPER_THREADS))
    assert t_dagp > t_lbc


if __name__ == "__main__":
    save_results("fig8_partitioners", {"rows": run()})
