"""Measured locality vs the inspector's reuse estimate (Table 1 redux).

For every Table 1 combination, replay the fused schedule's cache-line
access stream (:func:`repro.analytics.profile_locality`) and compare:

* the **measured** reuse ratio (elements both kernels actually touch)
  against the inspector's size-based estimate (:func:`compute_reuse`);
* the chosen packing's L1 **hit rate** on the cache-fidelity machine
  (8 threads, a 16-line L1) against the replayed counterfactual packing
  (interleaved <-> separated).

The measured ratio agrees with the estimate's >=1 / <1 packing
direction on every combination except ILU0->TRSV (combo 5), where the
TRSV reads only the L half of the LU factor: the estimate says 1.0,
the measurement lands near 0.4 — the case the doctor's
``low-measured-reuse`` rule exists for.

``--smoke`` runs one tiny matrix and asserts exactly that direction
table — the CI guardrail mode; the full run sweeps the benchmark suite
and writes ``results/locality_measured.json``.

pytest-benchmark: times one full profile (replay + counterfactual).
"""

from __future__ import annotations

import argparse
import sys

from repro import fuse
from repro.analytics import profile_locality
from repro.fusion import COMBINATIONS
from repro.runtime import CacheConfig, MachineConfig

sys.path.insert(0, str(__import__("pathlib").Path(__file__).parent))
from common import print_header, reordered_suite, save_results, small_test_matrix

#: Combos whose measured reuse direction must match the estimate's;
#: combo 5 (ILU0->TRSV) is asserted to DISAGREE (see module docstring).
AGREEING_COMBOS = (1, 2, 3, 4, 6)
OVERESTIMATED_COMBOS = (5,)

L1_LINES = 16  # small enough that packing moves the hit rate


def profile_combo(cid, a, *, n_threads=8, l1_lines=L1_LINES):
    kernels, _ = COMBINATIONS[cid].build(a)
    fl = fuse(kernels, n_threads)
    report = profile_locality(
        fl.schedule,
        kernels,
        MachineConfig(n_threads, cache=CacheConfig(l1_lines=l1_lines)),
        dags=fl.dags,
        inter=fl.inter,
        estimated_reuse=fl.reuse_ratio,
    )
    return fl, report


def run(*, smoke=False, verbose=True):
    if smoke:
        matrices = [("lap2d_smoke", small_test_matrix())]
    else:
        matrices = [(m.name, m.matrix) for m in reordered_suite()]
    rows = []
    for name, a in matrices:
        for cid in sorted(COMBINATIONS):
            fl, rep = profile_combo(cid, a)
            rows.append(
                {
                    "matrix": name,
                    "combo": cid,
                    "combination": COMBINATIONS[cid].name,
                    "packing": rep.packing,
                    "estimated_reuse": rep.estimated_reuse,
                    "measured_reuse": rep.measured_reuse,
                    "measured_packing": rep.measured_packing,
                    "direction_agrees": (rep.measured_reuse >= 1.0)
                    == (rep.estimated_reuse >= 1.0),
                    "hit_rate": rep.hit_rate,
                    "counterfactual_hit_rate": rep.counterfactual_hit_rate,
                    "packing_gap": rep.packing_gap,
                    "false_shared_lines": rep.false_shared_lines,
                    "distinct_lines": rep.distinct_lines,
                    "seconds": rep.seconds,
                }
            )
    if verbose:
        print(
            f"{'matrix':14s} {'combo':14s} {'pack':11s} {'est':>5s} "
            f"{'meas':>5s} {'agree':>5s} {'hit':>6s} {'gap':>7s}"
        )
        for r in rows:
            gap = r["packing_gap"]
            print(
                f"{r['matrix']:14s} {r['combination']:14s} "
                f"{r['packing']:11s} {r['estimated_reuse']:5.2f} "
                f"{r['measured_reuse']:5.2f} "
                f"{'yes' if r['direction_agrees'] else 'NO':>5s} "
                f"{r['hit_rate']:6.3f} "
                f"{gap if gap is None else format(gap, '+7.4f')}"
            )
    summary = {
        "n_rows": len(rows),
        "agree_rate": sum(r["direction_agrees"] for r in rows) / len(rows),
    }
    return {"rows": rows, "summary": summary, "smoke": smoke}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true", help="tiny CI guardrail run")
    args = ap.parse_args(argv)
    print_header("Measured locality vs the inspector's reuse estimate")
    payload = run(smoke=args.smoke)
    if args.smoke:
        failures = []
        for r in payload["rows"]:
            if r["combo"] in AGREEING_COMBOS and not r["direction_agrees"]:
                failures.append(
                    f"combo {r['combo']} on {r['matrix']}: measured "
                    f"{r['measured_reuse']:.3f} flips the estimate "
                    f"{r['estimated_reuse']:.3f}"
                )
            if r["combo"] in OVERESTIMATED_COMBOS and r["direction_agrees"]:
                failures.append(
                    f"combo {r['combo']} on {r['matrix']}: expected the "
                    f"measurement to undercut the estimate, got "
                    f"{r['measured_reuse']:.3f} vs {r['estimated_reuse']:.3f}"
                )
            if r["counterfactual_hit_rate"] is None:
                failures.append(
                    f"combo {r['combo']} on {r['matrix']}: counterfactual "
                    "packing was not replayed"
                )
        if failures:
            for f in failures:
                print(f"FAIL: {f}")
            return 1
        print(
            "smoke OK: measured reuse matches the estimate's packing "
            "direction (combo 5 disagrees, as documented)"
        )
        return 0
    path = save_results("locality_measured", payload)
    print(f"results written to {path}")
    return 0


# -- pytest-benchmark unit ---------------------------------------------------
def test_profile_locality_small(benchmark):
    a = small_test_matrix()

    def profile():
        _, rep = profile_combo(1, a)
        return rep

    rep = benchmark(profile)
    assert rep.n_accesses > 0
    assert rep.counterfactual_hit_rate is not None


if __name__ == "__main__":
    raise SystemExit(main())
