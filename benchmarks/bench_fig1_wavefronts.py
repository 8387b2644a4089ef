"""Figure 1 — iterations per wavefront, unfused vs joint DAG.

Reproduces the paper's motivation plot for SpIC0 + SpTRSV on the
``bone010`` stand-in: the *unfused* series runs the two kernels back to
back (wavefront numbers of kernel 2 continue after kernel 1 finishes),
while the *joint DAG* series levels both kernels together. The joint
series must show (a) fewer total wavefronts and (b) more iterations per
wavefront — without changing total iteration count.

Standalone: prints both series. pytest-benchmark: times the joint-DAG
level computation (the inspector primitive behind the figure).
"""

from __future__ import annotations

import sys

from repro.fusion import build_combination
from repro.fusion.fused import inspect_loops
from repro.graph import build_joint_dag

sys.path.insert(0, str(__import__("pathlib").Path(__file__).parent))
from common import print_header, save_results, small_test_matrix


def wavefront_profiles(a):
    """Return (unfused_series, joint_series) for SpIC0 -> SpTRSV."""
    kernels, _ = build_combination(4, a)  # IC0-TRSV
    dags, inter, _ = inspect_loops(kernels)
    g1, g2 = dags
    unfused = [int(w.shape[0]) for w in g1.wavefronts()]
    unfused += [int(w.shape[0]) for w in g2.wavefronts()]
    joint = build_joint_dag(dags, inter)
    joint_series = [int(w.shape[0]) for w in joint.wavefronts()]
    return unfused, joint_series


def run(a=None, verbose=True):
    a = a if a is not None else small_test_matrix()
    unfused, joint = wavefront_profiles(a)
    assert sum(unfused) == sum(joint) == 2 * a.n_rows
    result = {
        "matrix_n": a.n_rows,
        "matrix_nnz": a.nnz,
        "unfused_wavefronts": len(unfused),
        "joint_wavefronts": len(joint),
        "unfused_series": unfused,
        "joint_series": joint,
        "unfused_mean_width": sum(unfused) / len(unfused),
        "joint_mean_width": sum(joint) / len(joint),
    }
    if verbose:
        print_header("Figure 1: iterations per wavefront (SpIC0 + SpTRSV)")
        print(f"matrix: n={a.n_rows} nnz={a.nnz} (bone010 stand-in)")
        print(
            f"unfused: {len(unfused)} wavefronts, "
            f"mean width {result['unfused_mean_width']:.1f}"
        )
        print(
            f"joint  : {len(joint)} wavefronts, "
            f"mean width {result['joint_mean_width']:.1f}"
        )
        print("\nwavefront -> iterations (unfused | joint):")
        for i in range(max(len(unfused), len(joint))):
            u = unfused[i] if i < len(unfused) else "-"
            j = joint[i] if i < len(joint) else "-"
            print(f"  {i:4d}: {u:>8} | {j:>8}")
    return result


def test_fig1_joint_reduces_wavefronts(benchmark):
    a = small_test_matrix()
    result = benchmark(lambda: wavefront_profiles(a))
    unfused, joint = result
    assert len(joint) < len(unfused)
    assert max(joint) >= max(unfused)


if __name__ == "__main__":
    from common import reordered_suite

    suite = reordered_suite()
    big = max(suite, key=lambda m: m.nnz)
    res = run(big.matrix)
    save_results("fig1_wavefronts", res)
