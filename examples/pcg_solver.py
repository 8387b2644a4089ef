"""IC0-preconditioned CG, and what fusing its preconditioner would save.

The paper motivates sparse fusion with preconditioned Krylov methods:
each PCG iteration applies ``z = L^-T (L^-1 r)`` — a forward+backward
SpTRSV pair with loop-carried dependencies, re-executed every iteration
so the fusion inspector amortizes. This example factors a 3-D Poisson
matrix with SpIC0 and solves with PCG, whose preconditioner runs as a
compiled level plan. It then prices one preconditioner application on
the simulated machine under ICO fusion against joint-DAG scheduling of
the same pair, times the applications the solve made.

Run:  python examples/pcg_solver.py
"""

import numpy as np

from repro import fuse
from repro.solvers import build_ic0_preconditioner, pcg_ic0
from repro.sparse import apply_ordering, laplacian_3d


def main() -> None:
    a, _ = apply_ordering(laplacian_3d(9), "nd")
    rng = np.random.default_rng(7)
    b = rng.random(a.n_rows)
    print(f"PCG on n={a.n_rows}, nnz={a.nnz} (IC0 preconditioner)\n")

    res = pcg_ic0(a, b, tol=1e-9, max_iters=400)
    assert res.converged
    applications = res.meta["applications"]
    print(
        f"converged in {res.iterations} iterations "
        f"({applications} preconditioner applications, "
        f"set-up {res.setup_seconds * 1e3:.1f} ms)\n"
    )

    kernels, _, _ = build_ic0_preconditioner(a)
    seconds = {}
    for scheduler in ("ico", "joint-lbc", "joint-wavefront"):
        per_application = fuse(kernels, 8, scheduler=scheduler).simulate().seconds
        seconds[scheduler] = applications * per_application
        print(
            f"{scheduler:16s} precond(sim)={seconds[scheduler] * 1e3:7.3f} ms "
            f"({applications} applications x {per_application * 1e6:6.1f} us)"
        )

    print("\nspeedup of fused (ICO) preconditioner application:")
    for name, sec in seconds.items():
        if name != "ico":
            print(f"  vs {name:16s} {sec / seconds['ico']:.2f}x")

    x_ref = np.linalg.solve(a.to_dense(), b)
    print(f"\nmax |x - x_direct| = {np.max(np.abs(res.x - x_ref)):.2e}")
    print(f"residual history (first 5): "
          f"{[f'{r:.1e}' for r in res.residuals[:5]]}")


if __name__ == "__main__":
    main()
