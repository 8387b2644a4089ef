"""End-to-end Gauss-Seidel solve with multi-loop fusion (Sec. 4.3).

Solves a 3-D Poisson problem with backward Gauss-Seidel, comparing the
unfused (ParSy-style) schedule against sparse fusion at unroll depths
2, 4 and 6 — the paper's "fusing more than two loops" case study. Each
solve runs its compiled level plan; each method's schedule is then
priced on the simulated machine for the iterations the solve took.

Run:  python examples/gauss_seidel_solver.py
"""

import numpy as np

from repro.solvers import gauss_seidel, gauss_seidel_simulated
from repro.sparse import apply_ordering, laplacian_3d


def main() -> None:
    a, _ = apply_ordering(laplacian_3d(8), "nd")
    rng = np.random.default_rng(42)
    b = rng.random(a.n_rows)
    print(f"solving A x = b: n={a.n_rows}, nnz={a.nnz}, tol=1e-8\n")

    print(f"{'method':16s} {'unroll':>6s} {'iters':>6s} {'residual':>10s} "
          f"{'sim solve':>10s} {'inspect':>9s}")
    best = {}
    solves = {
        unroll: gauss_seidel(a, b, tol=1e-8, max_iters=2000, unroll=unroll)
        for unroll in (2, 4, 6)
    }
    for method in ("parsy", "joint-lbc", "sparse-fusion"):
        for unroll, r in solves.items():
            assert r.converged
            sim = gauss_seidel_simulated(
                a, b, iterations=r.iterations, unroll=unroll,
                method=method, n_threads=8,
            )
            print(
                f"{method:16s} {unroll:6d} {r.iterations:6d} "
                f"{r.residuals[-1]:10.2e} "
                f"{sim.simulated_solve_seconds * 1e3:8.2f}ms "
                f"{sim.inspector_seconds * 1e3:7.1f}ms"
            )
            if method not in best or sim.simulated_solve_seconds < best[method][1]:
                best[method] = (unroll, sim.simulated_solve_seconds)
    print("\nbest simulated solve per method (exhaustive unroll search, "
          "as in Fig. 9):")
    for method, (unroll, sec) in best.items():
        print(f"  {method:16s} unroll={unroll}  {sec * 1e3:8.2f} ms")
    sf = best["sparse-fusion"][1]
    print(
        f"\nsparse fusion speedup: {best['parsy'][1] / sf:.2f}x over ParSy, "
        f"{best['joint-lbc'][1] / sf:.2f}x over joint-LBC"
    )

    # verify against a direct solve
    r = gauss_seidel(a, b, tol=1e-10, max_iters=4000, unroll=4)
    x_ref = np.linalg.solve(a.to_dense(), b)
    print(f"\nmax |x - x_direct| = {np.max(np.abs(r.x - x_ref)):.2e}")


if __name__ == "__main__":
    main()
