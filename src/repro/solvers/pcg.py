"""IC0-preconditioned conjugate gradient with fused preconditioner solves.

The paper's introduction motivates sparse fusion with preconditioned
Krylov methods: every PCG iteration applies ``z = (L Lᵀ)⁻¹ r`` — a
forward SpTRSV chained into a backward SpTRSV, a CD-CD combination that
fusion accelerates and that is re-executed until convergence (amortizing
the inspector, Fig. 7's argument).

This solver factors once with the SpIC0 kernel, fuses the two
triangular solves with ICO, and runs textbook PCG with the fused
preconditioner application. The factorization runs a single time
through a one-shot compiled plan over SpIC0's own intra-DAG wavefront
schedule; the sequential reference :func:`~repro.sparse.factor.ic0_csc`
is the oracle it matches bitwise. The vector arithmetic (dot products,
axpys) is vectorized NumPy; the fused solves run through the compiled
plan (:mod:`repro.runtime.plan`), compiled on the first application and
cache-hit on every later one, so the inspector and the plan compile are
paid once per solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..fusion.fused import FusedLoops, fuse
from ..kernels import SpIC0, SpTRSVCSR
from ..kernels.sptrsv_backward import SpTRSVBackwardCSR
from ..obs import current as current_recorder
from ..runtime.executor import allocate_state
from ..runtime.machine import MachineConfig, SimulatedMachine
from ..runtime.plan import compile_plan, execute_schedule_planned
from ..schedule.wavefront import wavefront_schedule
from ..sparse.csr import CSRMatrix
from ..sparse.factor import ic0_pattern
from ..utils.arrays import checked_vector

__all__ = ["PCGResult", "pcg_ic0", "build_ic0_preconditioner"]


def build_ic0_preconditioner(
    a: CSRMatrix, n_threads: int = 8, *, scheduler: str = "ico"
) -> tuple[FusedLoops, dict]:
    """Fused ``z = L⁻ᵀ (L⁻¹ r)`` preconditioner application for SPD *a*.

    Returns the fused loops (forward + backward SpTRSV over the IC0
    factor) and a ready state with the factor values installed. The
    caller writes ``state["r"]`` and reads ``state["z"]``.

    The factor comes from the :class:`~repro.kernels.SpIC0` kernel, run
    once through a plan compiled for its own intra-DAG wavefront
    schedule: wide levels run as vectorized level steps, and levels
    narrower than the plan's ``min_batch`` (every level of a banded
    matrix) run scalar. The plan is compiled explicitly rather than
    through :func:`~repro.runtime.plan.plan_for`, since a factorization
    runs once and a memoized or stored plan would never be reused. The
    result is bitwise equal to :func:`~repro.sparse.factor.ic0_csc`, the
    reference the tests compare against.
    """
    low = ic0_pattern(a)
    ic0 = SpIC0(low)
    wavefronts = wavefront_schedule(ic0.intra_dag(), 1)
    # Factor in place: SpIC0 reads only the pattern of `low`, a fresh copy.
    factor_state = {ic0.a_var: low.data.copy(), ic0.l_var: low.data}
    execute_schedule_planned(
        wavefronts, [ic0], factor_state, plan=compile_plan(wavefronts, [ic0])
    )
    l_factor = low.to_csr()
    fwd = SpTRSVCSR(l_factor, l_var="Lx", b_var="r", x_var="w")
    bwd = SpTRSVBackwardCSR(l_factor, l_var="Lx", b_var="w", x_var="z")
    fused = fuse([fwd, bwd], n_threads, scheduler=scheduler)
    state = allocate_state(fused.kernels)
    state["Lx"][:] = l_factor.data
    return fused, state


@dataclass
class PCGResult:
    """Outcome of a preconditioned CG solve."""

    x: np.ndarray
    iterations: int
    residuals: list[float]
    converged: bool
    setup_seconds: float
    simulated_precond_seconds: float
    meta: dict = field(default_factory=dict)


def pcg_ic0(
    a: CSRMatrix,
    b: np.ndarray,
    *,
    tol: float = 1e-8,
    max_iters: int = 500,
    n_threads: int = 8,
    scheduler: str = "ico",
    machine: MachineConfig | None = None,
    x0: np.ndarray | None = None,
) -> PCGResult:
    """Solve SPD ``A x = b`` with IC0-preconditioned CG.

    The preconditioner application is the fused TRSV-TRSV pair; its
    simulated per-application cost times the number of applications is
    reported as ``simulated_precond_seconds`` (the quantity fusion
    improves).
    """
    if not a.is_square:
        raise ValueError("PCG requires a square (SPD) matrix")
    b = checked_vector("b", b, a.n_rows)
    x = np.zeros(a.n_rows) if x0 is None else checked_vector("x0", x0, a.n_rows)
    with current_recorder().span("pcg.setup", scheduler=scheduler) as setup_span:
        fused, state = build_ic0_preconditioner(a, n_threads, scheduler=scheduler)
    setup_seconds = setup_span.seconds
    cfg = machine or MachineConfig(n_threads=n_threads)
    precond_seconds = SimulatedMachine(cfg).simulate(
        fused.schedule, fused.kernels
    ).seconds

    r = b - a.matvec(x)
    b_norm = float(np.linalg.norm(b)) or 1.0

    def apply_precond(res_vec: np.ndarray) -> np.ndarray:
        state["r"][:] = res_vec
        execute_schedule_planned(fused.schedule, fused.kernels, state)
        return state["z"].copy()

    z = apply_precond(r)
    p = z.copy()
    rz = float(r @ z)
    residuals = [float(np.linalg.norm(r)) / b_norm]
    converged = residuals[-1] < tol
    it = 0
    while not converged and it < max_iters:
        ap = a.matvec(p)
        alpha = rz / float(p @ ap)
        x += alpha * p
        r -= alpha * ap
        res = float(np.linalg.norm(r)) / b_norm
        residuals.append(res)
        it += 1
        if res < tol:
            converged = True
            break
        z = apply_precond(r)
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    applications = it + 1
    return PCGResult(
        x=x,
        iterations=it,
        residuals=residuals,
        converged=converged,
        setup_seconds=setup_seconds,
        simulated_precond_seconds=applications * precond_seconds,
        meta={
            "scheduler": scheduler,
            "applications": applications,
            "per_application_seconds": precond_seconds,
            "inspector_seconds": fused.inspector_seconds,
        },
    )
