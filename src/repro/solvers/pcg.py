"""IC0-preconditioned conjugate gradient on compiled level plans.

The paper's introduction motivates sparse fusion with preconditioned
Krylov methods: every PCG iteration applies ``z = (L Lᵀ)⁻¹ r`` — a
forward SpTRSV chained into a backward SpTRSV, a CD-CD combination that
is re-executed until convergence (Fig. 7's amortization argument).

This solver factors once with the SpIC0 kernel and runs textbook PCG.
The factorization and the preconditioner's forward/backward pair run as
compiled plans (:mod:`repro.runtime.plan`) over
:func:`~repro.schedule.wavefront.level_schedule`, so no ICO and no
machine model runs inside a solve. The preconditioner's plan is compiled
once per solve and bound to the factor's values
(:meth:`~repro.runtime.plan.ExecutionPlan.bind`), which every
application passes on. The factor
matches the sequential reference :func:`~repro.sparse.factor.ic0_csc`
bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..kernels import SpIC0, SpTRSVCSR
from ..kernels.base import Kernel, State
from ..kernels.sptrsv_backward import SpTRSVBackwardCSR
from ..obs import current as current_recorder
from ..runtime.executor import allocate_state
from ..runtime.plan import compile_plan, execute_schedule_planned, plan_for
from ..schedule.schedule import FusedSchedule
from ..schedule.wavefront import level_schedule
from ..sparse.csr import CSRMatrix
from ..sparse.factor import ic0_pattern
from ..utils.arrays import checked_vector

__all__ = ["PCGResult", "pcg_ic0", "build_ic0_preconditioner"]


def build_ic0_preconditioner(
    a: CSRMatrix,
) -> tuple[list[Kernel], FusedSchedule, State]:
    """``z = L⁻ᵀ (L⁻¹ r)`` preconditioner application for SPD *a*.

    Returns ``(kernels, schedule, state)``: forward and backward SpTRSV
    over the IC0 factor, their level schedule, and a state holding the
    factor. The caller writes ``state["r"]`` and reads ``state["z"]``.

    The factor comes from the :class:`~repro.kernels.SpIC0` kernel, run
    once through a plan compiled for its own level schedule: levels of
    two or more columns run as vectorized level steps, and one-column
    levels (every level of a banded matrix) run scalar. The plan
    is compiled explicitly rather than through
    :func:`~repro.runtime.plan.plan_for`, since a factorization runs
    once and a memoized or stored plan would never be reused. The result
    is bitwise equal to :func:`~repro.sparse.factor.ic0_csc`, the
    reference the tests compare against.
    """
    low = ic0_pattern(a)
    ic0 = SpIC0(low)
    levels = level_schedule([ic0])
    # Factor in place: SpIC0 reads only the pattern of `low`, a fresh copy.
    factor_state = {ic0.a_var: low.data.copy(), ic0.l_var: low.data}
    execute_schedule_planned(
        levels, [ic0], factor_state, plan=compile_plan(levels, [ic0])
    )
    l_factor = low.to_csr()
    kernels: list[Kernel] = [
        SpTRSVCSR(l_factor, l_var="Lx", b_var="r", x_var="w"),
        SpTRSVBackwardCSR(l_factor, l_var="Lx", b_var="w", x_var="z"),
    ]
    state = allocate_state(kernels)
    state["Lx"][:] = l_factor.data
    return kernels, level_schedule(kernels), state


@dataclass
class PCGResult:
    """Outcome of a preconditioned CG solve."""

    x: np.ndarray
    iterations: int
    residuals: list[float]
    converged: bool
    setup_seconds: float
    meta: dict = field(default_factory=dict)


def pcg_ic0(
    a: CSRMatrix,
    b: np.ndarray,
    *,
    tol: float = 1e-8,
    max_iters: int = 500,
    x0: np.ndarray | None = None,
) -> PCGResult:
    """Solve SPD ``A x = b`` with IC0-preconditioned CG.

    Each preconditioner application runs the forward/backward SpTRSV
    pair of :func:`build_ic0_preconditioner` through its compiled level
    plan, bound to the factor, which is read-only for the solve.
    ``setup_seconds`` covers the factorization and the schedule;
    ``meta["applications"]`` counts the preconditioner applications.
    """
    if not a.is_square:
        raise ValueError("PCG requires a square (SPD) matrix")
    b = checked_vector("b", b, a.n_rows)
    x = np.zeros(a.n_rows) if x0 is None else checked_vector("x0", x0, a.n_rows)
    with current_recorder().span("pcg.setup") as setup_span:
        kernels, schedule, state = build_ic0_preconditioner(a)
    setup_seconds = setup_span.seconds
    plan = plan_for(schedule, kernels)
    state["Lx"].flags.writeable = False
    plan = plan.bind(state, ("Lx",))

    r = b - a.matvec(x)
    b_norm = float(np.linalg.norm(b)) or 1.0

    def apply_precond(res_vec: np.ndarray) -> np.ndarray:
        state["r"][:] = res_vec
        execute_schedule_planned(schedule, kernels, state, plan=plan)
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
        meta={"applications": applications},
    )
