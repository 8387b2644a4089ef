"""IC0-preconditioned conjugate gradient on compiled level plans.

The paper's introduction motivates sparse fusion with preconditioned
Krylov methods: every PCG iteration applies ``z = (L Lᵀ)⁻¹ r`` — a
forward SpTRSV chained into a backward SpTRSV, a CD-CD combination that
is re-executed until convergence (Fig. 7's amortization argument).

This solver factors with the SpIC0 kernel and runs textbook PCG. The
factorization and the preconditioner's forward/backward pair run as
compiled plans (:mod:`repro.runtime.plan`) over
:func:`~repro.schedule.wavefront.level_schedule`, so no ICO and no
machine model runs inside a solve. Both plans are compiled once per
pattern: the IC0 pattern, its kernels, schedules and plans are one
solver set-up entry of the inspection cache
(:func:`~repro.schedule.cache.setup_cache`), keyed by ``A``'s pattern.
Every call still gathers the current values of ``A`` into a fresh
state, re-runs the factor's numeric pass on them and binds the pair's
plan to that factor
(:meth:`~repro.runtime.plan.ExecutionPlan.bind`), which every
application passes on. The factor matches the sequential reference
:func:`~repro.sparse.factor.ic0_csc` bitwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..graph.dag import share_pattern_analyses
from ..kernels import SpIC0, SpTRSVCSR
from ..kernels.base import Kernel, State
from ..kernels.sptrsv_backward import SpTRSVBackwardCSR
from ..obs import current as current_recorder
from ..obs import names
from ..runtime.executor import allocate_state
from ..runtime.plan import (
    ExecutionPlan,
    compile_plan,
    execute_schedule_planned,
    plan_for,
)
from ..schedule.cache import solver_setup
from ..schedule.schedule import FusedSchedule
from ..schedule.wavefront import level_schedule
from ..sparse.base import INDEX_DTYPE, VALUE_DTYPE
from ..sparse.csr import CSRMatrix
from ..sparse.factor import ic0_pattern
from ..utils.arrays import checked_vector

__all__ = ["PCGResult", "pcg_ic0", "build_ic0_preconditioner"]


def _entry_numbers(m):
    """*m*'s pattern holding each entry's position in ``m.data``."""
    numbers = np.arange(m.indices.shape[0], dtype=VALUE_DTYPE)
    return type(m)(m.n_rows, m.n_cols, m.indptr, m.indices, numbers, check=False)


@dataclass(frozen=True)
class _Setup:
    """What an IC0-PCG solve derives from ``A``'s pattern alone.

    The kernels' matrices keep the values of the matrix the set-up was
    built from, and nothing reads them: :meth:`state` gathers the values
    of the caller's matrix through ``low_at`` and ``lx_at``.
    """

    ic0: SpIC0
    factor_schedule: FusedSchedule
    factor_plan: ExecutionPlan
    #: the forward and backward SpTRSV over the factor
    kernels: list[Kernel]
    schedule: FusedSchedule
    #: the pair's plan, never bound
    plan: ExecutionPlan
    #: position in ``A.data`` of each IC0 pattern entry (CSC order)
    low_at: np.ndarray
    #: CSC position of each factor entry, in the CSR order of ``Lx``
    lx_at: np.ndarray

    @classmethod
    def build(cls, a: CSRMatrix) -> "_Setup":
        # The pattern over entry numbers says where each value comes from.
        low = ic0_pattern(_entry_numbers(a))
        low_at = low.data.astype(INDEX_DTYPE)
        l_factor = _entry_numbers(low).to_csr()
        lx_at = l_factor.data.astype(INDEX_DTYPE)
        low.data = a.data[low_at]
        l_factor.data = low.data[lx_at]
        ic0 = SpIC0(low)
        factor_schedule = level_schedule([ic0])
        # Compiled explicitly rather than through plan_for: the factor
        # plan is kept here, not in a schedule memo or the plan store.
        factor_plan = compile_plan(factor_schedule, [ic0])
        kernels: list[Kernel] = [
            SpTRSVCSR(l_factor, l_var="Lx", b_var="r", x_var="w"),
            SpTRSVBackwardCSR(l_factor, l_var="Lx", b_var="w", x_var="z"),
        ]
        # The forward solve's DAG is the factor's: its levels are known.
        share_pattern_analyses([ic0.intra_dag(), kernels[0].intra_dag()])
        schedule = level_schedule(kernels)
        return cls(
            ic0,
            factor_schedule,
            factor_plan,
            kernels,
            schedule,
            plan_for(schedule, kernels),
            low_at,
            lx_at,
        )

    def state(self, a: CSRMatrix) -> State:
        """A fresh preconditioner state holding the IC0 factor of *a*'s
        current values, factored in place by the SpIC0 plan."""
        values = a.data[self.low_at]
        ic0 = self.ic0
        factor_state = {ic0.a_var: values.copy(), ic0.l_var: values}
        execute_schedule_planned(
            self.factor_schedule, [ic0], factor_state, plan=self.factor_plan
        )
        state = allocate_state(self.kernels)
        state["Lx"][:] = values[self.lx_at]
        return state


def build_ic0_preconditioner(
    a: CSRMatrix,
) -> tuple[list[Kernel], FusedSchedule, State]:
    """``z = L⁻ᵀ (L⁻¹ r)`` preconditioner application for SPD *a*.

    Returns ``(kernels, schedule, state)``: forward and backward SpTRSV
    over the IC0 factor, their level schedule (its plan already compiled
    and memoized), and a state holding the factor. The caller writes
    ``state["r"]`` and reads ``state["z"]``. Everything is built afresh;
    :func:`pcg_ic0` takes the same set-up from the inspection cache.

    The factor comes from the :class:`~repro.kernels.SpIC0` kernel, run
    through a plan compiled for its own level schedule: levels of two or
    more columns run as vectorized level steps, and one-column levels
    (every level of a banded matrix) run scalar. The result is bitwise
    equal to :func:`~repro.sparse.factor.ic0_csc`, the reference the
    tests compare against.
    """
    setup = _Setup.build(a)
    return setup.kernels, setup.schedule, setup.state(a)


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
    plan, bound to the factor, which is read-only for the solve. The
    pattern-only part of that set-up is looked up in
    :func:`~repro.schedule.cache.setup_cache` under ``A``'s pattern and
    built on a miss; the factorization of *a*'s values runs every call.
    ``setup_seconds`` covers the lookup, on a miss the set-up build, and
    the factorization; ``meta["applications"]`` counts the
    preconditioner applications. The solve stops at the first residual
    that is not finite, with ``converged=False`` and
    ``meta["stopped"]`` naming the iteration.
    """
    if not a.is_square:
        raise ValueError("PCG requires a square (SPD) matrix")
    b = checked_vector("b", b, a.n_rows)
    x = np.zeros(a.n_rows) if x0 is None else checked_vector("x0", x0, a.n_rows)
    rec = current_recorder()
    with rec.span("pcg.setup") as setup_span:
        setup, hit = solver_setup("pcg-ic0", a, lambda: _Setup.build(a))
        setup_span.set(hit=hit)
        state = setup.state(a)
    rec.count(names.SOLVER_SETUP_HITS if hit else names.SOLVER_SETUP_MISSES)
    setup_seconds = setup_span.seconds
    kernels, schedule = setup.kernels, setup.schedule
    state["Lx"].flags.writeable = False
    plan = setup.plan.bind(state, ("Lx",))

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
    finite = math.isfinite(residuals[-1])
    it = 0
    while finite and not converged and it < max_iters:
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
        finite = math.isfinite(res)
        if not finite:
            break
        z = apply_precond(r)
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    meta = {"applications": it + 1}
    if not finite:
        meta["stopped"] = f"non-finite residual at iteration {it}"
    return PCGResult(
        x=x,
        iterations=it,
        residuals=residuals,
        converged=converged,
        setup_seconds=setup_seconds,
        meta=meta,
    )
