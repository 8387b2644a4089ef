"""Backward Gauss–Seidel with multi-loop fusion (Sec. 4.3, Fig. 9).

Backward GS solves ``A x = b`` by iterating
``(D - F) x_{k+1} = E x_k + b`` where ``A = D - F - E`` (``D`` diagonal,
``F`` strictly lower, ``E`` strictly upper). With ``A`` SPD this always
converges. One GS iteration is an SpMV with ``E`` (+ the ``b`` addend)
followed by an SpTRSV with ``D - F = lower(A)`` — so unrolling ``m``
iterations exposes ``2m`` loops for fusion, the paper's showcase for
fusing more than two loops.

The unrolled chain uses ping-pong variables ``x0 -> t1 -> x1 -> t2 ->
...`` so every cross-loop dependence is a clean flow dependence; after
each chunk the solver copies ``x_m`` back into ``x0`` and re-executes
the *same* plan, compiled once per pattern from the chain's
:func:`~repro.schedule.wavefront.level_schedule` (no ICO). The chain, its
schedule and its unbound plan are one solver set-up entry of the
inspection cache (:func:`~repro.schedule.cache.setup_cache`), keyed by
``A``'s pattern and ``unroll``; every call gathers the current matrix
values into a fresh state and binds the plan to them and to the
right-hand side, which no loop writes
(:meth:`~repro.runtime.plan.ExecutionPlan.bind`). The fused schedules of
the paper's Fig. 9 are priced by :func:`gauss_seidel_simulated`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..fusion.fused import fuse
from ..kernels import SpMVCSR, SpTRSVCSR
from ..kernels.base import Kernel, State
from ..obs import current as current_recorder
from ..obs import names
from ..runtime.executor import allocate_state, execute_schedule
from ..runtime.plan import ExecutionPlan, execute_schedule_planned, plan_for
from ..runtime.machine import MachineConfig, SimulatedMachine
from ..baselines.unfused import parsy_schedule
from ..schedule.cache import solver_setup
from ..schedule.schedule import FusedSchedule
from ..schedule.wavefront import level_schedule
from ..sparse.base import INDEX_DTYPE
from ..sparse.csr import CSRMatrix
from ..utils.arrays import checked_vector

__all__ = [
    "GSResult",
    "build_gs_chain",
    "gauss_seidel",
    "gauss_seidel_simulated",
    "gs_iterations_to_converge",
    "gs_split",
]

#: State arrays of the unrolled chain that no loop writes: a plan solve
#: binds them once and makes them read-only.
_BOUND = ("Ex", "Lx", "b")


def gs_split(a: CSRMatrix) -> tuple[CSRMatrix, CSRMatrix]:
    """Split ``A = (D - F) - E``: returns ``(lower_with_diag, E)``.

    ``lower_with_diag`` is ``D - F`` (the lower triangle of ``A``
    including the diagonal); ``E`` is the *negated* strict upper triangle,
    so one GS step is ``solve(lower, E @ x + b)``.
    """
    low = a.lower_triangle()
    upper = a.upper_triangle(strict=True)
    e = CSRMatrix(
        upper.n_rows,
        upper.n_cols,
        upper.indptr,
        upper.indices,
        -upper.data,
        check=False,
    )
    return low, e


def build_gs_chain(
    a: CSRMatrix, unroll: int = 1
) -> tuple[list[Kernel], str, str]:
    """Kernels of *unroll* unrolled GS iterations (``2*unroll`` loops).

    Returns ``(kernels, x_in_var, x_out_var)``. Loop ``2k`` is the SpMV
    ``t_{k+1} = E x_k + b``; loop ``2k+1`` the SpTRSV
    ``x_{k+1} = lower(A)^{-1} t_{k+1}``.
    """
    if unroll < 1:
        raise ValueError("unroll must be >= 1")
    low, e = gs_split(a)
    kernels: list[Kernel] = []
    for k in range(unroll):
        x_in = f"x{k}"
        t = f"t{k + 1}"
        x_out = f"x{k + 1}"
        kernels.append(
            SpMVCSR(e, a_var="Ex", x_var=x_in, y_var=t, add_var="b")
        )
        kernels.append(SpTRSVCSR(low, l_var="Lx", b_var=t, x_var=x_out))
    return kernels, "x0", f"x{unroll}"


@dataclass
class GSResult:
    """Outcome of a Gauss–Seidel solve."""

    x: np.ndarray
    iterations: int
    residuals: list[float]
    converged: bool
    method: str
    unroll: int
    inspector_seconds: float
    #: machine-model price; only :func:`gauss_seidel_simulated` sets it
    simulated_solve_seconds: float | None = None
    schedule: FusedSchedule | None = None
    meta: dict = field(default_factory=dict)


def _split_at(a: CSRMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Positions in ``a.data`` of ``lower(A)``'s entries and of ``E``'s,
    in :func:`gs_split`'s order."""
    rows = np.repeat(np.arange(a.n_rows, dtype=INDEX_DTYPE), np.diff(a.indptr))
    lower = a.indices <= rows
    return np.flatnonzero(lower), np.flatnonzero(~lower)


@dataclass(frozen=True)
class _Setup:
    """The unrolled chain, the schedule it runs on and where its values
    come from. Built from ``A``'s pattern alone for the plan executor,
    where it is cached; the kernels' matrices keep the values of the
    matrix it was built from, and nothing reads them: :meth:`state`
    gathers the caller's values through ``lower_at`` and ``upper_at``."""

    kernels: list[Kernel]
    x_in: str
    x_out: str
    schedule: FusedSchedule
    #: the chain's plan, never bound (``None`` for the iter executor)
    plan: ExecutionPlan | None
    #: positions in ``A.data`` of ``lower(A)``'s entries, and of ``E``'s
    lower_at: np.ndarray
    upper_at: np.ndarray

    @classmethod
    def build(cls, a: CSRMatrix, unroll: int) -> "_Setup":
        """The plan executor's set-up of *unroll* iterations on *a*."""
        kernels, x_in, x_out = build_gs_chain(a, unroll)
        schedule = level_schedule(kernels)
        return cls(
            kernels, x_in, x_out, schedule, plan_for(schedule, kernels), *_split_at(a)
        )

    def state(self, a: CSRMatrix, b: np.ndarray, x0: np.ndarray | None) -> State:
        """A fresh chain state holding *a*'s current values, *b* and *x0*."""
        state = allocate_state(self.kernels)
        np.negative(a.data[self.upper_at], out=state["Ex"])
        state["Lx"][:] = a.data[self.lower_at]
        state["b"][:] = b
        if x0 is not None:
            state[self.x_in][:] = x0
        return state


def _chain_schedule(
    kernels: list[Kernel], method: str, n_threads: int
) -> tuple[FusedSchedule, float]:
    """The schedule *method* picks for the unrolled chain on the iter
    executor, and its inspector seconds."""
    rec = current_recorder()
    with rec.span("gs.schedule", method=method, executor="iter") as sp:
        if method == "parsy":
            sched = parsy_schedule(kernels, n_threads)
        else:
            scheduler = "ico" if method == "sparse-fusion" else method
            fused = fuse(kernels, n_threads, scheduler=scheduler, validate=False)
            return fused.schedule, fused.inspector_seconds
    return sched, sp.seconds


def gauss_seidel(
    a: CSRMatrix,
    b: np.ndarray,
    *,
    tol: float = 1e-6,
    max_iters: int = 1000,
    unroll: int = 2,
    method: str = "sparse-fusion",
    n_threads: int = 8,
    x0: np.ndarray | None = None,
    executor: str = "plan",
) -> GSResult:
    """Solve ``A x = b`` with backward GS (paper's Fig. 9 configuration).

    ``executor`` selects how each chunk runs: ``"plan"`` (default) runs
    the compiled level-batched plan of the chain's
    :func:`~repro.schedule.wavefront.level_schedule` — compiled once per
    pattern, looked up in :func:`~repro.schedule.cache.setup_cache`, and
    bound every call to ``E``, ``lower(A)`` and *b*; see
    :mod:`repro.runtime.plan`. ``"iter"`` runs the
    per-iteration oracle over the schedule ``method`` picks for
    *n_threads*: ``"sparse-fusion"`` (ICO), ``"parsy"`` (unfused LBC per
    loop), ``"joint-wavefront"`` / ``"joint-lbc"`` / ``"joint-dagp"``.
    ``inspector_seconds`` is the set-up lookup, plus on a miss the chain,
    schedule and plan build, for ``"plan"``; the schedule's inspection
    for ``"iter"``.
    Convergence stops at relative residual *tol* or *max_iters* GS
    iterations; with no sweep run, ``x`` is a copy of *x0* (zeros when
    it is not given). The solve also stops at the first residual that is
    not finite, with ``converged=False`` and ``meta["stopped"]`` naming
    the iteration. :func:`gauss_seidel_simulated` prices a solve on
    the machine model.
    """
    if executor not in ("iter", "plan"):
        raise ValueError(f"unknown executor {executor!r}")
    if not a.is_square:
        raise ValueError("Gauss-Seidel requires a square matrix")
    b = checked_vector("b", b, a.n_rows)
    if x0 is not None:
        x0 = checked_vector("x0", x0, a.n_rows)
    rec = current_recorder()
    if executor == "plan":
        with rec.span("gs.schedule", method=method, executor=executor) as sp:
            setup, hit = solver_setup(
                "gauss-seidel", a, lambda: _Setup.build(a, unroll), unroll=unroll
            )
            sp.set(hit=hit)
        rec.count(names.SOLVER_SETUP_HITS if hit else names.SOLVER_SETUP_MISSES)
        inspector = sp.seconds
    else:
        kernels, x_in, x_out = build_gs_chain(a, unroll)
        sched, inspector = _chain_schedule(kernels, method, n_threads)
        setup = _Setup(kernels, x_in, x_out, sched, None, *_split_at(a))
    kernels, sched, x_in, x_out = setup.kernels, setup.schedule, setup.x_in, setup.x_out
    state = setup.state(a, b, x0)
    if executor == "plan":
        for name in _BOUND:
            state[name].flags.writeable = False
        plan = setup.plan.bind(state, _BOUND)

    b_norm = float(np.linalg.norm(b)) or 1.0
    residuals: list[float] = []
    iterations = 0
    converged = False
    chunks = 0
    x = state[x_in]
    meta = {}
    with rec.span("gs.solve", method=method, unroll=unroll, executor=executor):
        while iterations < max_iters:
            if executor == "plan":
                execute_schedule_planned(sched, kernels, state, plan=plan)
            else:
                execute_schedule(sched, kernels, state)
            chunks += 1
            iterations += unroll
            x = state[x_out]
            res = float(np.linalg.norm(a.matvec(x) - b)) / b_norm
            residuals.append(res)
            if res < tol:
                converged = True
                break
            if not math.isfinite(res):
                meta["stopped"] = f"non-finite residual at iteration {iterations}"
                break
            state[x_in][:] = x
        rec.count(names.GS_CHUNKS, chunks)
    return GSResult(
        x=x.copy(),
        iterations=iterations,
        residuals=residuals,
        converged=converged,
        method=method,
        unroll=unroll,
        inspector_seconds=inspector,
        schedule=sched,
        meta={"chunks": chunks, **meta},
    )


def gs_iterations_to_converge(
    a: CSRMatrix,
    b: np.ndarray,
    *,
    tol: float = 1e-6,
    max_iters: int = 1000,
    x0: np.ndarray | None = None,
) -> int:
    """GS iterations needed for relative residual *tol* (vectorized).

    Runs classic backward GS sweeps with scipy's triangular solve —
    numerically the same fixed point every scheduled variant computes —
    so benchmarks can price a solve without executing the pure-Python
    per-iteration executor for hundreds of sweeps.
    """
    from scipy.sparse.linalg import spsolve_triangular

    low, e = gs_split(a)
    low_sp = low.to_scipy()
    e_sp = e.to_scipy()
    b = checked_vector("b", b, a.n_rows)
    x = np.zeros(a.n_rows) if x0 is None else checked_vector("x0", x0, a.n_rows)
    b_norm = float(np.linalg.norm(b)) or 1.0
    a_sp = a.to_scipy()
    for it in range(1, max_iters + 1):
        x = spsolve_triangular(low_sp, e_sp @ x + b, lower=True)
        if float(np.linalg.norm(a_sp @ x - b)) / b_norm < tol:
            return it
    return max_iters


def gauss_seidel_simulated(
    a: CSRMatrix,
    b: np.ndarray,
    *,
    iterations: int,
    unroll: int = 2,
    method: str = "sparse-fusion",
    n_threads: int = 8,
    machine: MachineConfig | None = None,
) -> GSResult:
    """Price a GS solve of *iterations* sweeps without executing it.

    Builds the unrolled chain and the schedule *method* picks, exactly
    as :func:`gauss_seidel` does for ``executor="iter"``, simulates one
    chunk, and multiplies by the number of chunks — the benchmarking
    path for Fig. 9 where executing hundreds of Python sweeps per
    configuration would be prohibitive.
    ``x`` in the result is a zero vector (numerics are covered by
    :func:`gauss_seidel` and its tests).
    """
    kernels, _, _ = build_gs_chain(a, unroll)
    cfg = machine or MachineConfig(n_threads=n_threads)
    sched, inspector = _chain_schedule(kernels, method, n_threads)
    chunk_seconds = SimulatedMachine(cfg).simulate(sched, kernels).seconds
    chunks = -(-iterations // unroll)  # ceil
    return GSResult(
        x=np.zeros(a.n_rows),
        iterations=chunks * unroll,
        residuals=[],
        converged=True,
        method=method,
        unroll=unroll,
        inspector_seconds=inspector,
        simulated_solve_seconds=chunks * chunk_seconds,
        schedule=sched,
        meta={"chunks": chunks, "chunk_seconds": chunk_seconds, "simulated_only": True},
    )
