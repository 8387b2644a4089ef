"""Evaluation metrics: GFLOP/s, potential gain, memory latency, NER.

These are the quantities on the axes of the paper's figures:

* :func:`gflops` — Fig. 5 / Fig. 10 (theoretical flops over simulated
  seconds; the flop count is computed once per kernel combination and
  matrix and shared by every implementation, as in the paper),
* :func:`potential_gain` — Fig. 6 (the figure's memory latency is
  ``MachineReport.avg_memory_latency``),
* :func:`ner` — Fig. 7's "number of executor runs to amortize the
  inspector",
* :func:`fusion_edge_growth` — the §4.2 statistic "the average number of
  edges per vertex increases between 0.2–40% after fusion".
"""

from __future__ import annotations

from ..graph.dag import DAG
from ..graph.interdep import InterDep
from ..kernels.base import Kernel
from .machine import MachineConfig, MachineReport

__all__ = [
    "gflops",
    "potential_gain",
    "ner",
    "fusion_edge_growth",
    "barrier_reduction",
]


def gflops(kernels: list[Kernel], report: MachineReport) -> float:
    """Theoretical GFLOP/s of one simulated execution.

    A zero-duration report (e.g. an empty schedule) yields ``0.0`` —
    propagating ``inf`` would poison downstream geomeans and JSON
    serialization.
    """
    flops = sum(k.flop_count() for k in kernels)
    sec = report.seconds
    return flops / sec / 1e9 if sec > 0 else 0.0


def potential_gain(report: MachineReport, config: MachineConfig) -> float:
    """VTune-style OpenMP potential gain of a simulated execution."""
    return report.potential_gain(config.n_threads, config.barrier_cycles)


def ner(inspector_time: float, baseline_time: float, executor_time: float) -> float:
    """Number of executor runs that amortize the inspector (Fig. 7).

    ``inspector_time / (baseline_time - executor_time)``. The shipped
    callers mix two clocks: the numerator is wall-clock inspector seconds
    (Python inspection on this machine), while the denominator is the
    saving per run on the *simulated* machine (both executor and baseline
    seconds come from :class:`~repro.runtime.machine.SimulatedMachine`).
    The function itself only divides; a same-clock NER needs wall-clock
    seconds on both sides. When the
    executor does not beat the baseline (``baseline_time <=
    executor_time``, including near-ties where the denominator is noise)
    inspection can never be amortized and the result is the flagged
    sentinel ``inf`` — not a division blow-up or a misleading negative —
    mirroring the gflops zero-seconds guard. Aggregations must filter
    with ``math.isfinite``.
    """
    denom = baseline_time - executor_time
    if denom <= max(1e-12, 1e-9 * abs(baseline_time)):
        return float("inf")
    return inspector_time / denom


def fusion_edge_growth(
    dags: list[DAG], inter: dict[tuple[int, int], InterDep]
) -> float:
    """Relative growth of edges-per-vertex caused by the inter-DAG edges.

    The §4.2 statistic: ``(edges_with_F / edges_without_F) - 1`` computed
    on edges per vertex (vertex count is unchanged by fusion).
    """
    intra = sum(d.n_edges for d in dags)
    cross = sum(f.nnz for f in inter.values())
    if intra == 0:
        return float("inf") if cross else 0.0
    return cross / intra


def barrier_reduction(n_barriers_base: int, n_barriers_fused: int) -> float:
    """Fraction of synchronization barriers removed relative to a baseline."""
    if n_barriers_base == 0:
        return 0.0
    return 1.0 - n_barriers_fused / n_barriers_base
