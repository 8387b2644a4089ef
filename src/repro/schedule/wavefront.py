"""Wavefront (level-set) scheduling — the classic baseline.

Each wavefront of the DAG becomes one s-partition; vertices within a
wavefront are mutually independent and are chunked into up to ``r``
cost-balanced w-partitions. This is the maximum-synchronization schedule
(one barrier per level) the paper's "fused wavefront" baseline applies
to the joint DAG.
"""

from __future__ import annotations

import numpy as np

from ..graph.dag import DAG, share_pattern_analyses
from .partition_utils import chunk_by_cost
from .schedule import FusedSchedule, concatenate_schedules

__all__ = ["level_schedule", "wavefront_schedule"]


def wavefront_schedule(dag: DAG, r: int) -> FusedSchedule:
    """Level-set schedule of *dag* for *r* threads.

    Returns a single-loop :class:`FusedSchedule`; callers fusing multiple
    loops pass the joint DAG and re-interpret vertex ids.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    s_partitions = []
    for wf in dag.wavefronts():
        s_partitions.append(chunk_by_cost(wf, dag.weights, r))
    sched = FusedSchedule((dag.n,), s_partitions, packing="none")
    sched.meta["scheduler"] = "wavefront"
    return sched


def level_schedule(kernels) -> FusedSchedule:
    """Each loop's intra-DAG levels, loop after loop, on one thread: the
    cheapest schedule of the (loop, level) steps every valid schedule of
    *kernels* compiles to. The solvers and the IC0 factorization run it.
    Loops over one pattern share their DAG analyses
    (:func:`~repro.graph.dag.share_pattern_analyses`), so levels are
    computed once per pattern."""
    dags = [k.intra_dag() for k in kernels]
    share_pattern_analyses(dags)
    return concatenate_schedules([wavefront_schedule(dag, 1) for dag in dags])
