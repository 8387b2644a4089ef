"""Dependency-DAG substrate: DAGs, inter-loop deps, joint DAGs, chordality.

* :class:`DAG` — iteration dependence graph of one kernel (``G1``/``G2``),
* :class:`InterDep` — the inter-kernel dependency matrix ``F``,
* :func:`build_joint_dag` — joint DAG for the fused baselines,
* :func:`chordalize` — elimination-game closure used before LBC.
"""

from .chordal import ChordalizationError, chordalize
from .dag import DAG
from .interdep import InterDep
from .joint import build_joint_dag

__all__ = [
    "DAG",
    "InterDep",
    "build_joint_dag",
    "chordalize",
    "ChordalizationError",
]
