"""Joint-DAG construction (the substrate of the fused baselines).

The fused baselines the paper compares against (fused wavefront, fused
LBC, fused DAGP) all operate on the *joint DAG*: the union of the
kernels' DAGs plus the inter-kernel edges of every ``F``. Sparse fusion
itself deliberately never materializes this graph (Sec. 3.2: "The
joint-DAG does not need to be explicitly created"); building it here is
what makes the inspection-time comparison of Fig. 8 meaningful.
"""

from __future__ import annotations

import numpy as np

from .dag import DAG
from .interdep import InterDep

__all__ = ["build_joint_dag"]


def build_joint_dag(
    dags: list[DAG], inter: dict[tuple[int, int], InterDep]
) -> DAG:
    """Joint DAG of >= 2 loops: union of intra edges and all ``F`` edges.

    Loop ``k``'s iteration ``i`` becomes vertex ``offsets[k] + i`` (the
    :class:`~repro.schedule.schedule.FusedSchedule` numbering) and
    ``inter[(a, b)]`` contributes the edges from loop ``a`` to loop
    ``b``. Successor slices are sorted and weights are concatenated in
    loop order.
    """
    offsets = np.zeros(len(dags) + 1, dtype=np.int64)
    np.cumsum([d.n for d in dags], out=offsets[1:])
    edges = []
    for k, d in enumerate(dags):
        if d.n_edges:
            edges.append(d.edge_list() + int(offsets[k]))
    for (a, b), f in inter.items():
        if f.n_first != dags[a].n or f.n_second != dags[b].n:
            raise ValueError(
                f"F{(a, b)} has shape ({f.n_second}, {f.n_first}), "
                f"expected ({dags[b].n}, {dags[a].n})"
            )
        if f.nnz:
            e = f.edge_list().copy()
            e[:, 0] += int(offsets[a])
            e[:, 1] += int(offsets[b])
            edges.append(e)
    all_edges = np.concatenate(edges, axis=0) if edges else np.empty((0, 2))
    weights = np.concatenate([d.weights for d in dags])
    return DAG.from_edges(int(offsets[-1]), all_edges, weights)
