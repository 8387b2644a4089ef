"""The paper's Fig. 2 running example, end to end, with ASCII schedules.

An 11-iteration SpTRSV DAG fused with an 11-iteration SpMV through a
diagonal ``F`` on 3 processors: prints the LBC-unfused schedule
(Fig. 2c), the fused-LBC joint-DAG schedule (Fig. 2d) and the sparse
fusion schedule (Fig. 2e) side by side.

Run:  python examples/paper_example.py
"""

from repro.graph import DAG, InterDep, build_joint_dag
from repro.schedule import (
    concatenate_schedules,
    ico_schedule,
    lbc_schedule,
    validate_schedule,
)

# G1 (SpTRSV) edges, 1-based as in the paper's figure.
G1_EDGES = [
    (1, 2), (2, 3), (3, 4), (5, 6), (7, 8), (7, 9), (8, 9),
    (4, 10), (6, 10), (9, 11), (10, 11),
]
N = 11
R = 3


def render(schedule, n_first: int) -> str:
    """ASCII rendering: one line per s-partition; TRSV plain, SpMV primed."""
    lines = []
    for s, wlist in enumerate(schedule.s_partitions):
        cells = []
        for verts in wlist:
            labels = [
                str(v + 1) if v < n_first else f"{v - n_first + 1}'"
                for v in verts.tolist()
            ]
            cells.append(" ".join(labels))
        lines.append(f"  s{s + 1}: " + " | ".join(cells))
    return "\n".join(lines)


def main() -> None:
    g1 = DAG.from_edges(N, [(a - 1, b - 1) for a, b in G1_EDGES])
    g2 = DAG.empty(N)
    f = InterDep.identity(N)
    inter = {(0, 1): f}

    print("G1 (SpTRSV): 11 vertices, wavefronts =", g1.n_wavefronts)
    print("G2 (SpMV)  : 11 vertices, fully parallel")
    print("F          : diagonal (SpMV i reads x[i] from TRSV i)\n")

    unfused = concatenate_schedules([lbc_schedule(g1, R), lbc_schedule(g2, R)])
    validate_schedule(unfused, [g1, g2], inter)
    print(f"LBC unfused (Fig. 2c) — {unfused.n_spartitions} s-partitions:")
    print(render(unfused, N))

    joint = build_joint_dag([g1, g2], inter)
    joint_sched = lbc_schedule(joint, R)
    joint2 = type(unfused)((N, N), joint_sched.s_partitions)
    validate_schedule(joint2, [g1, g2], inter)
    print(f"\nLBC joint DAG (Fig. 2d) — {joint2.n_spartitions} s-partitions:")
    print(render(joint2, N))

    fused = ico_schedule([g1, g2], inter, R, reuse_ratio=0.5)
    validate_schedule(fused, [g1, g2], inter)
    print(f"\nSparse fusion (Fig. 2e) — {fused.n_spartitions} s-partitions:")
    print(render(fused, N))

    print(
        f"\nbarriers: unfused={unfused.n_barriers} "
        f"joint-LBC={joint2.n_barriers} sparse-fusion={fused.n_barriers}"
    )


if __name__ == "__main__":
    main()
