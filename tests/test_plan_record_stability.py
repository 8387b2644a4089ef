"""Stored plan records are stable across refactors of the plan compiler
and of the kernels' precompute hooks.

A stored plan is its ``_plan_record``: the step loops, phases and
iterations plus every ``precompute_levels`` array, with its dict keys in
order. A refactor that changed one index, its order, its dtype or a key
would silently change what a plan store holds. The digests below were
captured on the nested-dissection ordered ``lap3d:6`` matrix (the
``lap3d_nd`` fixture) for Table 1 combinations 1-6 on their fused
schedules, and for the solvers' level plans: the Gauss-Seidel chain at
unroll 1 and 2 and the IC0-PCG preconditioner's forward/backward pair.
They must only change together with a deliberate ``PLAN_FORMAT`` bump.

Format 2 replaced the linear-row kernels' ``reduceat`` segment
boundaries with CSR row blocks (``ptr``, ``cols``, ``gather``), so every
record holding SpTRSV-CSR, its from-LU variant or SpMV-CSR changed. The
records of combinations 2, 4 and 6 hold none of them: their format-2
digests differ from format 1's only by the header's ``plan_format``.

Format 3 dropped the step kind: a step of one iteration runs scalar and
holds no precomputation, and every wider step is a level step. Groups
of two or three iterations, which ran scalar under the old batch
threshold of four, became precomputed level steps, and every pinned plan
has one or two of them on this matrix, so every digest changed.

Format 4 compiles a plan whose loops are all linear-row kernels to one
row program by joint levels: combination 1, both Gauss-Seidel chains and
the preconditioner pair (whose backward solve now pulls) record their
dispatches' steps with no precomputation, plus the program's row arrays
and the vectors it copies in. Every header gained a ``joint`` flag. The records of combinations 2-6 hold the same steps and
arrays as in format 3, byte for byte: only the header changed.
"""

import hashlib
import json

import numpy as np
import pytest

from repro import build_combination, fuse
from repro.runtime.plan import _plan_record, compile_plan
from repro.schedule.cache import PLAN_FORMAT
from repro.schedule.wavefront import level_schedule
from repro.solvers import build_gs_chain
from repro.solvers.pcg import build_ic0_preconditioner

N_THREADS = 8

PINNED_DIGESTS = {
    "combo1": "8c41969d7944ed2262951032706b5a85c582a9be6617aa64dca182427a14ea55",
    "combo2": "470271d83226b08ec61bd3c1fa0b9965f428dbeb4df42449002ca643ca07e248",
    "combo3": "72a8280ca777c54c2a7a81770d38eb014e6a74a78a401fd06c6241d464a34f13",
    "combo4": "42c5c6e8e3ef351498d8b7f7a3910e0f3e3a6545fbaafe9fb8c085080e66cb5f",
    "combo5": "b4c7b23c2a0a5af0aed635627ed38a657133282439dc1992f9de8ba9b34de571",
    "combo6": "87e21ecfc6de5ad8fa4e5ec36d7b43f8dfd5d9ab25b6408e0907517c6fe57581",
    "gs-unroll1": "02e98a2e1a2479b9943e5497a3721c21559bf76508673263db6f1fe6522bd2af",
    "gs-unroll2": "8d5fa9bb1d24ec64d806e589ebdc8b1f8ceb292031a7fec135e6012e83a1c66b",
    "pcg-pair": "ba706a3d25dfb9f6c6658dd7f4eb04a4b5f93f364cbd7dfbf0d86740ceff0d38",
}


def record_digest(plan) -> str:
    """SHA-256 of a plan's record: its JSON header, then every array's
    dtype, shape and bytes."""
    header, arrays = _plan_record(plan)
    h = hashlib.sha256(json.dumps(header).encode())
    for array in arrays:
        h.update(f"{array.dtype.str}{array.shape}".encode())
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


def build_plan(name: str, a):
    """The plan that *name* pins."""
    if name.startswith("combo"):
        kernels, _ = build_combination(int(name[5:]), a)
        return compile_plan(fuse(kernels, N_THREADS).schedule, kernels)
    if name.startswith("gs-unroll"):
        kernels, _, _ = build_gs_chain(a, int(name[9:]))
    else:
        kernels, _, _ = build_ic0_preconditioner(a)
    return compile_plan(level_schedule(kernels), kernels)


def test_pinned_digests_belong_to_the_current_format():
    assert PLAN_FORMAT == 4


@pytest.mark.parametrize("name", sorted(PINNED_DIGESTS))
def test_plan_record_unchanged(name, lap3d_nd):
    assert record_digest(build_plan(name, lap3d_nd)) == PINNED_DIGESTS[name]
