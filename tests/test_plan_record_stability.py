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
    "combo1": "3f1f9fb72f7e86f2337ea960d0dfb25bccf540e7bec1cb86596dbdba805221ee",
    "combo2": "84a6d3990200c64ebfaec43a5dafb68db8c802715c29963a73ce0902c89af60a",
    "combo3": "ef180dfbd3af8d650acb1891f29afb15f90568557b0409bd48ad2881d6906d26",
    "combo4": "b9280b001760c339dc968f0a577d0d58b26cfc9586f9af727dce6e383a73b42d",
    "combo5": "b42eaffa41f3dcfd890d9e340a4737560a611f0e47789c6012d873bc2c199263",
    "combo6": "fc40996dfb4aca345d1099a4f9fb5914e53fd44f8296ca4df302141ed4bf7c84",
    "gs-unroll1": "c67110f27dec2a71e1a28d2f2b374cf20403339ffe878ef52b42b536d8d1a616",
    "gs-unroll2": "b883bc42957e7754f83e7cd55a6bfb2589452e8b7188667822342e0aaee1012b",
    "pcg-pair": "24407f805be882ab34580ec84ab1ab80124f03bd236dbdf9969d791025e0a793",
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
    assert PLAN_FORMAT == 3


@pytest.mark.parametrize("name", sorted(PINNED_DIGESTS))
def test_plan_record_unchanged(name, lap3d_nd):
    assert record_digest(build_plan(name, lap3d_nd)) == PINNED_DIGESTS[name]
