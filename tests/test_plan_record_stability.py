"""Stored plan records are stable across refactors of the plan compiler
and of the kernels' precompute hooks.

A stored plan is its ``_plan_record``: the step kinds, loops, phases and
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
    "combo1": "1d4b0ead0edb680c547ba6d6aa21275a04eeb61e4ddb019eefe44dc647541808",
    "combo2": "00dbcd67185a995bb1674791b0945537c41f48ba06755ad18989b32af159161a",
    "combo3": "625cce8d9974c28b2348a8526ede7c15dd198fc4135ba6eadade169238512407",
    "combo4": "b971c62accef44469da9e04a73d983635d49d2713163eff9590864015142137b",
    "combo5": "8ce78aee1bf1bbd045595373ff6cb72920fd690ad3db40cd8c15e0a417a97718",
    "combo6": "19088aa086b64f579f4038c53683abb2f869651ef31fd5ca32eb2307b05d3fad",
    "gs-unroll1": "f2ea2f19d638823d11f6c044d315c5a9f801bca6104347c985c191a9f31117dd",
    "gs-unroll2": "7b2bb99cc4a780c1e0de171ef310dc47833cc357d0046b85ecf51315f1d7f75e",
    "pcg-pair": "014c5cf52ea47e2f173f93bec83e9eb97c5bf55f89f03beafbd435be9e017325",
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
    """The plan that *name* pins, compiled at the default ``min_batch``."""
    if name.startswith("combo"):
        kernels, _ = build_combination(int(name[5:]), a)
        return compile_plan(fuse(kernels, N_THREADS).schedule, kernels)
    if name.startswith("gs-unroll"):
        kernels, _, _ = build_gs_chain(a, int(name[9:]))
    else:
        kernels, _, _ = build_ic0_preconditioner(a)
    return compile_plan(level_schedule(kernels), kernels)


def test_pinned_digests_belong_to_the_current_format():
    assert PLAN_FORMAT == 2


@pytest.mark.parametrize("name", sorted(PINNED_DIGESTS))
def test_plan_record_unchanged(name, lap3d_nd):
    assert record_digest(build_plan(name, lap3d_nd)) == PINNED_DIGESTS[name]
