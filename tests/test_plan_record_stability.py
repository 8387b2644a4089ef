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
    "combo1": "12f178beb49915a0fa64ee4a91303e4e31c2a66daa3a57c4cd265647e8b28ac1",
    "combo2": "eae6ff37780bb9cd8b2a32f317558ffdad1622c43452888d477432be6df2839c",
    "combo3": "ec5c5a4c2447600d66fcde54577a86698399d30013bcb9cbc3a004b582d8c083",
    "combo4": "a49ee11f8b7d86451a0bd9c2bfc8455c9c5f065b930d0b99ed1e33b3e2a9e3f7",
    "combo5": "c324466446006bd84edc25f691265e187367a7a4aee266395bff2acea0a0515d",
    "combo6": "275a49674b57c9e71dd2b03e1470138f87c559ad7f5e633e6914df976e247562",
    "gs-unroll1": "125e5b0d52eca0c1fd1397002e011c4cc1e0a1f19fe3cbb32ee946b151dba625",
    "gs-unroll2": "475385f3c8286b0d54ceea5c411944dd7df7c3e8f3106a741589ede1f13c3c34",
    "pcg-pair": "ee8a7035597f9600ceea1aaffa6a02b3ff74f0a9a249427bb94bfb6d5c03b2a4",
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
    assert PLAN_FORMAT == 1


@pytest.mark.parametrize("name", sorted(PINNED_DIGESTS))
def test_plan_record_unchanged(name, lap3d_nd):
    assert record_digest(build_plan(name, lap3d_nd)) == PINNED_DIGESTS[name]
