"""Executor tests: the sequential-faithful ``iter`` oracle."""

import numpy as np
import pytest

from repro import fuse
from repro.fusion import build_combination
from repro.kernels import SpMVCSR
from repro.runtime import allocate_state, execute_schedule, run_reference
from repro.schedule import FusedSchedule


def test_execute_validates_loop_counts(lap2d_nd):
    kernels, state = build_combination(1, lap2d_nd)
    bad = FusedSchedule((3,), [[np.array([0, 1, 2])]])
    with pytest.raises(ValueError):
        execute_schedule(bad, kernels, state)


def test_execute_runs_setups(lap2d_nd, rng):
    """SpMV-CSC's setup must zero y even if state starts dirty."""
    kernels, state = build_combination(3, lap2d_nd)
    state["z"][:] = 1e9
    fl = fuse(kernels, 4)
    fl.execute(state)
    ref = {v: a.copy() for v, a in state.items()}
    # recompute reference from same inputs
    kernels2, state2 = build_combination(3, lap2d_nd)
    state2["x0"][:] = 0.0  # default builder seeds differ; align inputs
    state["x0"][:] = 0.0
    run_reference(kernels, state)
    assert np.isfinite(state["z"]).all()


def test_run_reference_order(lap2d_nd):
    kernels, state = build_combination(4, lap2d_nd)
    run_reference(kernels, state)
    # L factor feeds the TRSV: solution must satisfy L y = b
    low = lap2d_nd.lower_triangle().to_csc()
    l_dense = type(low)(
        low.n_rows, low.n_cols, low.indptr, low.indices, state["Lx"], check=False
    ).to_dense()
    assert np.allclose(l_dense @ state["y"], state["b"])


def test_allocate_state_zeroed(lap2d_nd):
    k = SpMVCSR(lap2d_nd)
    st = allocate_state([k])
    assert all(np.all(a == 0) for a in st.values())

