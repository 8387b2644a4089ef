"""Symmetric half-storage SpMV kernel tests."""

import numpy as np
import pytest

from repro import fuse
from repro.kernels import SpMVSymLower, SpTRSVCSR, internal_var
from repro.obs import sanitize_schedule
from repro.runtime import allocate_state, execute_schedule_planned


def run_all(kernel, state, order=None):
    kernel.setup(state)
    for i in order if order is not None else range(kernel.n_iterations):
        kernel.run_iteration(i, state)
    return state


@pytest.fixture
def low(lap2d_nd):
    return lap2d_nd.lower_triangle().to_csc()


def test_matches_full_spmv(low, lap2d_nd, rng):
    k = SpMVSymLower(low)
    st = allocate_state([k])
    st["Alow"][:] = low.data
    st["x"][:] = rng.random(lap2d_nd.n_rows)
    run_all(k, st)
    assert np.allclose(st["y"], lap2d_nd.to_dense() @ st["x"])


def test_reference_matches(low, rng):
    k = SpMVSymLower(low)
    st = allocate_state([k])
    st["Alow"][:] = low.data
    st["x"][:] = rng.random(low.n_rows)
    ref = {v: a.copy() for v, a in st.items()}
    run_all(k, st)
    k.run_reference(ref)
    assert np.allclose(st["y"], ref["y"])


def test_batch_matches_loop(low, rng):
    k = SpMVSymLower(low)
    st = allocate_state([k])
    st["Alow"][:] = low.data
    st["x"][:] = rng.random(low.n_rows)
    ref = {v: a.copy() for v, a in st.items()}
    run_all(k, ref)
    k.setup(st)
    iters = rng.permutation(k.n_iterations)
    k.run_level_batch(iters, st, k.precompute_levels(iters, [len(iters)])[0])
    assert np.allclose(st["y"], ref["y"])


def test_iteration_order_irrelevant(low, lap2d_nd, rng):
    k = SpMVSymLower(low)
    st = allocate_state([k])
    st["Alow"][:] = low.data
    st["x"][:] = rng.random(low.n_rows)
    run_all(k, st, rng.permutation(k.n_iterations))
    assert np.allclose(st["y"], lap2d_nd.to_dense() @ st["x"])


def test_half_the_matrix_traffic(low, lap2d_nd):
    from repro.kernels import SpMVCSR

    sym = SpMVSymLower(low)
    full = SpMVCSR(lap2d_nd)
    assert sym.iteration_costs().sum() < 0.65 * full.iteration_costs().sum()
    # but the same theoretical flops are performed
    assert sym.flop_count() == pytest.approx(full.flop_count())


def test_write_overlap_declared(low):
    """Column j writes y over its whole touched set — the inspector
    must see the overlap to serialize conflicting iterations."""
    k = SpMVSymLower(low)
    j = 3
    assert np.array_equal(np.sort(k.writes_of("y", j)), np.sort(k._touched(j)))
    assert k.atomic_update_vars == {"y": ("read", "write")}


def test_fused_with_trsv(low, lap2d_nd, rng):
    k1 = SpTRSVCSR(lap2d_nd.lower_triangle(), l_var="Lx", b_var="x0", x_var="x")
    k2 = SpMVSymLower(low, a_var="Alow", x_var="x", y_var="z")
    fl = fuse([k1, k2], 6)
    fl.validate()
    st = fl.allocate_state()
    st["Lx"][:] = lap2d_nd.lower_triangle().data
    st["Alow"][:] = low.data
    st["x0"][:] = rng.random(lap2d_nd.n_rows)
    ref = {v: a.copy() for v, a in st.items()}
    fl.reference(ref)
    fl.execute(st)
    assert np.allclose(st["z"], ref["z"])
    # the plan executor too; concurrent w-partitions may update the same
    # y element, which the sanitizer accepts only as a declared atomic
    st2 = {v: a.copy() for v, a in st.items()}
    st2["z"][:] = 0
    st2["x"][:] = 0
    execute_schedule_planned(fl.schedule, fl.kernels, st2)
    assert np.allclose(st2["z"], ref["z"])
    for executor in ("iter", "plan"):
        rep = sanitize_schedule(fl.schedule, fl.kernels, executor=executor)
        assert rep.clean, rep.summary()


def test_rejects_non_lower(lap2d_nd):
    with pytest.raises(ValueError, match="lower-triangular"):
        SpMVSymLower(lap2d_nd.to_csc())
