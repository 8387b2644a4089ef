"""Backward (transpose) SpTRSV kernel tests."""

import numpy as np
import pytest

from repro import fuse
from repro.kernels import SpTRSVBackwardCSR, SpTRSVCSR
from repro.obs import sanitize_schedule
from repro.runtime import allocate_state, execute_schedule_planned
from repro.schedule import validate_schedule
from repro.schedule.wavefront import level_schedule
from repro.sparse import ic0_csc, random_lower_triangular


def run_all(kernel, state, order=None):
    kernel.setup(state)
    scratch = kernel.make_scratch()
    for i in order if order is not None else range(kernel.n_iterations):
        kernel.run_iteration(i, state, scratch)
    return state


@pytest.fixture
def l_factor(lap2d_nd):
    return ic0_csc(lap2d_nd).to_csr()


def test_solves_transpose_system(l_factor, rng):
    k = SpTRSVBackwardCSR(l_factor)
    st = allocate_state([k])
    st["Lx"][:] = l_factor.data
    st["b"][:] = rng.random(l_factor.n_rows)
    run_all(k, st)
    assert np.allclose(l_factor.to_dense().T @ st["x"], st["b"], atol=1e-9)


def test_reference_matches(l_factor, rng):
    k = SpTRSVBackwardCSR(l_factor)
    st = allocate_state([k])
    st["Lx"][:] = l_factor.data
    st["b"][:] = rng.random(l_factor.n_rows)
    ref = {v: a.copy() for v, a in st.items()}
    run_all(k, st)
    k.run_reference(ref)
    assert np.allclose(st["x"], ref["x"])


def test_dag_is_naturally_ordered(l_factor):
    g = SpTRSVBackwardCSR(l_factor).intra_dag()
    assert g.is_naturally_ordered()
    # edge count equals strict-lower entries (each L[i,j] is one dep)
    assert g.n_edges == l_factor.nnz - l_factor.n_rows


def test_wavefront_order_execution(l_factor, rng):
    k = SpTRSVBackwardCSR(l_factor)
    st = allocate_state([k])
    st["Lx"][:] = l_factor.data
    st["b"][:] = rng.random(l_factor.n_rows)
    order = []
    for wf in k.intra_dag().wavefronts():
        order.extend(reversed(wf.tolist()))
    run_all(k, st, order)
    assert np.allclose(l_factor.to_dense().T @ st["x"], st["b"], atol=1e-9)


def test_fused_forward_backward_solve(l_factor, lap2d_nd, rng):
    """The PCG preconditioner pair: z = L^-T (L^-1 r), fused and valid."""
    fwd = SpTRSVCSR(l_factor, l_var="Lx", b_var="r", x_var="w")
    bwd = SpTRSVBackwardCSR(l_factor, l_var="Lx", b_var="w", x_var="z")
    fl = fuse([fwd, bwd], 6)
    validate_schedule(fl.schedule, fl.dags, fl.inter)
    st = fl.allocate_state()
    st["Lx"][:] = l_factor.data
    st["r"][:] = rng.random(l_factor.n_rows)
    fl.execute(st)
    ld = l_factor.to_dense()
    expect = np.linalg.solve(ld.T, np.linalg.solve(ld, st["r"]))
    assert np.allclose(st["z"], expect, atol=1e-8)


def test_threaded_execution(l_factor, rng):
    """Concurrent w-partitions pull finished entries of ``z``: the
    sanitizer is clean under both executor models, and the plan executor
    matches the ``iter`` oracle."""
    fwd = SpTRSVCSR(l_factor, l_var="Lx", b_var="r", x_var="w")
    bwd = SpTRSVBackwardCSR(l_factor, l_var="Lx", b_var="w", x_var="z")
    fl = fuse([fwd, bwd], 4)
    st = fl.allocate_state()
    st["Lx"][:] = l_factor.data
    st["r"][:] = rng.random(l_factor.n_rows)
    ref = {v: a.copy() for v, a in st.items()}
    fl.execute(ref)
    execute_schedule_planned(fl.schedule, fl.kernels, st)
    assert np.allclose(st["z"], ref["z"])
    for executor in ("iter", "plan"):
        rep = sanitize_schedule(fl.schedule, fl.kernels, executor=executor)
        assert rep.clean, rep.summary()


def test_rejects_non_lower(lap2d_nd):
    with pytest.raises(ValueError, match="lower-triangular"):
        SpTRSVBackwardCSR(lap2d_nd)


@pytest.mark.parametrize("seed", [0, 4])
def test_random_lower(seed, rng):
    low = random_lower_triangular(60, 4.0, seed=seed)
    k = SpTRSVBackwardCSR(low)
    st = allocate_state([k])
    st["Lx"][:] = low.data
    st["b"][:] = rng.random(60)
    run_all(k, st)
    assert np.allclose(low.to_dense().T @ st["x"], st["b"], atol=1e-8)


@pytest.mark.parametrize("seed", [0, 4])
def test_pull_form_plan_matches_iter_and_reference(seed, l_factor, rng):
    """The pull form, ``x[j] = (b[j] - sum_{i>j} L[i, j] x[i]) / L[j, j]``:
    its level steps and its row program agree bitwise, and both agree
    with the ``iter`` oracle and with scipy's triangular solve."""
    for low in (l_factor, random_lower_triangular(60, 4.0, seed=seed)):
        k = SpTRSVBackwardCSR(low)
        st = allocate_state([k])
        st["Lx"][:] = low.data
        st["b"][:] = rng.random(low.n_rows)
        assert set(st) == {"Lx", "b", "x"}  # no accumulator
        oracle = run_all(k, {v: a.copy() for v, a in st.items()})
        ref = {v: a.copy() for v, a in st.items()}
        k.run_reference(ref)
        steps = {v: a.copy() for v, a in st.items()}
        for level in k.intra_dag().wavefronts():
            k.run_level_batch(level, steps, k.precompute_levels(level, [len(level)])[0])
        planned = execute_schedule_planned(
            level_schedule([k]), [k], {v: a.copy() for v, a in st.items()}
        )
        assert planned["x"].tobytes() == steps["x"].tobytes()
        assert np.allclose(planned["x"], oracle["x"], rtol=1e-12, atol=1e-13)
        assert np.allclose(planned["x"], ref["x"], rtol=1e-12, atol=1e-13)
        assert np.allclose(low.to_dense().T @ planned["x"], st["b"], atol=1e-8)
