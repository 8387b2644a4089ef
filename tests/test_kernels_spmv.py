"""SpMV kernel tests (CSR and CSC variants)."""

import numpy as np
import pytest

from repro.kernels import SpMVCSC, SpMVCSR
from repro.runtime import allocate_state


def run_all(kernel, state, order=None):
    kernel.setup(state)
    scratch = kernel.make_scratch()
    for i in order if order is not None else range(kernel.n_iterations):
        kernel.run_iteration(i, state, scratch)
    return state


class TestCSR:
    def test_matches_dense(self, lap2d_nd, rng):
        k = SpMVCSR(lap2d_nd)
        st = allocate_state([k])
        st["Ax"][:] = lap2d_nd.data
        st["x"][:] = rng.random(lap2d_nd.n_cols)
        run_all(k, st)
        assert np.allclose(st["y"], lap2d_nd.to_dense() @ st["x"])

    def test_with_addend(self, lap2d_nd, rng):
        k = SpMVCSR(lap2d_nd, add_var="c")
        st = allocate_state([k])
        st["Ax"][:] = lap2d_nd.data
        st["x"][:] = rng.random(lap2d_nd.n_cols)
        st["c"][:] = rng.random(lap2d_nd.n_rows)
        run_all(k, st)
        assert np.allclose(st["y"], lap2d_nd.to_dense() @ st["x"] + st["c"])
        assert "c" in k.read_vars
        assert k.flop_count() == 2 * lap2d_nd.nnz + lap2d_nd.n_rows

    def test_reference_matches(self, lap2d_nd, rng):
        k = SpMVCSR(lap2d_nd, add_var="c")
        st = allocate_state([k])
        st["Ax"][:] = lap2d_nd.data
        st["x"][:] = rng.random(lap2d_nd.n_cols)
        st["c"][:] = rng.random(lap2d_nd.n_rows)
        ref = {v: a.copy() for v, a in st.items()}
        run_all(k, st)
        k.run_reference(ref)
        assert np.allclose(st["y"], ref["y"])

    def test_parallel_dag(self, lap2d_nd):
        assert not SpMVCSR(lap2d_nd).intra_dag().has_edges

    def test_iteration_order_irrelevant(self, lap2d_nd, rng):
        k = SpMVCSR(lap2d_nd)
        st = allocate_state([k])
        st["Ax"][:] = lap2d_nd.data
        st["x"][:] = rng.random(lap2d_nd.n_cols)
        order = rng.permutation(lap2d_nd.n_rows)
        run_all(k, st, order)
        assert np.allclose(st["y"], lap2d_nd.to_dense() @ st["x"])


class TestCSC:
    def test_matches_dense(self, lap2d_nd, rng):
        csc = lap2d_nd.to_csc()
        k = SpMVCSC(csc)
        st = allocate_state([k])
        st["Ax"][:] = csc.data
        st["x"][:] = rng.random(csc.n_cols)
        run_all(k, st)
        assert np.allclose(st["y"], lap2d_nd.to_dense() @ st["x"])

    def test_setup_zeroes_output(self, lap2d_nd):
        csc = lap2d_nd.to_csc()
        k = SpMVCSC(csc)
        st = allocate_state([k])
        st["y"][:] = 123.0
        k.setup(st)
        assert np.all(st["y"] == 0)

    def test_scatter_order_irrelevant(self, lap2d_nd, rng):
        csc = lap2d_nd.to_csc()
        k = SpMVCSC(csc)
        st = allocate_state([k])
        st["Ax"][:] = csc.data
        st["x"][:] = rng.random(csc.n_cols)
        order = rng.permutation(csc.n_cols)
        run_all(k, st, order)
        assert np.allclose(st["y"], lap2d_nd.to_dense() @ st["x"])

    def test_atomic_update_vars(self, lap2d_nd):
        assert SpMVCSC(lap2d_nd.to_csc()).atomic_update_vars == {
            "y": ("read", "write")
        }
        assert not SpMVCSR(lap2d_nd).atomic_update_vars

    def test_write_overlap_declared(self, lap2d_nd):
        """Every scattered element appears in writes_of — the generic
        inspector relies on this to serialize overlapping writes."""
        csc = lap2d_nd.to_csc()
        k = SpMVCSC(csc)
        j = 5
        rows, _ = csc.col(j)
        assert np.array_equal(np.sort(k.writes_of("y", j)), np.sort(rows))

    def test_reads_own_output_for_accumulation(self, lap2d_nd):
        csc = lap2d_nd.to_csc()
        k = SpMVCSC(csc)
        assert "y" in k.read_vars  # read-modify-write
