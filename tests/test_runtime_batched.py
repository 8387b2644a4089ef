"""Vectorized batch paths of the dependence-free kernels: their
``run_level_batch`` over a whole loop (one compiled-plan ``level`` step)
and the array helpers behind them."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.kernels import DScalCSR, SpMVCSC, SpMVCSR
from repro.runtime import allocate_state
from repro.utils import arrays, multi_range, row_block_matvec
from repro.utils.arrays import row_block_ptrs


def row_sums(values, counts):
    """Row sums of one row block whose rows hold *counts* entries, each
    entry multiplying ``x = 1``: the block's values summed per row."""
    (ptr,) = row_block_ptrs(np.asarray(counts), [len(counts)])
    cols = np.zeros(len(values), dtype=ptr.dtype)
    return row_block_matvec(ptr, cols, values, np.ones(1), np.zeros(len(counts)))


def level_batch(kernel, iters, state):
    """``run_level_batch`` on *iters* as one step, with its precomputation."""
    precomp = kernel.precompute_levels(iters, [len(iters)])[0]
    kernel.run_level_batch(iters, state, precomp)


def random_blocks(rng, n_blocks=40):
    """Random row blocks ``(ptr, cols, vals, x)`` with empty rows and
    values spread over twelve decades."""
    for seed in range(n_blocks):
        n, m = int(rng.integers(0, 40)), int(rng.integers(1, 40))
        a = sp.random(
            n, m, density=rng.uniform(0, 0.7), random_state=seed, format="csr"
        )
        vals = a.data * 10.0 ** rng.uniform(-6, 6, a.nnz)
        cols = a.indices.astype(np.int64)
        ptr = a.indptr.astype(np.int64)
        yield ptr, cols, vals, rng.standard_normal(m)


class TestArrayHelpers:
    def test_multi_range_basic(self):
        out = multi_range(np.array([0, 10, 20]), np.array([2, 0, 3]))
        assert out.tolist() == [0, 1, 20, 21, 22]

    def test_multi_range_empty(self):
        assert multi_range(np.array([5]), np.array([0])).shape == (0,)

    def test_row_block_matvec_basic(self):
        out = row_sums(np.array([1.0, 2.0, 3.0, 4.0]), [2, 2])
        assert out.tolist() == [3.0, 7.0]

    def test_row_block_matvec_empty_rows(self):
        out = row_sums(np.array([1.0, 2.0, 3.0]), [0, 2, 0, 1, 0])
        assert out.tolist() == [0.0, 3.0, 0.0, 3.0, 0.0]

    def test_row_block_matvec_trailing_empty_row(self):
        """A trailing empty row must not take the final entry of the row
        before it."""
        assert row_sums(np.array([1.0, 2.0]), [2, 0]).tolist() == [3.0, 0.0]

    def test_row_block_matvec_all_empty(self):
        assert row_sums(np.empty(0), [0, 0]).tolist() == [0, 0]

    def test_row_block_ptrs_split_into_blocks(self):
        """Each block's pointers count from the block's own first entry,
        whatever the blocks before it hold."""
        counts = np.array([2, 0, 1, 0, 0, 3, 0])
        got = [p.tolist() for p in row_block_ptrs(counts, [3, 2, 2])]
        assert got == [[0, 2, 2, 3], [0, 0, 0], [0, 3, 3]]
        assert all(p.dtype == np.int64 for p in row_block_ptrs(counts, [3, 2, 2]))
        assert [p.tolist() for p in row_block_ptrs(counts, [0, 7, 0])] == [
            [0],
            [0, 2, 2, 3, 3, 3, 6, 6],
            [0],
        ]

    @pytest.mark.parametrize("fallback", [False, True])
    def test_row_block_matvec_matches_public_product(self, fallback, rng, monkeypatch):
        """From zeros, bitwise ``csr_array @ x``; from a right-hand side,
        within 1e-15 relative of ``rhs + csr_array @ x``. The fallback
        that stands in for scipy's private routine gives the same."""
        if fallback:
            monkeypatch.setattr(arrays, "_csr_matvec", None)
        for ptr, cols, vals, x in random_blocks(rng):
            n = ptr.shape[0] - 1
            shape = (n, x.shape[0])
            public = sp.csr_array((vals, cols, ptr), shape=shape) @ x
            out = np.zeros(n)
            assert row_block_matvec(ptr, cols, vals, x, out) is out
            assert out.tobytes() == public.tobytes()
            rhs = rng.standard_normal(n) * 10.0 ** rng.uniform(-6, 6, n)
            out = row_block_matvec(ptr, cols, vals, x, rhs.copy())
            # relative to the row's magnitude sum, which cancellation
            # in rhs + A @ x cannot shrink
            scale = np.abs(rhs) + sp.csr_array(
                (np.abs(vals), cols, ptr), shape=shape
            ) @ np.abs(x)
            assert np.all(np.abs(out - (rhs + public)) <= 1e-15 * scale)


class TestRunBatch:
    def test_spmv_csr_batch_equals_loop(self, lap2d_nd, rng):
        k = SpMVCSR(lap2d_nd, add_var="c")
        st = allocate_state([k])
        st["Ax"][:] = lap2d_nd.data
        st["x"][:] = rng.random(lap2d_nd.n_cols)
        st["c"][:] = rng.random(lap2d_nd.n_rows)
        ref = {v: a.copy() for v, a in st.items()}
        for i in range(k.n_iterations):
            k.run_iteration(i, ref)
        iters = rng.permutation(k.n_iterations)
        level_batch(k, iters, st)
        assert np.allclose(st["y"], ref["y"])

    def test_spmv_csr_batch_with_empty_rows(self, rng):
        """Strict-upper operands have an empty last row — the regression
        that once surfaced a segment-sum bug via Gauss-Seidel."""
        from repro.sparse import laplacian_2d
        from repro.solvers.gauss_seidel import gs_split

        a = laplacian_2d(6)
        _, e = gs_split(a)
        k = SpMVCSR(e, add_var="c")
        st = allocate_state([k])
        st["Ax"][:] = e.data
        st["x"][:] = rng.random(e.n_cols)
        st["c"][:] = rng.random(e.n_rows)
        level_batch(k, np.arange(k.n_iterations), st)
        assert np.allclose(st["y"], e.to_dense() @ st["x"] + st["c"])

    def test_spmv_csc_batch_equals_loop(self, lap2d_nd, rng):
        csc = lap2d_nd.to_csc()
        k = SpMVCSC(csc)
        st = allocate_state([k])
        st["Ax"][:] = csc.data
        st["x"][:] = rng.random(csc.n_cols)
        k.setup(st)
        level_batch(k, np.arange(k.n_iterations), st)
        assert np.allclose(st["y"], lap2d_nd.to_dense() @ st["x"])

    def test_dscal_batch_equals_loop(self, lap2d_nd):
        k = DScalCSR(lap2d_nd)
        st = allocate_state([k])
        st["Ax"][:] = lap2d_nd.data
        ref = {v: a.copy() for v, a in st.items()}
        k.run_reference(ref)
        level_batch(k, np.arange(k.n_iterations), st)
        assert np.allclose(st["Sx"], ref["Sx"])

    def test_default_run_level_batch_falls_back(self, lap2d_nd, rng):
        from repro.kernels import Kernel, SpTRSVCSR

        low = lap2d_nd.lower_triangle()
        k = SpTRSVCSR(low)
        st = allocate_state([k])
        st["Lx"][:] = low.data
        st["b"][:] = rng.random(low.n_rows)
        # the base-class default runs the iterations one by one, in order
        Kernel.run_level_batch(k, np.arange(k.n_iterations), st, None)
        assert np.allclose(np.tril(low.to_dense()) @ st["x"], st["b"])
