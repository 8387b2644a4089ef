"""Vectorized batch paths of the dependence-free kernels: their
``run_level_batch`` over a whole loop (one compiled-plan ``level`` step)
and the array helpers behind them."""

import numpy as np

from repro.kernels import DScalCSR, SpMVCSC, SpMVCSR
from repro.runtime import allocate_state
from repro.utils import multi_range, segment_boundaries_split, segment_sums_at


def segment_sums(values, counts):
    """Segment sums as a one-step plan computes them."""
    (reduce_starts, nonempty), = segment_boundaries_split(counts, [len(counts)])
    return segment_sums_at(values, len(counts), reduce_starts, nonempty)


def level_batch(kernel, iters, state):
    """``run_level_batch`` on *iters* as one step, with its precomputation."""
    precomp = kernel.precompute_levels(iters, [len(iters)])[0]
    kernel.run_level_batch(iters, state, precomp)


class TestArrayHelpers:
    def test_multi_range_basic(self):
        out = multi_range(np.array([0, 10, 20]), np.array([2, 0, 3]))
        assert out.tolist() == [0, 1, 20, 21, 22]

    def test_multi_range_empty(self):
        assert multi_range(np.array([5]), np.array([0])).shape == (0,)

    def test_segment_sums_basic(self):
        out = segment_sums(np.array([1.0, 2.0, 3.0, 4.0]), np.array([2, 2]))
        assert out.tolist() == [3.0, 7.0]

    def test_segment_sums_empty_segments(self):
        out = segment_sums(
            np.array([1.0, 2.0, 3.0]), np.array([0, 2, 0, 1, 0])
        )
        assert out.tolist() == [0.0, 3.0, 0.0, 3.0, 0.0]

    def test_segment_sums_trailing_empty_regression(self):
        """The reduceat clipping bug: a trailing empty segment must not
        steal the final element of the preceding segment."""
        out = segment_sums(np.array([1.0, 2.0]), np.array([2, 0]))
        assert out.tolist() == [3.0, 0.0]

    def test_segment_sums_all_empty(self):
        assert segment_sums(np.empty(0), np.array([0, 0])).tolist() == [0, 0]

    def test_segment_sums_split_into_groups(self):
        """Each group's plan counts its reduce starts from the group's own
        first value, whatever the groups before it hold."""
        values = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        counts = np.array([2, 0, 1, 0, 0, 3, 0])
        sizes = [3, 2, 2]
        plans = segment_boundaries_split(counts, sizes)
        ends = np.cumsum(sizes).tolist()
        vends = np.cumsum([3, 0, 3]).tolist()
        got = [
            segment_sums_at(values[va:vb], b - a, rs, ne).tolist()
            for (rs, ne), a, b, va, vb in zip(
                plans, [0, *ends[:-1]], ends, [0, *vends[:-1]], vends
            )
        ]
        assert got == [[3.0, 0.0, 3.0], [0.0, 0.0], [15.0, 0.0]]


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
        that surfaced the segment_sums bug via Gauss-Seidel."""
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
