"""SpTRSV kernel tests (CSR, CSC, from-LU variants)."""

import numpy as np
import pytest

from repro.kernels import SpTRSVCSC, SpTRSVCSR, SpTRSVCSRFromLU
from repro.runtime import allocate_state
from repro.sparse import CSRMatrix, ilu0_csr, random_lower_triangular


def run_all(kernel, state):
    kernel.setup(state)
    scratch = kernel.make_scratch()
    for i in range(kernel.n_iterations):
        kernel.run_iteration(i, state, scratch)
    return state


@pytest.fixture
def low(lap2d_nd):
    return lap2d_nd.lower_triangle()


class TestCSR:
    def test_solves_system(self, low, rng):
        k = SpTRSVCSR(low)
        st = allocate_state([k])
        st["Lx"][:] = low.data
        st["b"][:] = rng.random(low.n_rows)
        run_all(k, st)
        assert np.allclose(np.tril(low.to_dense()) @ st["x"], st["b"])

    def test_reference_matches_iteration(self, low, rng):
        k = SpTRSVCSR(low)
        st = allocate_state([k])
        st["Lx"][:] = low.data
        st["b"][:] = rng.random(low.n_rows)
        ref = {v: a.copy() for v, a in st.items()}
        run_all(k, st)
        k.run_reference(ref)
        assert np.allclose(st["x"], ref["x"])

    def test_rejects_non_lower(self, lap2d_nd):
        with pytest.raises(ValueError, match="lower-triangular"):
            SpTRSVCSR(lap2d_nd)

    def test_rejects_missing_diagonal(self):
        mat = CSRMatrix.from_dense(
            np.array([[1.0, 0.0], [1.0, 0.0]])
        )
        with pytest.raises(ValueError, match="diagonal"):
            SpTRSVCSR(mat)

    def test_dag_matches_pattern(self, low):
        g = SpTRSVCSR(low).intra_dag()
        assert g.n_edges == low.nnz - low.n_rows

    def test_any_topological_execution_order_works(self, low, rng):
        """Executing iterations in any topo order gives the same answer —
        the property every scheduler relies on."""
        k = SpTRSVCSR(low)
        st = allocate_state([k])
        st["Lx"][:] = low.data
        st["b"][:] = rng.random(low.n_rows)
        expected = {v: a.copy() for v, a in st.items()}
        k.run_reference(expected)
        # reversed-wavefront order within levels
        g = k.intra_dag()
        order = []
        for wf in g.wavefronts():
            order.extend(reversed(wf.tolist()))
        scratch = k.make_scratch()
        for i in order:
            k.run_iteration(i, st, scratch)
        assert np.allclose(st["x"], expected["x"])

    def test_costs_and_flops(self, low):
        k = SpTRSVCSR(low)
        assert np.array_equal(k.iteration_costs(), low.row_nnz().astype(float))
        assert k.flop_count() == 2 * (low.nnz - low.n_rows) + low.n_rows


class TestCSC:
    def test_matches_csr_solution(self, low, rng):
        b = rng.random(low.n_rows)
        k_csr = SpTRSVCSR(low)
        st1 = allocate_state([k_csr])
        st1["Lx"][:] = low.data
        st1["b"][:] = b
        run_all(k_csr, st1)

        lc = low.to_csc()
        k_csc = SpTRSVCSC(lc)
        st2 = allocate_state([k_csc])
        st2["Lx"][:] = lc.data
        st2["b"][:] = b
        run_all(k_csc, st2)
        assert np.allclose(st1["x"], st2["x"])

    def test_accumulator_is_internal(self, low):
        k = SpTRSVCSC(low.to_csc())
        assert k.acc_var.startswith("_")
        assert k.acc_var in k.var_sizes()

    def test_setup_zeroes_accumulator(self, low):
        k = SpTRSVCSC(low.to_csc())
        st = allocate_state([k])
        st[k.acc_var][:] = 99.0
        k.setup(st)
        assert np.all(st[k.acc_var] == 0.0)

    def test_is_atomic_kernel(self, low):
        # the scatter into the accumulator commutes; its read does not
        k = SpTRSVCSC(low.to_csc())
        assert k.atomic_update_vars == {k.acc_var: ("write",)}

    def test_rejects_missing_diagonal(self):
        mat = CSRMatrix.from_dense(np.array([[0.0, 0.0], [1.0, 1.0]])).to_csc()
        with pytest.raises(ValueError, match="diagonal"):
            SpTRSVCSC(mat)


class TestFromLU:
    def test_solves_unit_lower_system(self, lap2d_nd, rng):
        lu = ilu0_csr(lap2d_nd)
        k = SpTRSVCSRFromLU(lap2d_nd)
        st = allocate_state([k])
        st["LUx"][:] = lu.data
        st["b"][:] = rng.random(lap2d_nd.n_rows)
        run_all(k, st)
        l_dense = np.tril(lu.to_dense(), k=-1) + np.eye(lap2d_nd.n_rows)
        assert np.allclose(l_dense @ st["x"], st["b"])

    def test_reference_matches(self, lap2d_nd, rng):
        lu = ilu0_csr(lap2d_nd)
        k = SpTRSVCSRFromLU(lap2d_nd)
        st = allocate_state([k])
        st["LUx"][:] = lu.data
        st["b"][:] = rng.random(lap2d_nd.n_rows)
        ref = {v: a.copy() for v, a in st.items()}
        run_all(k, st)
        k.run_reference(ref)
        assert np.allclose(st["x"], ref["x"])

    def test_dag_is_strict_lower_pattern(self, lap2d_nd):
        k = SpTRSVCSRFromLU(lap2d_nd)
        low = lap2d_nd.lower_triangle()
        assert k.intra_dag().n_edges == low.nnz - low.n_rows


@pytest.mark.parametrize("seed", [0, 3, 8])
def test_random_lower_matrices(seed):
    low = random_lower_triangular(80, 4.0, seed=seed)
    rng = np.random.default_rng(seed)
    k = SpTRSVCSR(low)
    st = allocate_state([k])
    st["Lx"][:] = low.data
    st["b"][:] = rng.random(80)
    run_all(k, st)
    assert np.allclose(low.to_dense() @ st["x"], st["b"], atol=1e-8)
