"""Unit tests for the CSR matrix type."""

import numpy as np
import pytest

from repro.sparse import CSRMatrix, laplacian_2d


def dense_fixture():
    return np.array(
        [
            [4.0, 0.0, -1.0, 0.0],
            [0.0, 3.0, 0.0, 0.0],
            [-1.0, 0.0, 5.0, -2.0],
            [0.0, 0.0, -2.0, 6.0],
        ]
    )


class TestConstruction:
    def test_from_dense_roundtrip(self):
        d = dense_fixture()
        a = CSRMatrix.from_dense(d)
        assert a.shape == (4, 4)
        assert a.nnz == 8
        assert np.allclose(a.to_dense(), d)

    def test_from_coo_sums_duplicates(self):
        a = CSRMatrix.from_coo(2, 2, [0, 0, 1], [1, 1, 0], [1.0, 2.0, 5.0])
        assert a.nnz == 2
        assert a.to_dense()[0, 1] == 3.0

    def test_from_scipy(self):
        import scipy.sparse as sp

        m = sp.random(10, 7, density=0.3, random_state=0, format="coo")
        a = CSRMatrix.from_scipy(m)
        assert np.allclose(a.to_dense(), m.toarray())

    def test_identity(self):
        eye = CSRMatrix.identity(5)
        assert np.allclose(eye.to_dense(), np.eye(5))

    def test_rejects_unsorted_indices(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            CSRMatrix(1, 3, [0, 2], [2, 0], [1.0, 1.0])

    def test_rejects_duplicate_indices(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            CSRMatrix(1, 3, [0, 2], [1, 1], [1.0, 1.0])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            CSRMatrix(1, 2, [0, 1], [5], [1.0])

    def test_rejects_bad_indptr(self):
        with pytest.raises(ValueError):
            CSRMatrix(2, 2, [0, 2], [0, 1], [1.0, 1.0])  # wrong length
        with pytest.raises(ValueError):
            CSRMatrix(2, 2, [1, 1, 2], [0, 1], [1.0, 1.0])  # indptr[0] != 0
        with pytest.raises(ValueError):
            CSRMatrix(2, 2, [0, 2, 1], [0, 1], [1.0, 1.0])  # decreasing

    def test_rejects_complex_values(self):
        with pytest.raises(TypeError, match="real"):
            CSRMatrix(1, 1, [0, 1], [0], [1.0 + 2j])

    def test_rejects_fractional_indices(self):
        with pytest.raises(TypeError, match="integral"):
            CSRMatrix(1, 2, [0, 1], [0.5], [1.0])

    def test_empty_matrix(self):
        a = CSRMatrix(0, 0, [0], [], [])
        assert a.nnz == 0
        assert a.to_dense().shape == (0, 0)

    def test_empty_rows(self):
        a = CSRMatrix(3, 3, [0, 0, 1, 1], [2], [7.0])
        assert a.row(0)[0].shape == (0,)
        assert a.row(1)[0].tolist() == [2]


class TestConversions:
    def test_csc_roundtrip(self, lap2d_small):
        a = lap2d_small
        assert np.allclose(a.to_csc().to_csr().to_dense(), a.to_dense())

    def test_transpose(self):
        d = np.triu(np.arange(1.0, 17.0).reshape(4, 4))
        a = CSRMatrix.from_dense(d)
        assert np.allclose(a.transpose().to_dense(), d.T)

    def test_transpose_involution(self, lap2d_small):
        a = lap2d_small
        assert a.transpose().transpose().allclose(a)

    def test_copy_is_deep(self):
        a = CSRMatrix.from_dense(dense_fixture())
        b = a.copy()
        b.data[0] = 99.0
        assert a.data[0] != 99.0

    def test_to_scipy_matches(self, lap2d_small):
        assert np.allclose(
            lap2d_small.to_scipy().toarray(), lap2d_small.to_dense()
        )


class TestStructure:
    def test_diagonal(self):
        a = CSRMatrix.from_dense(dense_fixture())
        assert np.allclose(a.diagonal(), [4, 3, 5, 6])

    def test_diagonal_positions(self):
        a = CSRMatrix.from_dense(dense_fixture())
        pos = a.diagonal_positions()
        assert np.allclose(a.data[pos], [4, 3, 5, 6])

    def test_diagonal_positions_missing_raises(self):
        a = CSRMatrix.from_dense(np.array([[0.0, 1.0], [1.0, 1.0]]))
        with pytest.raises(ValueError, match="no stored diagonal"):
            a.diagonal_positions()

    def test_diagonal_positions_names_first_missing_row(self):
        dense = np.eye(8) * 2.0 + np.eye(8, k=1)
        dense[3, 3] = 0.0
        dense[6, 6] = 0.0
        a = CSRMatrix.from_dense(dense)
        with pytest.raises(ValueError, match=r"^row 3 has no stored diagonal"):
            a.diagonal_positions()

    def test_diagonal_zero_where_absent(self):
        dense = np.eye(6) * 2.0 + np.eye(6, k=-1)
        dense[3, 3] = 0.0
        a = CSRMatrix.from_dense(dense)
        assert np.array_equal(a.diagonal(), [2, 2, 2, 0, 2, 2])
        wide = CSRMatrix.from_dense(np.array([[1.0, 0.0, 5.0], [0.0, 0.0, 7.0]]))
        assert np.array_equal(wide.diagonal(), [1, 0])

    def test_diagonal_positions_match_per_row_search(self, lap2d_nd):
        pos = lap2d_nd.diagonal_positions()
        assert pos.dtype == np.int64
        for i in range(lap2d_nd.n_rows):
            lo, hi = lap2d_nd.indptr[i], lap2d_nd.indptr[i + 1]
            assert pos[i] == lo + np.searchsorted(lap2d_nd.indices[lo:hi], i)

    def test_triangles_partition_matrix(self, lap2d_small):
        a = lap2d_small
        low = a.lower_triangle(strict=True).to_dense()
        up = a.upper_triangle().to_dense()
        assert np.allclose(low + up, a.to_dense())

    def test_lower_triangle_flags(self, lap2d_small):
        low = lap2d_small.lower_triangle()
        assert low.is_lower_triangular()
        assert not lap2d_small.is_lower_triangular()

    def test_strict_triangle_excludes_diagonal(self):
        a = CSRMatrix.from_dense(dense_fixture())
        assert np.allclose(np.diag(a.lower_triangle(strict=True).to_dense()), 0)

    def test_row_nnz(self):
        a = CSRMatrix.from_dense(dense_fixture())
        assert a.row_nnz().tolist() == [2, 1, 3, 2]


class TestNumerics:
    def test_matvec_matches_dense(self, lap2d_small, rng):
        x = rng.random(lap2d_small.n_cols)
        assert np.allclose(lap2d_small.matvec(x), lap2d_small.to_dense() @ x)

    def test_matvec_empty_rows_are_zero(self):
        a = CSRMatrix(3, 3, [0, 0, 1, 1], [2], [7.0])
        y = a.matvec(np.ones(3))
        assert y.tolist() == [0.0, 7.0, 0.0]

    def test_matvec_bitwise_equal_to_scipy(self, rng):
        """``matvec`` is bitwise the ``scipy.sparse`` product, empty rows
        and values over twelve decades included, on every call."""
        import scipy.sparse as sp

        for seed in range(40):
            n, m = int(rng.integers(0, 40)), int(rng.integers(1, 40))
            a = CSRMatrix.from_scipy(
                sp.random(n, m, density=rng.uniform(0, 0.7), random_state=seed)
            )
            a.data *= 10.0 ** rng.uniform(-6, 6, a.nnz)
            x = rng.standard_normal(m)
            ref = sp.csr_array((a.data, a.indices, a.indptr), shape=a.shape) @ x
            for _ in range(2):
                assert a.matvec(x).tobytes() == ref.tobytes()

    def test_matvec_shape_check(self):
        a = CSRMatrix.from_dense(dense_fixture())
        with pytest.raises(ValueError, match="shape"):
            a.matvec(np.ones(3))

    def test_matmul_operator(self, rng):
        a = CSRMatrix.from_dense(dense_fixture())
        x = rng.random(4)
        assert np.allclose(a @ x, a.matvec(x))

    def test_allclose_and_structure(self):
        a = CSRMatrix.from_dense(dense_fixture())
        b = a.copy()
        assert a.allclose(b)
        b.data[0] += 1e-3
        assert a.equal_structure(b)
        assert not a.allclose(b)
