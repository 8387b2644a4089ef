"""Unit tests for the CSC matrix type."""

import numpy as np
import pytest

from repro.sparse import CSCMatrix, CSRMatrix, laplacian_2d


def dense_fixture():
    return np.array(
        [
            [2.0, 0.0, 1.0],
            [-1.0, 3.0, 0.0],
            [0.0, -1.0, 4.0],
        ]
    )


class TestConstruction:
    def test_from_dense(self):
        d = dense_fixture()
        a = CSCMatrix.from_dense(d)
        assert a.shape == (3, 3)
        assert np.allclose(a.to_dense(), d)

    def test_col_access(self):
        a = CSCMatrix.from_dense(dense_fixture())
        rows, vals = a.col(0)
        assert rows.tolist() == [0, 1]
        assert vals.tolist() == [2.0, -1.0]

    def test_col_nnz(self):
        a = CSCMatrix.from_dense(dense_fixture())
        assert a.col_nnz().tolist() == [2, 2, 2]

    def test_identity(self):
        assert np.allclose(CSCMatrix.identity(4).to_dense(), np.eye(4))

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            CSCMatrix(3, 1, [0, 2], [2, 0], [1.0, 1.0])

    def test_from_scipy(self):
        import scipy.sparse as sp

        m = sp.random(8, 6, density=0.3, random_state=1)
        a = CSCMatrix.from_scipy(m)
        assert np.allclose(a.to_dense(), m.toarray())


class TestConversions:
    def test_csr_roundtrip(self):
        a = CSCMatrix.from_dense(dense_fixture())
        assert np.allclose(a.to_csr().to_csc().to_dense(), a.to_dense())

    def test_transpose(self):
        d = dense_fixture()
        a = CSCMatrix.from_dense(d)
        assert np.allclose(a.transpose().to_dense(), d.T)

    def test_copy_is_deep(self):
        a = CSCMatrix.from_dense(dense_fixture())
        b = a.copy()
        b.data[0] = 42.0
        assert a.data[0] != 42.0


class TestStructure:
    def test_diagonal(self):
        a = CSCMatrix.from_dense(dense_fixture())
        assert np.allclose(a.diagonal(), [2, 3, 4])

    def test_diagonal_positions_lower(self, lap2d_small):
        low = lap2d_small.lower_triangle().to_csc()
        pos = low.diagonal_positions()
        # sorted lower CSC: diagonal leads every column
        assert np.array_equal(pos, low.indptr[:-1])

    def test_diagonal_positions_names_first_missing_column(self):
        dense = np.eye(8) * 2.0 + np.eye(8, k=-1)
        dense[5, 5] = 0.0
        a = CSCMatrix.from_dense(dense)
        with pytest.raises(ValueError, match=r"^column 5 has no stored diagonal"):
            a.diagonal_positions()

    def test_diagonal_positions_general_pattern(self):
        dense = np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [1.0, 0.0, 4.0]])
        a = CSCMatrix.from_dense(dense)
        assert np.array_equal(a.data[a.diagonal_positions()], [2, 3, 4])

    def test_diagonal_zero_where_absent(self):
        dense = np.eye(7) * 3.0 + np.eye(7, k=1)
        dense[5, 5] = 0.0
        a = CSCMatrix.from_dense(dense)
        assert np.array_equal(a.diagonal(), [3, 3, 3, 3, 3, 0, 3])
        tall = CSCMatrix.from_dense(np.array([[1.0, 0.0], [0.0, 0.0], [4.0, 2.0]]))
        assert np.array_equal(tall.diagonal(), [1, 0])

    def test_lower_triangle(self, lap2d_small):
        lowc = lap2d_small.to_csc().lower_triangle()
        assert lowc.is_lower_triangular()
        assert np.allclose(lowc.to_dense(), np.tril(lap2d_small.to_dense()))

    def test_upper_triangle_strict(self):
        a = CSCMatrix.from_dense(dense_fixture())
        up = a.upper_triangle(strict=True).to_dense()
        assert np.allclose(up, np.triu(dense_fixture(), k=1))

    def test_is_lower_triangular_false_for_full(self):
        assert not CSCMatrix.from_dense(dense_fixture()).is_lower_triangular()


class TestNumerics:
    def test_matvec(self, rng):
        a = CSCMatrix.from_dense(dense_fixture())
        x = rng.random(3)
        assert np.allclose(a.matvec(x), dense_fixture() @ x)

    def test_matvec_agrees_with_csr(self, lap2d_small, rng):
        x = rng.random(lap2d_small.n_cols)
        assert np.allclose(
            lap2d_small.to_csc().matvec(x), lap2d_small.matvec(x)
        )

    def test_allclose(self):
        a = CSCMatrix.from_dense(dense_fixture())
        b = a.copy()
        assert a.allclose(b)
        b.data[1] *= 2
        assert not a.allclose(b)
