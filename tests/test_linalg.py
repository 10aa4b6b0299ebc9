import numpy as np
import pytest

from whitevec import errors, linalg


def char_poly_roots(a):
    """Oracle: eigenvalues as roots of the characteristic polynomial."""
    a = np.asarray(a, dtype=np.float64)
    d = a.shape[0]
    if d == 2:
        tr = a[0, 0] + a[1, 1]
        det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
        coeffs = [1.0, -tr, det]
    elif d == 3:
        c2 = -np.trace(a)
        c1 = 0.5 * (np.trace(a) ** 2 - np.trace(a @ a))
        c0 = -np.linalg.det(a)
        coeffs = [1.0, c2, c1, c0]
    else:
        raise ValueError("oracle only covers 2x2 and 3x3")
    roots = np.roots(coeffs)
    return np.sort(roots.real)[::-1]


class TestSymEig:
    def test_identity(self):
        e = linalg.sym_eig(np.eye(3))
        assert np.allclose(e.eigenvalues, [1, 1, 1])
        assert np.allclose(e.eigenvectors @ e.eigenvectors.T, np.eye(3), atol=1e-10)

    def test_2x2_closed_form(self):
        e = linalg.sym_eig(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert np.allclose(e.eigenvalues, [3.0, 1.0], atol=1e-12)
        s = 1 / np.sqrt(2)
        assert np.allclose(np.abs(e.eigenvectors[:, 0]), [s, s], atol=1e-12)
        assert np.allclose(np.abs(e.eigenvectors[:, 1]), [s, s], atol=1e-12)
        # columns orthogonal
        assert abs(np.dot(e.eigenvectors[:, 0], e.eigenvectors[:, 1])) < 1e-12

    def test_diagonal_reordered_descending(self):
        e = linalg.sym_eig(np.array([[0.5, 0.0], [0.0, 2.0]]))
        assert np.allclose(e.eigenvalues, [2.0, 0.5])
        assert np.allclose(e.eigenvectors[:, 0], [0, 1])
        assert np.allclose(e.eigenvectors[:, 1], [1, 0])

    def test_nonfinite_rejected(self):
        with pytest.raises(errors.NonFinite):
            linalg.sym_eig(np.array([[1.0, np.nan], [np.nan, 1.0]]))
        with pytest.raises(errors.NonFinite):
            linalg.sym_eig(np.array([[np.inf, 0.0], [0.0, 1.0]]))

    def test_constructor_symmetrizes(self):
        a = np.array([[1.0, 2.0], [0.0, 1.0]])
        e = linalg.sym_eig(a)
        ref = linalg.sym_eig((a + a.T) / 2)
        assert np.array_equal(e.eigenvalues, ref.eigenvalues)

    @pytest.mark.parametrize("d", [2, 3])
    def test_matches_char_poly_oracle(self, d):
        rng = np.random.default_rng(7)
        for _ in range(200):
            a = rng.standard_normal((d, d))
            a = (a + a.T) / 2
            e = linalg.sym_eig(a)
            assert np.allclose(e.eigenvalues, char_poly_roots(a), atol=1e-10)

    @pytest.mark.parametrize("d", [1, 4, 16, 64])
    def test_reconstruction_and_orthonormality(self, d):
        rng = np.random.default_rng(d)
        a = rng.standard_normal((d, d))
        a = (a + a.T) / 2
        e = linalg.sym_eig(a)
        gram = e.eigenvectors.T @ e.eigenvectors
        assert np.max(np.abs(gram - np.eye(d))) <= 1e-10
        rec = e.eigenvectors @ np.diag(e.eigenvalues) @ e.eigenvectors.T
        assert np.max(np.abs(rec - a)) <= 1e-8 * (1 + np.max(np.abs(a)))
        assert np.all(np.diff(e.eigenvalues) <= 0)

    def test_psd_negatives_clamped(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((5, 12))  # rank-5 PSD 12x12
        a = x.T @ x
        e = linalg.sym_eig(a)
        assert np.all(e.eigenvalues >= 0)

    def test_sign_convention(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((8, 8))
        a = (a + a.T) / 2
        e = linalg.sym_eig(a)
        for j in range(8):
            col = e.eigenvectors[:, j]
            assert col[np.argmax(np.abs(col))] >= 0

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((10, 10))
        a = (a + a.T) / 2
        e1 = linalg.sym_eig(a.copy())
        e2 = linalg.sym_eig(a.copy())
        assert np.array_equal(e1.eigenvalues, e2.eigenvalues)
        assert np.array_equal(e1.eigenvectors, e2.eigenvectors)

    def test_zero_matrix(self):
        e = linalg.sym_eig(np.zeros((4, 4)))
        assert np.array_equal(e.eigenvalues, np.zeros(4))

    def test_lapack_failure_is_no_convergence(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(errors.NoConvergence):
            linalg.sym_eig(np.eye(3))

    def test_outputs_read_only(self):
        e = linalg.sym_eig(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert not e.eigenvalues.flags.writeable
        assert not e.eigenvectors.flags.writeable


def test_symmetrize_non_square_is_dimension_mismatch():
    with pytest.raises(errors.DimensionMismatch):
        linalg.symmetrize(np.zeros((2, 3)))
    with pytest.raises(errors.DimensionMismatch):
        linalg.sym_eig(np.zeros(4))


class TestInvSqrtDiag:
    def test_perfect_squares(self):
        vals, rank = linalg.inv_sqrt_diag(np.array([4.0, 1.0]), 1e-12)
        assert np.array_equal(vals, [0.5, 1.0])
        assert rank == 2

    def test_hand_arithmetic(self):
        vals, rank = linalg.inv_sqrt_diag(np.array([2.0, 0.5]), 1e-12)
        assert np.allclose(vals, [1 / np.sqrt(2), np.sqrt(2)], atol=1e-15)
        assert rank == 2

    def test_zero_dropped(self):
        vals, rank = linalg.inv_sqrt_diag(np.array([1.0, 0.0]), 1e-12)
        assert np.array_equal(vals, [1.0])
        assert rank == 1
