import numpy as np
import pytest

from whitevec import errors, linalg, whitening

FOUR_POINTS = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 2.0], [0.0, -2.0]])
SQRT2 = np.sqrt(2.0)


class TestMoments:
    def test_mean_midpoint(self):
        assert np.array_equal(
            whitening.compute_mean(np.array([[0.0, 0.0], [2.0, 0.0]])), [1.0, 0.0]
        )

    def test_mean_single_row(self):
        assert np.array_equal(
            whitening.compute_mean(np.array([[3.0, -1.0]])), [3.0, -1.0]
        )

    def test_mean_symmetry(self):
        assert np.array_equal(whitening.compute_mean(FOUR_POINTS), [0.0, 0.0])

    def test_mean_empty(self):
        with pytest.raises(errors.EmptyInput):
            whitening.compute_mean(np.empty((0, 3)))

    def test_covariance_four_points(self):
        cov = whitening.compute_covariance(FOUR_POINTS, np.zeros(2))
        assert np.allclose(cov, [[0.5, 0.0], [0.0, 2.0]], atol=1e-15)

    def test_covariance_singular(self):
        cov = whitening.compute_covariance(
            np.array([[0.0, 0.0], [2.0, 0.0]]), np.array([1.0, 0.0])
        )
        assert np.allclose(cov, [[1.0, 0.0], [0.0, 0.0]], atol=1e-15)

    def test_covariance_single_point(self):
        cov = whitening.compute_covariance(np.array([[5.0, -2.0]]), np.array([5.0, -2.0]))
        assert np.array_equal(cov, np.zeros((2, 2)))

    def test_covariance_dim_mismatch(self):
        with pytest.raises(errors.DimensionMismatch):
            whitening.compute_covariance(FOUR_POINTS, np.zeros(3))


class TestFit:
    def test_four_point_hand_solution(self):
        t = whitening.fit(FOUR_POINTS, k="full")
        assert np.array_equal(t.mean, [0.0, 0.0])
        expected = np.array([[0.0, SQRT2], [1 / SQRT2, 0.0]])
        assert np.allclose(t.matrix, expected, atol=1e-12)
        assert t.input_dim == 2 and t.output_dim == 2

    def test_isotropic_data_gives_orthogonal_w(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((4000, 6))
        t = whitening.fit(x, k="full")
        gram = t.matrix.T @ t.matrix
        # covariance ~ I so W is close to orthogonal
        assert np.max(np.abs(gram - np.eye(6))) < 0.2

    def test_rank_deficient_k_rejected(self):
        with pytest.raises(errors.RankDeficient) as exc:
            whitening.fit(np.array([[0.0, 0.0], [2.0, 0.0]]), k=2)
        assert exc.value.rank == 1

    def test_rank_deficient_full_is_rank(self):
        t = whitening.fit(np.array([[0.0, 0.0], [2.0, 0.0]]), k="full")
        assert t.output_dim == 1

    def test_needs_two_rows(self):
        with pytest.raises(errors.EmptyInput):
            whitening.fit(np.array([[1.0, 2.0]]), k=1)

    def test_k_out_of_range(self):
        with pytest.raises(errors.DimensionMismatch):
            whitening.fit(FOUR_POINTS, k=3)

    @pytest.mark.parametrize("eps", [-1.0, -1e-300, float("nan"), float("inf")])
    def test_invalid_eps_rejected(self, eps):
        rank2 = np.random.default_rng(0).standard_normal((50, 2)) @ np.ones((2, 3))
        with pytest.raises(errors.InvalidParameter):
            whitening.fit(rank2, k="full", eps=eps)

    def test_zero_eps_accepted(self):
        t = whitening.fit(np.array([[0.0, 0.0], [2.0, 0.0]]), k="full", eps=0.0)
        assert t.output_dim == 1 and t.eps == 0.0

    def test_nonfinite_matrix_rejected(self, monkeypatch):
        bad = linalg.EigenDecomposition(
            eigenvalues=np.array([1.0, 1.0]),
            eigenvectors=np.array([[np.nan, 0.0], [0.0, 1.0]]),
        )
        monkeypatch.setattr(linalg, "sym_eig", lambda cov: bad)
        with pytest.raises(errors.NonFinite):
            whitening.fit(FOUR_POINTS, k=2)

    def test_truncation_consistency_bit_exact(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((100, 10))
        full = whitening.fit(x, k="full")
        for k in (1, 4, 10):
            part = whitening.fit(x, k=k)
            assert np.array_equal(part.matrix, full.matrix[:, :k])
            assert np.array_equal(part.mean, full.mean)

    def test_translation_invariance(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((200, 5))
        shift = np.array([10.0, -3.0, 0.5, 100.0, -7.0])
        t1 = whitening.fit(x, k="full")
        t2 = whitening.fit(x + shift, k="full")
        assert np.max(np.abs(t1.matrix - t2.matrix)) <= 1e-10
        assert np.max(np.abs((t1.mean + shift) - t2.mean)) <= 1e-10

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((50, 8))
        t1 = whitening.fit(x.copy(), k=4)
        t2 = whitening.fit(x.copy(), k=4)
        assert np.array_equal(t1.matrix, t2.matrix)
        assert np.array_equal(t1.mean, t2.mean)


class TestApply:
    @pytest.fixture
    def transform(self):
        return whitening.fit(FOUR_POINTS, k="full")

    def test_hand_values(self, transform):
        out = whitening.apply(transform, np.array([1.0, 0.0]))
        assert np.allclose(out, [0.0, SQRT2], atol=1e-12)
        out = whitening.apply(transform, np.array([0.0, 2.0]))
        assert np.allclose(out, [SQRT2, 0.0], atol=1e-12)

    def test_mean_maps_to_zero(self, transform):
        assert np.array_equal(whitening.apply(transform, transform.mean), [0.0, 0.0])

    def test_batch_hand_values(self, transform):
        out = whitening.apply_batch(transform, FOUR_POINTS)
        expected = np.array(
            [[0, SQRT2], [0, -SQRT2], [SQRT2, 0], [-SQRT2, 0]], dtype=np.float64
        )
        assert np.allclose(out, expected, atol=1e-12)

    def test_batch_empty(self, transform):
        out = whitening.apply_batch(transform, np.empty((0, 2)))
        assert out.shape == (0, 2)

    def test_batch_matches_single_bit_exact(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((37, 9))
        t = whitening.fit(x, k=5)
        batch = whitening.apply_batch(t, x)
        for i in range(x.shape[0]):
            assert np.array_equal(batch[i], whitening.apply(t, x[i]))

    def test_dim_mismatch(self, transform):
        with pytest.raises(errors.DimensionMismatch):
            whitening.apply(transform, np.zeros(3))
        with pytest.raises(errors.DimensionMismatch):
            whitening.apply_batch(transform, np.zeros((2, 3)))


def test_whiteness_property():
    rng = np.random.default_rng(5)
    mix = rng.standard_normal((12, 12))
    x = rng.standard_normal((3000, 12)) @ mix + rng.standard_normal(12) * 5
    t = whitening.fit(x, k="full")
    y = whitening.apply_batch(t, x)
    assert np.max(np.abs(y.mean(axis=0))) <= 1e-8
    cov = whitening.compute_covariance(y, y.mean(axis=0))
    assert np.max(np.abs(cov - np.eye(t.output_dim))) <= 1e-6


def test_pca_equivalence_unit_variance_per_column():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((2000, 8)) * np.array([5, 4, 3, 2, 1, 0.5, 0.2, 0.1])
    t = whitening.fit(x, k=3)
    y = whitening.apply_batch(t, x)
    variances = (y**2).mean(axis=0) - y.mean(axis=0) ** 2
    assert np.allclose(variances, 1.0, atol=1e-8)
