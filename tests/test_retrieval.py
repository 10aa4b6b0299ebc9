import numpy as np
import pytest

from whitevec import errors, retrieval


def full_sort_oracle(index, query, k):
    """Naive oracle: score everything, sort by (-score, id), take k."""
    q = np.asarray(query, dtype=np.float64)
    q32 = (q / np.linalg.norm(q)).astype(np.float32)
    scores = np.clip(index.vectors @ q32, -1.0, 1.0)
    ranked = sorted(zip(index.ids.tolist(), scores.tolist()), key=lambda p: (-p[1], p[0]))
    return [(int(i), float(s)) for i, s in ranked[:k]]


class TestBuildIndex:
    def test_normalizes(self):
        idx = retrieval.build_index(np.array([[3.0, 4.0]]))
        assert np.allclose(idx.vectors[0], [0.6, 0.8], atol=1e-7)

    def test_zero_rows_dropped(self):
        idx = retrieval.build_index(np.array([[0.0, 0.0], [1.0, 0.0]]))
        assert idx.size == 1
        assert idx.norms_dropped == 1
        assert idx.ids.tolist() == [1]

    def test_unit_rows_unchanged_to_storage_precision(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((20, 16))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        idx = retrieval.build_index(x)
        # stored as float32, so agreement is at single precision
        assert np.max(np.abs(idx.vectors - x.astype(np.float32))) <= 1e-6

    def test_row_norms_unit(self):
        rng = np.random.default_rng(1)
        idx = retrieval.build_index(rng.standard_normal((50, 24)) * 100)
        norms = np.linalg.norm(idx.vectors.astype(np.float64), axis=1)
        assert np.max(np.abs(norms - 1.0)) <= 1e-6

    def test_empty_rejected(self):
        with pytest.raises(errors.EmptyInput):
            retrieval.build_index(np.empty((0, 4)))


class TestTopK:
    @pytest.fixture
    def two_axis_index(self):
        return retrieval.build_index(np.array([[1.0, 0.0], [0.0, 1.0]]))

    def test_exact_match(self, two_axis_index):
        assert retrieval.top_k(two_axis_index, np.array([1.0, 0.0]), 1) == [(0, 1.0)]

    def test_tie_broken_by_id(self, two_axis_index):
        results = retrieval.top_k(two_axis_index, np.array([1.0, 1.0]), 2)
        assert [i for i, _ in results] == [0, 1]
        for _, score in results:
            assert score == pytest.approx(1 / np.sqrt(2), abs=1e-6)

    def test_k_clamped_to_size(self, two_axis_index):
        assert len(retrieval.top_k(two_axis_index, np.array([1.0, 2.0]), 99)) == 2

    def test_zero_query(self, two_axis_index):
        with pytest.raises(errors.ZeroVector):
            retrieval.top_k(two_axis_index, np.zeros(2), 1)

    def test_dim_mismatch(self, two_axis_index):
        with pytest.raises(errors.DimensionMismatch):
            retrieval.top_k(two_axis_index, np.ones(3), 1)

    def test_matches_full_sort_oracle(self):
        rng = np.random.default_rng(2)
        data = rng.standard_normal((200, 12))
        data[17] = 0.0  # exercise dropped-id bookkeeping
        idx = retrieval.build_index(data)
        for _ in range(25):
            q = rng.standard_normal(12)
            k = int(rng.integers(1, 30))
            assert retrieval.top_k(idx, q, k) == full_sort_oracle(idx, q, k)

    def test_oracle_with_duplicate_vectors(self):
        # duplicates force score ties across many ids
        base = np.array([[1.0, 0.0], [0.0, 1.0]])
        data = np.repeat(base, 5, axis=0)
        idx = retrieval.build_index(data)
        q = np.array([1.0, 1.0])
        assert retrieval.top_k(idx, q, 7) == full_sort_oracle(idx, q, 7)

    def test_scores_in_range_and_deterministic(self):
        rng = np.random.default_rng(3)
        idx = retrieval.build_index(rng.standard_normal((100, 32)) * 50)
        q = rng.standard_normal(32)
        first = retrieval.top_k(idx, q, 10)
        for _, score in first:
            assert -1.0 <= score <= 1.0
        assert retrieval.top_k(idx, q, 10) == first


class TestBenchmark:
    def test_storage_accounting(self):
        rng = np.random.default_rng(4)
        idx = retrieval.build_index(rng.standard_normal((30, 768)))
        rep = retrieval.benchmark(idx, rng.standard_normal((4, 768)), 5, repetitions=3)
        assert rep.bytes_per_vector == 3072
        assert rep.total_index_bytes == 30 * 3072
        assert rep.queries_per_second > 0
        assert rep.dim == 768 and rep.n_vectors == 30

    def test_bytes_for_256(self):
        rng = np.random.default_rng(5)
        idx = retrieval.build_index(rng.standard_normal((10, 256)))
        rep = retrieval.benchmark(idx, rng.standard_normal((3, 256)), 2, repetitions=3)
        assert rep.bytes_per_vector == 1024

    def test_min_repetitions(self):
        rng = np.random.default_rng(6)
        idx = retrieval.build_index(rng.standard_normal((10, 4)))
        with pytest.raises(errors.EmptyInput):
            retrieval.benchmark(idx, rng.standard_normal((2, 4)), 1, repetitions=2)
