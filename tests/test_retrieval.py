import time

import numpy as np
import pytest

from whitevec import errors, retrieval, whitening


def gemv_top_k(index, query, k_results):
    """The per-query GEMV top_k this module had before top_k_batch, kept as
    the bit-exact reference for top_k."""
    query = np.asarray(query, dtype=np.float64)
    q32 = (query / float(np.linalg.norm(query))).astype(np.float32)
    scores = index.vectors @ q32
    np.clip(scores, -1.0, 1.0, out=scores)
    k = min(k_results, index.size)
    if k < index.size:
        part = np.argpartition(-scores, k - 1)[:k]
        threshold = scores[part].min()
        candidates = np.flatnonzero(scores >= threshold)
    else:
        candidates = np.arange(index.size)
    order = np.lexsort((index.ids[candidates], -scores[candidates]))
    chosen = candidates[order[:k]]
    return [(int(index.ids[i]), float(scores[i])) for i in chosen]


def whole_matrix_build_index(data):
    """build_index's whole-matrix normalization before it was chunked."""
    norms = np.linalg.norm(data, axis=1)
    keep = norms >= retrieval.ZERO_NORM
    return (data[keep] / norms[keep, np.newaxis]).astype(np.float32), np.flatnonzero(keep)


def batch_oracle(index, queries, k):
    """Full sort of the same GEMM score blocks top_k_batch computes."""
    q = np.asarray(queries, dtype=np.float64)
    unit = (q / np.sqrt(np.vecdot(q, q))[:, np.newaxis]).astype(np.float32)
    out = []
    for start in range(0, unit.shape[0], retrieval.QUERY_TILE):
        block = np.clip(index.vectors @ unit[start : start + retrieval.QUERY_TILE].T, -1.0, 1.0)
        for col in block.T:
            ranked = sorted(zip(index.ids.tolist(), col.tolist()), key=lambda p: (-p[1], p[0]))
            out.append([(int(i), float(s)) for i, s in ranked[:k]])
    return out


def clustered_index(rng, n, d, zero_rows=5):
    """Rows around a few centres, with duplicate groups larger than most k
    and some all-zero rows that build_index drops."""
    data = rng.standard_normal((8, d))[rng.integers(0, 8, n)] + 0.3 * rng.standard_normal((n, d))
    for size in (2, 5, 12, 40):
        rows = rng.choice(n, size, replace=False)
        data[rows] = data[rows[0]]
    data[rng.choice(n, zero_rows, replace=False)] = 0.0
    return data


def full_sort_oracle(index, query, k):
    """Naive oracle: score everything, sort by (-score, id), take k."""
    q = np.asarray(query, dtype=np.float64)
    q32 = (q / np.linalg.norm(q)).astype(np.float32)
    scores = np.clip(index.vectors @ q32, -1.0, 1.0)
    ranked = sorted(zip(index.ids.tolist(), scores.tolist()), key=lambda p: (-p[1], p[0]))
    return [(int(i), float(s)) for i, s in ranked[:k]]


class TestRowNorms:
    def test_norms_and_zero_cutoff(self):
        rows = np.array([[3.0, 4.0], [0.0, 0.0], [1e-31, 0.0], [1e-30, 0.0]])
        norms, nonzero = retrieval.row_norms(rows)
        assert np.array_equal(norms, [5.0, 0.0, 1e-31, 1e-30])
        assert nonzero.tolist() == [True, False, False, True]

    def test_matches_vecdot_bit_for_bit(self):
        rows = np.random.default_rng(3).standard_normal((50, 33)) * 7.0
        norms, _ = retrieval.row_norms(rows)
        assert np.array_equal(norms, [np.sqrt(np.dot(r, r)) for r in rows])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e200])
    def test_nonfinite_or_overflowing_rows_rejected(self, bad):
        rows = np.ones((3, 4))
        rows[2, 1] = bad
        with pytest.raises(errors.NonFinite, match="overflows float64"):
            retrieval.row_norms(rows)


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

    @pytest.mark.parametrize("n", [1, whitening.BLOCK_ROWS + 7])
    def test_chunked_matches_whole_matrix_bit_exact(self, n):
        rng = np.random.default_rng(7)
        data = rng.standard_normal((n, 24)) * rng.uniform(1e-3, 1e3, (n, 1))
        data[rng.choice(n, n // 3, replace=False)] = 0.0
        idx = retrieval.build_index(data)
        vectors, ids = whole_matrix_build_index(data)
        assert idx.vectors.dtype == np.float32
        assert np.array_equal(idx.vectors, vectors)
        assert np.array_equal(idx.ids, ids)
        assert idx.norms_dropped == n - ids.size

    def test_blocks_match_whole_matrix_bit_exact(self):
        """Uneven blocks, an empty one, and zero rows on both sides of an edge."""
        rng = np.random.default_rng(12)
        n, d = 700, 16
        data = rng.standard_normal((n, d)) * rng.uniform(1e-3, 1e3, (n, 1))
        data[[0, 299, 300, 301, n - 1]] = 0.0
        edges = [0, 300, 300, 301, 650, n]
        blocks = [data[a:b] for a, b in zip(edges, edges[1:])]
        idx = retrieval.build_index_blocks(iter(blocks), n, d)
        vectors, ids = whole_matrix_build_index(data)
        assert np.array_equal(idx.vectors, vectors)
        assert np.array_equal(idx.ids, ids)
        assert idx.norms_dropped == 5
        whole = retrieval.build_index(data)
        assert np.array_equal(idx.vectors, whole.vectors) and np.array_equal(idx.ids, whole.ids)

    @pytest.mark.parametrize("count", [5, 7])
    def test_blocks_must_hold_declared_count(self, count):
        with pytest.raises(errors.DimensionMismatch, match=str(count)):
            retrieval.build_index_blocks([np.ones((3, 2)), np.ones((3, 2))], count, 2)

    def test_blocks_checked(self):
        for count in (0, -1):
            with pytest.raises(errors.EmptyInput):
                retrieval.build_index_blocks([], count, 2)
        with pytest.raises(errors.DimensionMismatch):
            retrieval.build_index_blocks([np.ones((3, 3))], 3, 2)
        with pytest.raises(errors.NonFinite):
            retrieval.build_index_blocks([np.ones((3, 2)), np.full((1, 2), np.nan)], 4, 2)

    @pytest.mark.parametrize("count, dim", [(2.0, 4), (2, True)])
    def test_non_integer_count_or_dim_rejected(self, count, dim):
        def blocks():
            raise AssertionError("no block is read before the parameters are checked")
            yield

        with pytest.raises(errors.InvalidParameter):
            retrieval.build_index_blocks(blocks(), count, dim)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_row_norm_rejected(self):
        """A finite row whose squared norm overflows would be stored as zeros."""
        data = np.ones((3, 4))
        data[1] = 1e200
        with pytest.raises(errors.NonFinite, match="overflows float64"):
            retrieval.build_index(data)

    def test_nonfinite_in_late_chunk_rejected(self):
        data = np.ones((whitening.BLOCK_ROWS + 3, 4))
        data[-1, 2] = np.inf
        with pytest.raises(errors.NonFinite):
            retrieval.build_index(data)


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

    @pytest.mark.parametrize("k", [2.5, 1.0, True, "1"])
    def test_non_integer_k_rejected(self, two_axis_index, k):
        with pytest.raises(errors.InvalidParameter):
            retrieval.top_k(two_axis_index, np.array([1.0, 0.0]), k)
        with pytest.raises(errors.InvalidParameter):
            retrieval.top_k_batch(two_axis_index, np.eye(2), k)

    def test_numpy_integer_k_accepted(self, two_axis_index):
        assert retrieval.top_k(two_axis_index, np.array([1.0, 0.0]), np.int64(1)) == [(0, 1.0)]

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


class TestTopKBatch:
    @pytest.mark.parametrize("n_queries", [1, 63, 64, 65, 130])
    def test_matches_full_sort_oracle(self, n_queries):
        rng = np.random.default_rng(n_queries)
        data = clustered_index(rng, 300, 16)
        idx = retrieval.build_index(data)
        queries = np.concatenate([
            rng.standard_normal((n_queries, 16)),
            data[idx.ids[rng.integers(0, idx.size, n_queries)]],
        ])[rng.permutation(2 * n_queries)[:n_queries]]
        for k in (1, 3, 12, 40, idx.size - 1, idx.size, idx.size + 5):
            assert retrieval.top_k_batch(idx, queries, k) == batch_oracle(idx, queries, k)

    @pytest.mark.parametrize("k", [1, 10, 41, 1500, 2999, 5000])
    def test_residue_classes_exact_on_larger_index(self, k):
        # n above SELECT_CLASSES, so classes hold several rows plus a tail.
        rng = np.random.default_rng(k)
        data = clustered_index(rng, 3000, 8, zero_rows=9)
        idx = retrieval.build_index(data)
        queries = np.concatenate([data[idx.ids[:40]], rng.standard_normal((30, 8))])
        assert retrieval.top_k_batch(idx, queries, k) == batch_oracle(idx, queries, k)

    def test_tiles_share_one_score_buffer(self, monkeypatch):
        """Each tile is scored into one buffer, bit-identical to a fresh product."""
        rng = np.random.default_rng(3)
        idx = retrieval.build_index(rng.standard_normal((500, 8)))
        queries = rng.standard_normal((2 * retrieval.QUERY_TILE + 5, 8))
        seen = []
        real = retrieval._select

        def select(scores, ids, k):
            seen.append((scores.base, scores.copy()))
            return real(scores, ids, k)

        monkeypatch.setattr(retrieval, "_select", select)
        retrieval.top_k_batch(idx, queries, 3)
        unit = (queries / np.sqrt(np.vecdot(queries, queries))[:, np.newaxis]).astype(np.float32)
        buffer = seen[0][0]
        assert len(seen) == 3 and buffer is not None and all(b is buffer for b, _ in seen)
        for i, (_, scores) in enumerate(seen):
            tile = unit[i * retrieval.QUERY_TILE : (i + 1) * retrieval.QUERY_TILE]
            assert np.array_equal(scores, idx.vectors @ tile.T)

    def test_ties_at_boundary_resolved_by_id(self):
        data = np.repeat(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]), 7, axis=0)
        idx = retrieval.build_index(data)
        hits = retrieval.top_k_batch(idx, np.array([[1.0, 0.0], [1.0, 1.0]]), 9)
        assert [i for i, _ in hits[0]] == list(range(7)) + [14, 15]
        assert [i for i, _ in hits[1]] == list(range(14, 21)) + [0, 1]

    def test_zero_queries(self):
        idx = retrieval.build_index(np.eye(3))
        assert retrieval.top_k_batch(idx, np.empty((0, 3)), 2) == []

    def test_all_rows_dropped_gives_empty_hits(self):
        idx = retrieval.build_index(np.zeros((4, 3)))
        assert retrieval.top_k_batch(idx, np.ones((2, 3)), 2) == [[], []]
        assert retrieval.top_k(idx, np.ones(3), 2) == []

    @pytest.mark.parametrize("shape", [(2, 3), (4,), (1, 2, 4)])
    def test_dim_mismatch(self, shape):
        idx = retrieval.build_index(np.eye(4))
        with pytest.raises(errors.DimensionMismatch):
            retrieval.top_k_batch(idx, np.ones(shape), 1)

    def test_zero_query_names_row(self):
        idx = retrieval.build_index(np.eye(2))
        with pytest.raises(errors.ZeroVector, match="row 1"):
            retrieval.top_k_batch(idx, np.array([[1.0, 0.0], [0.0, 0.0]]), 1)

    @pytest.mark.parametrize("k", [0, -3])
    def test_k_below_one(self, k):
        idx = retrieval.build_index(np.eye(2))
        with pytest.raises(errors.DimensionMismatch):
            retrieval.top_k_batch(idx, np.ones((1, 2)), k)
        with pytest.raises(errors.DimensionMismatch):
            retrieval.top_k(idx, np.ones(2), k)

    def test_nonfinite_query(self):
        idx = retrieval.build_index(np.eye(2))
        with pytest.raises(errors.NonFinite):
            retrieval.top_k_batch(idx, np.array([[1.0, np.nan]]), 1)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_query_norm_rejected(self):
        """A finite query whose squared norm overflows would score 0 everywhere."""
        idx = retrieval.build_index(np.eye(2))
        with pytest.raises(errors.NonFinite, match="overflows float64"):
            retrieval.top_k_batch(idx, np.array([[1.0, 0.0], [1e200, 1e200]]), 1)
        with pytest.raises(errors.NonFinite, match="overflows float64"):
            retrieval.top_k(idx, np.array([1e200, 1e200]), 1)

    def test_top_k_equals_gemv_reference_bit_for_bit(self):
        rng = np.random.default_rng(11)
        data = clustered_index(rng, 5000, 64)
        idx = retrieval.build_index(data)
        queries = np.concatenate([
            rng.standard_normal((60, 64)) * rng.uniform(1e-3, 1e3, (60, 1)),
            data[idx.ids[:20]],
        ])
        for q in queries:
            for k in (1, 10, 45):
                assert retrieval.top_k(idx, q, k) == gemv_top_k(idx, q, k)

    def test_batch_rows_match_top_k_away_from_near_ties(self):
        rng = np.random.default_rng(12)
        data = clustered_index(rng, 4000, 48)
        idx = retrieval.build_index(data)
        queries = np.concatenate([rng.standard_normal((100, 48)), data[idx.ids[:30]]])
        k = 10
        for q, batch_row in zip(queries, retrieval.top_k_batch(idx, queries, k)):
            single = retrieval.top_k(idx, q, k)
            kth = single[-1][1]
            firm = lambda hits: {i for i, s in hits if s > kth + 1e-6}
            assert firm(batch_row) == firm(single)
            assert len(batch_row) == len(single) == k
            for (i, s), (j, t) in zip(batch_row, single):
                assert abs(s - t) <= 1e-6


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

    @pytest.mark.parametrize(
        "shape, error",
        [((4,), errors.DimensionMismatch), ((2, 3, 4), errors.DimensionMismatch),
         ((0, 4), errors.EmptyInput)],
    )
    def test_queries_must_be_a_matrix_of_rows(self, shape, error):
        idx = retrieval.build_index(np.random.default_rng(6).standard_normal((10, 4)))
        with pytest.raises(error, match="quer"):
            retrieval.benchmark(idx, np.ones(shape), 1, repetitions=3)

    @pytest.mark.parametrize("reps", [3.5, 3.0, "3"])
    def test_non_integer_repetitions_rejected(self, reps):
        rng = np.random.default_rng(6)
        idx = retrieval.build_index(rng.standard_normal((10, 4)))
        with pytest.raises(errors.InvalidParameter):
            retrieval.benchmark(idx, rng.standard_normal((2, 4)), 1, repetitions=reps)

    def test_one_slow_query_does_not_move_rate(self, monkeypatch):
        """A burst of load that stalls one query per pass leaves the median alone."""
        rng = np.random.default_rng(7)
        idx = retrieval.build_index(rng.standard_normal((10, 4)))
        queries = rng.standard_normal((9, 4))
        real = retrieval.top_k

        def stalled(index, query, k_results):
            if query[0] == queries[0, 0]:
                time.sleep(0.05)
            return real(index, query, k_results)

        monkeypatch.setattr(retrieval, "top_k", stalled)
        rep = retrieval.benchmark(idx, queries, 2, repetitions=3)
        # A whole-pass rate would be at most 9 / 0.05 = 180 queries/s.
        assert rep.queries_per_second > 1000
