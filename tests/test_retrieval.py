import time
import weakref

import numpy as np
import pytest

from whitevec import errors, retrieval, streaming


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
    return index.ids[chosen].astype(np.int64), scores[chosen]


def answer(ranked_rows, k):
    """(ids, scores) as top_k_batch returns them: the first k (id, score)
    pairs of each row's ranking, k no more than any row holds."""
    ids = [[i for i, _ in row[:k]] for row in ranked_rows]
    scores = [[s for _, s in row[:k]] for row in ranked_rows]
    shape = (len(ranked_rows), k)
    return np.array(ids, dtype=np.int64).reshape(shape), np.array(scores).reshape(shape)


def assert_same_hits(got, want):
    """Equal ids and bit-equal float32 scores, in the answer's dtypes and shape.

    ``want``'s scores may be float64, but only of values that float32 holds
    exactly, so the comparison is as strict as the float64 one.
    """
    (ids, scores), (want_ids, want_scores) = got, want
    want32 = np.asarray(want_scores, dtype=np.float32)
    assert np.array_equal(want32, want_scores)
    assert ids.dtype == np.int64 and scores.dtype == np.float32
    assert ids.shape == scores.shape == np.shape(want_ids) == want32.shape
    assert np.array_equal(ids, want_ids)
    assert np.array_equal(scores.view(np.uint32), want32.view(np.uint32))


def whole_matrix_build_index(data):
    """build_index's whole-matrix normalization before it was chunked."""
    norms = np.linalg.norm(data, axis=1)
    keep = norms >= retrieval.ZERO_NORM
    return (data[keep] / norms[keep, np.newaxis]).astype(np.float32), np.flatnonzero(keep)


def batch_oracle(index, queries, k):
    """Full sort of the same query-tile x index-chunk GEMM products
    top_k_batch computes."""
    q = np.asarray(queries, dtype=np.float64)
    unit = (q / np.sqrt(np.vecdot(q, q))[:, np.newaxis]).astype(np.float32)
    tile_rows, classes = retrieval.QUERY_TILE, retrieval.SELECT_CLASSES
    m = min(tile_rows, unit.shape[0])
    rows = max(retrieval.SCORE_FLOATS // m // classes * classes, min(k, index.size), classes)
    out = []
    for start in range(0, unit.shape[0], tile_rows):
        tile = unit[start : start + tile_rows]
        block = np.concatenate(
            [tile @ index.vectors[a : a + rows].T for a in range(0, index.size, rows)], axis=1
        )
        for row in np.clip(block, -1.0, 1.0):
            out.append(sorted(zip(index.ids.tolist(), row.tolist()), key=lambda p: (-p[1], p[0])))
    return answer(out, min(k, index.size))


def exact_rows(rng, n, d):
    """Rows whose unit vectors have entries in {0, +-0.5, +-1}, scaled by powers of two.

    Every norm, unit vector and cosine is then exact in float32, whatever
    the summation order, so scores tie exactly and any product order gives
    the same hits. A row is one +-1 entry, or (d >= 4) four +-0.5 entries.
    """
    rows = np.zeros((n, d))
    for row in rows:
        spots = rng.choice(d, 4 if d >= 4 and rng.random() < 0.5 else 1, replace=False)
        row[spots] = rng.choice([-1.0, 1.0], spots.size) / np.sqrt(spots.size)
        row *= 2.0 ** rng.integers(-3, 4)
    return rows


def exact_oracle(index, queries, k):
    """Full sort of exact float64 cosines: needs exact_rows inputs."""
    q = np.asarray(queries, dtype=np.float64)
    unit = q / np.sqrt(np.vecdot(q, q))[:, np.newaxis]
    out = []
    for row in unit @ index.vectors.astype(np.float64).T:
        out.append(sorted(zip(index.ids.tolist(), row.tolist()), key=lambda p: (-p[1], p[0])))
    return answer(out, min(k, index.size))


def small_constants(monkeypatch, tile, classes, floats):
    """Shrink top_k_batch's tiles, classes and score buffer; return its chunk rows for k=1."""
    monkeypatch.setattr(retrieval, "QUERY_TILE", tile)
    monkeypatch.setattr(retrieval, "SELECT_CLASSES", classes)
    monkeypatch.setattr(retrieval, "SCORE_FLOATS", floats)
    return max(floats // tile // classes * classes, classes)


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
    ids, scores = answer([ranked], min(k, index.size))
    return ids[0], scores[0]


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

    @pytest.mark.parametrize("ids, error", [
        ([0, 2, 1], errors.InvalidParameter),
        ([0, 1, 1], errors.InvalidParameter),
        ([0.0, 1.0, 2.0], errors.InvalidParameter),
        ([0, 1], errors.DimensionMismatch),
        ([[0, 1, 2]], errors.DimensionMismatch),
    ])
    def test_ids_are_ascending_integers_one_per_row(self, ids, error):
        vectors = retrieval.build_index(np.eye(3)).vectors
        with pytest.raises(error):
            retrieval.CosineIndex(vectors=vectors, ids=np.array(ids), norms_dropped=0)
        gaps = retrieval.CosineIndex(vectors=vectors, ids=np.array([0, 4, 9]), norms_dropped=0)
        assert_same_hits(retrieval.top_k(gaps, np.array([0.0, 1.0, 0.0]), 2), ([4, 0], [1.0, 0.0]))

    def test_vectors_must_be_a_matrix(self):
        """A 1-D index would reach top_k_batch as a raw IndexError."""
        with pytest.raises(errors.DimensionMismatch, match="2-D"):
            retrieval.CosineIndex(
                vectors=np.ones(3, dtype=np.float32), ids=np.arange(3), norms_dropped=0
            )

    def test_vectors_must_be_float32(self):
        """Float64 rows that are not unit would score 1.414 as a clipped 1.0."""
        with pytest.raises(errors.InvalidParameter, match="float64"):
            retrieval.CosineIndex(vectors=np.ones((3, 2)), ids=np.arange(3), norms_dropped=0)

    def test_empty_rejected(self):
        with pytest.raises(errors.EmptyInput):
            retrieval.build_index(np.empty((0, 4)))

    def test_zero_width_rejected(self):
        # As MomentState.update and fit refuse it; a dim-0 index would drop every row.
        with pytest.raises(errors.DimensionMismatch):
            retrieval.build_index(np.ones((3, 0)))

    @pytest.mark.parametrize("n", [1, streaming.BLOCK_ROWS + 7])
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
        data = np.ones((streaming.BLOCK_ROWS + 3, 4))
        data[-1, 2] = np.inf
        with pytest.raises(errors.NonFinite):
            retrieval.build_index(data)


class TestTopK:
    @pytest.fixture
    def two_axis_index(self):
        return retrieval.build_index(np.array([[1.0, 0.0], [0.0, 1.0]]))

    def test_exact_match(self, two_axis_index):
        assert_same_hits(retrieval.top_k(two_axis_index, np.array([1.0, 0.0]), 1), ([0], [1.0]))

    def test_tie_broken_by_id(self, two_axis_index):
        ids, scores = retrieval.top_k(two_axis_index, np.array([1.0, 1.0]), 2)
        assert ids.tolist() == [0, 1]
        for score in scores:
            assert score == pytest.approx(1 / np.sqrt(2), abs=1e-6)

    def test_k_clamped_to_size(self, two_axis_index):
        ids, scores = retrieval.top_k(two_axis_index, np.array([1.0, 2.0]), 99)
        assert ids.shape == scores.shape == (2,)

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
        hits = retrieval.top_k(two_axis_index, np.array([1.0, 0.0]), np.int64(1))
        assert_same_hits(hits, ([0], [1.0]))

    def test_matches_full_sort_oracle(self):
        rng = np.random.default_rng(2)
        data = rng.standard_normal((200, 12))
        data[17] = 0.0  # exercise dropped-id bookkeeping
        idx = retrieval.build_index(data)
        for _ in range(25):
            q = rng.standard_normal(12)
            k = int(rng.integers(1, 30))
            assert_same_hits(retrieval.top_k(idx, q, k), full_sort_oracle(idx, q, k))

    def test_oracle_with_duplicate_vectors(self):
        # duplicates force score ties across many ids
        base = np.array([[1.0, 0.0], [0.0, 1.0]])
        data = np.repeat(base, 5, axis=0)
        idx = retrieval.build_index(data)
        q = np.array([1.0, 1.0])
        assert_same_hits(retrieval.top_k(idx, q, 7), full_sort_oracle(idx, q, 7))

    def test_scores_in_range_and_deterministic(self):
        rng = np.random.default_rng(3)
        idx = retrieval.build_index(rng.standard_normal((100, 32)) * 50)
        q = rng.standard_normal(32)
        first = retrieval.top_k(idx, q, 10)
        assert np.all((-1.0 <= first[1]) & (first[1] <= 1.0))
        assert_same_hits(retrieval.top_k(idx, q, 10), first)


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
            assert_same_hits(retrieval.top_k_batch(idx, queries, k), batch_oracle(idx, queries, k))

    @pytest.mark.parametrize("k", [1, 10, 41, 1500, 2999, 5000])
    def test_residue_classes_exact_on_larger_index(self, k):
        # n above SELECT_CLASSES, so classes hold several rows plus a tail.
        rng = np.random.default_rng(k)
        data = clustered_index(rng, 3000, 8, zero_rows=9)
        idx = retrieval.build_index(data)
        queries = np.concatenate([data[idx.ids[:40]], rng.standard_normal((30, 8))])
        assert_same_hits(retrieval.top_k_batch(idx, queries, k), batch_oracle(idx, queries, k))

    def test_tiles_share_one_score_buffer(self, monkeypatch):
        """Every tile x chunk is scored into one buffer of at most SCORE_FLOATS,
        bit-identical to a fresh `tile @ chunk.T`."""
        rows = small_constants(monkeypatch, tile=8, classes=4, floats=96)
        rng = np.random.default_rng(3)
        idx = retrieval.build_index(rng.standard_normal((50, 8)))
        queries = rng.standard_normal((2 * 8 + 5, 8))
        seen = []
        real = retrieval._select

        def select(scores, k, floor):
            seen.append((scores.base, scores.copy()))
            return real(scores, k, floor)

        monkeypatch.setattr(retrieval, "_select", select)
        retrieval.top_k_batch(idx, queries, 3)
        unit = (queries / np.sqrt(np.vecdot(queries, queries))[:, np.newaxis]).astype(np.float32)
        products = [  # chunks in the outer loop, tiles in the inner
            unit[t : t + 8] @ idx.vectors[c : c + rows].T
            for c in range(0, 50, rows)
            for t in range(0, 21, 8)
        ]
        buffer = seen[0][0]
        assert rows == 12 and len(seen) == len(products) == 15
        assert buffer is not None and buffer.size <= 96 and all(b is buffer for b, _ in seen)
        for (_, scores), product in zip(seen, products):
            assert np.array_equal(scores, product)

    @pytest.mark.parametrize("tile, classes, floats", [(4, 2, 24), (3, 1, 7), (5, 4, 80), (1, 3, 5)])
    @pytest.mark.parametrize("seed", range(4))
    def test_chunks_exact_on_exact_scores(self, monkeypatch, tile, classes, floats, seed):
        """Tie groups across chunk edges, dropped zero rows and every k, k >= n too.

        Duplicate runs put equal scores on both sides of chunk edges, and
        zero rows on and near the edges leave gaps in the ids; k runs from 1
        to past the index size, through ks larger than one chunk's rows.
        """
        rows = small_constants(monkeypatch, tile, classes, floats)
        rng = np.random.default_rng(seed)
        n, d = 40, 5
        data = exact_rows(rng, n, d)
        for edge in range(rows, n, 3 * rows):  # a run of one row across every third edge
            data[edge - 2 : edge + 2] = data[edge - 2]
        data[[1, rows - 1, rows + 1, n - 2]] = 0.0
        idx = retrieval.build_index(data)
        assert idx.size > rows and np.diff(idx.ids).max() > 1
        queries = np.concatenate([exact_rows(rng, 2 * tile + 1, d), data[idx.ids[:3]]])
        for k in range(1, idx.size + 4):
            assert_same_hits(retrieval.top_k_batch(idx, queries, k), exact_oracle(idx, queries, k))

    def test_k_larger_than_one_chunk_widens_the_chunk(self, monkeypatch):
        """A chunk holds at least k rows, so the first chunk has k candidates."""
        rows = small_constants(monkeypatch, tile=4, classes=2, floats=24)
        rng = np.random.default_rng(9)
        data = np.repeat(exact_rows(rng, 10, 4), 3, axis=0)
        idx = retrieval.build_index(data)
        queries = exact_rows(rng, 9, 4)
        seen = []
        real = retrieval._select

        def select(scores, k, floor):
            seen.append(scores.shape[1])
            return real(scores, k, floor)

        monkeypatch.setattr(retrieval, "_select", select)
        for k in (rows + 1, 2 * rows + 3):
            seen.clear()
            assert_same_hits(retrieval.top_k_batch(idx, queries, k), exact_oracle(idx, queries, k))
            assert max(seen) == k

    def test_chunked_matches_oracle_on_clustered_index(self, monkeypatch):
        """Several chunks of the default SELECT_CLASSES rows, with near-ties."""
        monkeypatch.setattr(retrieval, "SCORE_FLOATS", 70 * retrieval.SELECT_CLASSES)
        rng = np.random.default_rng(21)
        data = clustered_index(rng, 3000, 8, zero_rows=9)
        idx = retrieval.build_index(data)
        queries = np.concatenate([data[idx.ids[:40]], rng.standard_normal((30, 8))])
        for k in (1, 10, 41, 1500):
            assert_same_hits(retrieval.top_k_batch(idx, queries, k), batch_oracle(idx, queries, k))

    def test_later_chunks_keep_no_ties_with_the_running_floor(self, monkeypatch):
        """Identical rows: every chunk after the first ties its whole block
        with the running k-th best, whose ids are smaller, so it yields no
        candidate; the first chunk of each tile keeps k ties a row. Two inputs:
        exact scores of q[0], and a row whose float32 self-score is above 1,
        so the running k-th best is 1.0, which the raw scores still exceed."""
        rows = small_constants(monkeypatch, tile=4, classes=4, floats=32)
        exact = np.tile([1.0, 0.0, 0.0], (5 * rows + 3, 1))  # every score is exactly q[0]
        queries = np.random.default_rng(4).standard_normal((6, 3))
        queries[:, 0] = np.abs(queries[:, 0]) + 0.1
        rng = np.random.default_rng(0)
        for _ in range(10):
            v = rng.standard_normal(3)
            above = np.tile(v, (5 * rows + 3, 1))
            unit, _ = retrieval._unit_queries([np.tile(v, (4, 1))], 4, 3)
            if np.all(unit @ retrieval.build_index(above).vectors[:rows].T > 1.0):
                break
        else:
            pytest.fail("no draw has a self-score above 1")
        seen = []
        real = retrieval._select

        def select(scores, k, floor):
            out = real(scores, k, floor)
            seen.append((floor is None, out[0].size, scores.min()))
            return out

        monkeypatch.setattr(retrieval, "_select", select)
        for data, queries, score in [(exact, queries, None), (above, np.tile(v, (6, 1)), 1.0)]:
            seen.clear()
            ids, scores = retrieval.top_k_batch(retrieval.build_index(data), queries, 3)
            assert rows == 8 and len(seen) == 6 * 2  # six chunks, each scored by two tiles
            assert [(first, count) for first, count, _ in seen[:2]] == [(True, 3 * 4), (True, 3 * 2)]
            assert all(not first and count == 0 for first, count, _ in seen[2:])
            assert np.array_equal(ids, [[0, 1, 2]] * 6)
            if score is not None:
                assert all(low > 1.0 for _, _, low in seen) and np.all(scores == score)

    def test_first_chunk_keeps_k_ties_per_row_in_column_order(self):
        """Every score ties at the threshold but one above it: each row keeps
        that one and its first k ties, by column."""
        scores = np.full((3, 4 * retrieval.SELECT_CLASSES), 0.25, dtype=np.float32)
        scores[1, 7] = 0.5
        row, col, vals = retrieval._select(scores, 5, None)
        assert row.tolist() == [0] * 5 + [1] * 6 + [2] * 5
        assert col.tolist() == [0, 1, 2, 3, 4] * 2 + [7] + [0, 1, 2, 3, 4]
        assert vals.tolist() == [0.25] * 10 + [0.5] + [0.25] * 5

    def test_scores_below_minus_one_all_pass_at_minus_one(self):
        """Rows antipodal to the query, one of which float32 scores below -1:
        every row is a hit at -1.0."""
        rng = np.random.default_rng(0)
        for _ in range(10):
            v = rng.standard_normal(8)
            idx = retrieval.build_index(-v * np.array([[1.0], [3.0], [7.0]]))
            unit, _ = retrieval._unit_queries([v[np.newaxis]], 1, 8)
            if (unit @ idx.vectors.T).min() < -1.0:
                break
        else:
            pytest.fail("no draw scores below -1")
        assert_same_hits(retrieval.top_k_batch(idx, v[np.newaxis], 3), ([[0, 1, 2]], [[-1.0] * 3]))

    def test_best_k_sorts_as_lexsort(self):
        """Signed zeros and subnormal scores tie or order as floats compare.

        Entries come in ascending id order, as ``_best_k`` requires of
        entries with equal row and score."""
        rng = np.random.default_rng(5)
        m, k = 7, 240  # each row's k-th best is a zero
        row = np.concatenate([np.repeat(np.arange(m), 40), rng.integers(0, m, 3000)])
        vals = rng.choice([-1.0, -0.5, -0.0, -1e-40, 0.0, 1e-40, 0.25, 1.0], row.size)
        vals = vals.astype(np.float32)
        ids = np.sort(rng.permutation(10**6)[: row.size])
        order = np.lexsort((ids, -vals, row))
        starts = np.searchsorted(row[order], np.arange(m))
        keep = order[(starts[:, np.newaxis] + np.arange(k)).ravel()]
        top_ids, top_vals = retrieval._best_k(row, ids, vals, m, k)
        assert np.array_equal(top_ids.ravel(), ids[keep])
        assert np.array_equal(top_vals.ravel(), vals[keep])
        assert np.array_equal(np.signbit(top_vals.ravel()), np.signbit(vals[keep]))

    def test_ties_at_boundary_resolved_by_id(self):
        data = np.repeat(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]), 7, axis=0)
        idx = retrieval.build_index(data)
        ids, _ = retrieval.top_k_batch(idx, np.array([[1.0, 0.0], [1.0, 1.0]]), 9)
        assert ids.tolist() == [list(range(7)) + [14, 15], list(range(14, 21)) + [0, 1]]

    def test_zero_queries(self):
        idx = retrieval.build_index(np.eye(3))
        assert_same_hits(retrieval.top_k_batch(idx, np.empty((0, 3)), 2), answer([], 2))

    def test_all_rows_dropped_gives_empty_hits(self):
        idx = retrieval.build_index(np.zeros((4, 3)))
        assert_same_hits(retrieval.top_k_batch(idx, np.ones((2, 3)), 2), answer([[], []], 0))
        assert_same_hits(retrieval.top_k(idx, np.ones(3), 2), ([], []))

    @pytest.mark.parametrize("rows, m, k_results, k", [
        (np.eye(3), 4, 2, 2),  # k below the index size
        (np.eye(3), 1, 9, 3),  # k clamped to the index size
        (np.eye(3), 0, 2, 2),  # no queries: 0 x k
        (np.zeros((4, 3)), 5, 2, 0),  # every row dropped: m x 0
        (np.zeros((4, 3)), 0, 2, 0),
    ])
    def test_answer_is_an_int64_and_a_float32_m_by_k_array(self, rows, m, k_results, k):
        idx = retrieval.build_index(rows)
        ids, scores = retrieval.top_k_batch(idx, np.ones((m, 3)), k_results)
        assert ids.dtype == np.int64 and scores.dtype == np.float32
        assert ids.shape == scores.shape == (m, k)
        if m:
            one_ids, one_scores = retrieval.top_k(idx, np.ones(3), k_results)
            assert one_ids.dtype == np.int64 and one_scores.dtype == np.float32
            assert one_ids.shape == one_scores.shape == (k,)

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
                assert_same_hits(retrieval.top_k(idx, q, k), gemv_top_k(idx, q, k))

    def test_batch_rows_match_top_k_away_from_near_ties(self):
        rng = np.random.default_rng(12)
        data = clustered_index(rng, 4000, 48)
        idx = retrieval.build_index(data)
        queries = np.concatenate([rng.standard_normal((100, 48)), data[idx.ids[:30]]])
        k = 10
        for q, *batch_row in zip(queries, *retrieval.top_k_batch(idx, queries, k)):
            single = retrieval.top_k(idx, q, k)
            kth = single[1][-1]
            firm = lambda hits: set(hits[0][hits[1] > kth + 1e-6].tolist())
            assert firm(batch_row) == firm(single)
            assert batch_row[0].shape == single[0].shape == (k,)
            assert np.all(np.abs(batch_row[1] - single[1]) <= 1e-6)


def zero_layout(layout, rows, rng, d=5):
    """Rows of random data with duplicates, and zero rows placed against
    the kept-row chunk edges of chunks of ``rows`` rows."""
    n = 4 * rows + 3
    data = rng.standard_normal((n, d))
    data[n // 2 : n // 2 + 3] = data[n // 2]
    if layout == "edge":  # the first chunk ends at row rows, the second starts at rows + 2
        data[[rows - 1, rows + 1]] = 0.0
    elif layout == "zero_chunk":  # more than a chunk of zero rows after the first chunk
        data[rows : 2 * rows + 1] = 0.0
    elif layout == "trailing":  # two full chunks, then only zero rows
        data = data[: 2 * rows + 5]
        data[2 * rows :] = 0.0
    elif layout == "all_zero":
        data[:] = 0.0
    return data


def blocks_of(data, size):
    """``data`` as a stream of ``size``-row blocks, so block and chunk edges differ."""
    return (data[i : i + size] for i in range(0, data.shape[0], size))


class TestSearchBlocks:
    """search_blocks answers as top_k_batch of build_index_blocks, bit for bit."""

    @pytest.mark.parametrize("layout", ["none", "edge", "zero_chunk", "trailing", "all_zero"])
    @pytest.mark.parametrize("m", [1, 3, 2 * 4 + 3])  # one query, one tile, three tiles
    def test_equals_top_k_batch_of_the_built_index(self, monkeypatch, layout, m):
        small_constants(monkeypatch, tile=4, classes=2, floats=24)
        rng = np.random.default_rng(m)
        data = zero_layout(layout, retrieval._chunk_rows(m, 1), rng)
        n, d = data.shape
        queries = np.concatenate([rng.standard_normal((m - 1, d)), data[n // 2 : n // 2 + 1]])
        queries[-1, 0] += 1.0  # not a zero row, whatever the layout
        index = retrieval.build_index_blocks(blocks_of(data, 5), n, d)
        chunk_rows = []
        real = retrieval._select

        def select(scores, k, floor):
            chunk_rows.append(scores.shape[1])
            return real(scores, k, floor)

        # k = 1; 3; wider than SCORE_FLOATS // m (a widened chunk); more than the kept rows.
        for k in (1, 3, retrieval._chunk_rows(m, 1) + 2, n + 5):
            want = retrieval.top_k_batch(index, queries, k)
            monkeypatch.setattr(retrieval, "_select", select)
            chunk_rows.clear()
            got = retrieval.search_blocks(blocks_of(data, 5), n, d, blocks_of(queries, 2), m, k)
            monkeypatch.setattr(retrieval, "_select", real)
            assert_same_hits(got, want)
            assert want[0].shape == (m, min(k, index.size))
            if index.size:  # the shared loop, against a full sort of the same products
                assert_same_hits(got, batch_oracle(index, queries, k))
            assert max(chunk_rows, default=0) <= retrieval._chunk_rows(m, k)

    def test_float32_blocks(self):
        rng = np.random.default_rng(2)
        data = rng.standard_normal((3 * streaming.BLOCK_ROWS + 5, 8)).astype(np.float32)
        data[streaming.BLOCK_ROWS] = 0.0
        queries = rng.standard_normal((retrieval.QUERY_TILE + 1, 8)).astype(np.float32)
        index = retrieval.build_index_blocks(blocks_of(data, streaming.BLOCK_ROWS), *data.shape)
        got = retrieval.search_blocks(blocks_of(data, 1000), *data.shape, [queries], len(queries), 10)
        assert_same_hits(got, retrieval.top_k_batch(index, queries, 10))

    def test_chunk_is_reused_and_never_the_index(self, monkeypatch):
        """Every chunk is one buffer of at most the chunk rows, not a slice of an index."""
        rows = small_constants(monkeypatch, tile=4, classes=2, floats=24)
        data = np.random.default_rng(3).standard_normal((5 * rows + 1, 3))
        queries = np.ones((4, 3))
        seen = []
        real = retrieval._top_k_chunks

        def loop(unit, chunks, k_results):
            def spy():
                for vectors, ids in chunks:
                    seen.append((vectors.base if vectors.base is not None else vectors, ids.size))
                    yield vectors, ids
            return real(unit, spy(), k_results)

        monkeypatch.setattr(retrieval, "_top_k_chunks", loop)
        retrieval.search_blocks(blocks_of(data, 4), *data.shape, [queries], 4, 2)
        assert [size for _, size in seen] == [rows] * 5 + [1]
        assert all(base is seen[0][0] for base, _ in seen) and seen[0][0].shape == (rows, 3)

    def test_last_block_is_released_before_the_final_chunk_is_scored(self, monkeypatch):
        """A lone query's chunk is the whole index; no block stays alive while it is scored."""
        rng = np.random.default_rng(13)
        refs = []

        def tracked(block):
            refs.append(weakref.ref(block))
            return block

        real = retrieval._select
        alive = []

        def select(scores, k, floor):
            alive.append([ref() is not None for ref in refs])
            return real(scores, k, floor)

        monkeypatch.setattr(retrieval, "_select", select)
        blocks = (tracked(rng.standard_normal((5, 4))) for _ in range(3))
        retrieval.search_blocks(blocks, 15, 4, [np.ones((1, 4))], 1, 2)
        assert alive == [[False] * 3]

    def test_no_queries_still_checks_every_block(self):
        nan_last = [np.ones((3, 2)), np.array([[1.0, np.nan]])]
        with pytest.raises(errors.NonFinite):
            retrieval.search_blocks(iter(nan_last), 4, 2, [np.empty((0, 2))], 0, 3)
        with pytest.raises(errors.DimensionMismatch, match="expected 5"):
            retrieval.search_blocks(iter([np.ones((3, 2))]), 5, 2, [], 0, 3)
        ids, scores = retrieval.search_blocks(iter([np.ones((3, 2))]), 3, 2, [], 0, 3)
        assert ids.shape == scores.shape == (0, 3)

    @pytest.mark.parametrize("count, dim, queries, k, error", [
        (0, 2, np.ones((1, 2)), 1, errors.EmptyInput),
        (2.0, 2, np.ones((1, 2)), 1, errors.InvalidParameter),
        (2, 0, np.ones((1, 0)), 1, errors.DimensionMismatch),
        (2, 2, np.ones((1, 3)), 1, errors.DimensionMismatch),
        (2, 2, np.zeros((1, 2)), 1, errors.ZeroVector),
        (2, 2, np.array([[np.nan, 1.0]]), 1, errors.NonFinite),
        (2, 2, np.ones((1, 2)), 0, errors.DimensionMismatch),
        (2, 2, np.ones((1, 2)), 1.0, errors.InvalidParameter),
    ])
    def test_checked_before_any_block_is_read(self, count, dim, queries, k, error):
        def blocks():
            raise AssertionError("a block was read before the arguments were checked")
            yield

        with pytest.raises(error):
            retrieval.search_blocks(blocks(), count, dim, [queries], len(queries), k)


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
