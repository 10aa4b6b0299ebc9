import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from whitevec import errors, linalg, streaming, whitening

FOUR_POINTS = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 2.0], [0.0, -2.0]])
SQRT2 = np.sqrt(2.0)


def block_moments(rows):
    """Mean and biased covariance of one row block, the way ``fit`` takes them."""
    state = streaming.MomentState()
    state.update(np.asarray(rows, dtype=np.float64))
    return streaming.finalize(state)


def random_transform(rng, d, k) -> whitening.WhiteningTransform:
    """A d -> k transform with a random mean and matrix, as apply sees it."""
    return whitening.WhiteningTransform(
        mean=rng.standard_normal(d),
        matrix=rng.standard_normal((d, k)) / np.sqrt(d),
        fit_count=1000,
        eps=0.0,
    )


def check_batch_matches_single():
    """Each apply_batch row equals a lone apply call bit for bit, for batch
    sizes that end a tile early, exactly and just after (1, T - 1, T, T + 1
    and 2T + 1 rows for T = TILE_ROWS) at 768 -> 256, and for a fitted
    9 -> 5 transform."""
    rng = np.random.default_rng(4)
    x = rng.standard_normal((37, 9))
    cases = [(whitening.fit(x, k=5), x)]
    big = random_transform(rng, 768, 256)
    tile = whitening.TILE_ROWS
    sizes = (1, tile - 1, tile, tile + 1, 2 * tile + 1)
    cases += [(big, rng.standard_normal((n, 768)) * 3.0 + 1.0) for n in sizes]
    for t, data in cases:
        batch = whitening.apply_batch(t, data)
        for i in range(data.shape[0]):
            assert np.array_equal(batch[i], whitening.apply(t, data[i])), (t.input_dim, len(data), i)


class TestMoments:
    def test_mean_midpoint(self):
        mean, _ = block_moments([[0.0, 0.0], [2.0, 0.0]])
        assert np.array_equal(mean, [1.0, 0.0])

    def test_mean_single_row(self):
        mean, _ = block_moments([[3.0, -1.0]])
        assert np.array_equal(mean, [3.0, -1.0])

    def test_mean_symmetry(self):
        mean, _ = block_moments(FOUR_POINTS)
        assert np.array_equal(mean, [0.0, 0.0])

    def test_mean_empty(self):
        with pytest.raises(errors.EmptyInput):
            block_moments(np.empty((0, 3)))

    def test_covariance_four_points(self):
        _, cov = block_moments(FOUR_POINTS)
        assert np.allclose(cov, [[0.5, 0.0], [0.0, 2.0]], atol=1e-15)

    def test_covariance_singular(self):
        _, cov = block_moments([[0.0, 0.0], [2.0, 0.0]])
        assert np.allclose(cov, [[1.0, 0.0], [0.0, 0.0]], atol=1e-15)

    def test_covariance_single_point(self):
        _, cov = block_moments([[5.0, -2.0]])
        assert np.array_equal(cov, np.zeros((2, 2)))

    def test_covariance_dim_mismatch(self):
        state = streaming.MomentState()
        state.update(FOUR_POINTS)
        with pytest.raises(errors.DimensionMismatch):
            state.update(np.zeros((2, 3)))


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

    @pytest.mark.parametrize("k", [0, -2, np.int64(0)], ids=["0", "-2", "int64-0"])
    def test_k_below_one_is_dimension_mismatch(self, k):
        """One check, in fit, fit_from_moments and truncate alike; above the rank stays RankDeficient."""
        state = streaming.MomentState()
        state.update(FOUR_POINTS)
        full = whitening.fit(FOUR_POINTS, k="full")
        for call in (lambda: whitening.fit(FOUR_POINTS, k=k),
                     lambda: whitening.fit_from_moments(state, k=k),
                     lambda: whitening.truncate(full, k)):
            with pytest.raises(errors.DimensionMismatch, match=f"k must be >= 1, got {int(k)}"):
                call()
        with pytest.raises(errors.RankDeficient):
            whitening.truncate(full, full.output_dim + 1)

    @pytest.mark.parametrize("eps", [-1.0, -1e-300, float("nan"), float("inf")])
    def test_invalid_eps_rejected(self, eps):
        rank2 = np.random.default_rng(0).standard_normal((50, 2)) @ np.ones((2, 3))
        with pytest.raises(errors.InvalidParameter):
            whitening.fit(rank2, k="full", eps=eps)

    @pytest.mark.parametrize("eps", [True, 10**400], ids=["True", "10**400"])
    def test_bool_and_overflowing_eps_rejected(self, eps):
        with pytest.raises(errors.InvalidParameter):
            whitening.fit(FOUR_POINTS, k="full", eps=eps)

    @pytest.mark.parametrize("k", ["abc", 2.7, 2.0, True, np.array([1, 2]), np.array(["full"])])
    def test_non_integer_k_rejected(self, k):
        with pytest.raises(errors.InvalidParameter):
            whitening.fit(FOUR_POINTS, k=k)
        state = streaming.MomentState()
        state.update(FOUR_POINTS)
        with pytest.raises(errors.InvalidParameter):
            whitening.fit_from_moments(state, k=k)

    def test_numpy_integer_k_accepted(self):
        t = whitening.fit(FOUR_POINTS, k=np.int64(1))
        assert t.output_dim == 1 and type(t.output_dim) is int
        assert whitening.truncate(whitening.fit(FOUR_POINTS, k="full"), np.int32(1)).output_dim == 1

    @pytest.mark.parametrize("k", [2.5, 1.0, True, "1", np.array([1, 2])])
    def test_truncate_non_integer_k_rejected(self, k):
        with pytest.raises(errors.InvalidParameter):
            whitening.truncate(whitening.fit(FOUR_POINTS, k="full"), k)

    @pytest.mark.filterwarnings("error")
    def test_default_eps_finite_when_trace_overflows(self):
        """Every covariance entry is finite (diagonal 8.4e306), but their sum is not."""
        rng = np.random.default_rng(0)
        signs = np.stack([rng.permutation([1.0] * 10 + [-1.0] * 10) for _ in range(40)], axis=1)
        x = signs * 2.9e153
        t = whitening.fit(x, k="full")
        assert t.output_dim == whitening.fit(x, k="full", eps=0.0).output_dim == 19
        assert np.isfinite(t.eps) and t.eps > 0

    def test_default_eps_is_scaled_trace(self):
        cov = np.cov(np.random.default_rng(1).standard_normal((50, 7)), rowvar=False)
        expected = whitening.EPS_SCALE * float(np.trace(cov)) / 7
        assert whitening.default_eps(cov) == expected

    def test_zero_eps_accepted(self):
        t = whitening.fit(np.array([[0.0, 0.0], [2.0, 0.0]]), k="full", eps=0.0)
        assert t.output_dim == 1 and t.eps == 0.0

    def test_zero_eps_drops_roundoff_eigenvalues(self):
        rng = np.random.default_rng(0)
        base = rng.standard_normal((2000, 3))
        x = np.column_stack([base, base[:, 0] + base[:, 1], 2.0 * base[:, 2] - base[:, 0]])
        t = whitening.fit(x, k="full", eps=0.0)
        assert t.output_dim == 3 and t.eps == 0.0
        y = whitening.apply_batch(t, x)
        assert np.max(np.abs(np.cov(y, rowvar=False, bias=True) - np.eye(3))) <= 1e-10
        with pytest.raises(errors.RankDeficient) as exc:
            whitening.fit(x, k=4, eps=0.0)
        assert exc.value.rank == 3

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
        assert whitening.truncate(full, "full") is full

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
        # One interpreter per BLAS thread count: OpenBLAS reads it at start-up.
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(
                [str(Path(whitening.__file__).parents[1]), str(Path(__file__).parent)]
            ),
        )
        for threads in ("1", "2"):
            env["OPENBLAS_NUM_THREADS"] = threads
            proc = subprocess.run(
                [sys.executable, "-c", "import test_whitening; test_whitening.check_batch_matches_single()"],
                env=env, capture_output=True, text=True,
            )
            assert proc.returncode == 0, f"OPENBLAS_NUM_THREADS={threads}: {proc.stderr}"

    def test_batch_matches_einsum_reference(self):
        rng = np.random.default_rng(8)
        for d, k, n in ((768, 256, 300), (384, 128, 200), (9, 5, 37)):
            t = random_transform(rng, d, k)
            data = rng.standard_normal((n, d)) * 2.0 + 5.0
            reference = np.einsum("ij,jk->ik", data - t.mean, t.matrix)
            out = whitening.apply_batch(t, data)
            assert np.max(np.abs(out - reference)) <= 1e-12 * np.max(np.abs(reference))

    def test_batch_allocates_output_plus_one_tile(self):
        rng = np.random.default_rng(9)
        n, d, k = 5000, 256, 32
        t = random_transform(rng, d, k)
        data = rng.standard_normal((n, d))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            out = whitening.apply_batch(t, data)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # The einsum over a centred copy allocated n * d * 8 more.
        assert peak <= out.nbytes + 4 * whitening.TILE_ROWS * d * 8

    def test_batch_nonfinite_in_late_tile(self, transform):
        data = np.zeros((3 * whitening.TILE_ROWS + 5, 2))
        data[-2, 1] = np.nan
        with pytest.raises(errors.NonFinite):
            whitening.apply_batch(transform, data)

    def test_dim_mismatch(self, transform):
        with pytest.raises(errors.DimensionMismatch):
            whitening.apply(transform, np.zeros(3))
        with pytest.raises(errors.DimensionMismatch):
            whitening.apply_batch(transform, np.zeros((2, 3)))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "mean, matrix, row",
        [
            ([-1.5e308, 0.0], np.eye(2), [1.5e308, 0.0]),  # centring overflows
            ([0.0, 0.0], [[1e300], [1e300]], [1e10, 1e10]),  # the product overflows
        ],
        ids=["centring", "product"],
    )
    def test_overflowing_finite_row_rejected(self, mean, matrix, row):
        t = whitening.WhiteningTransform(
            mean=np.array(mean), matrix=np.array(matrix), fit_count=2, eps=0.0
        )
        data = np.zeros((whitening.TILE_ROWS + 3, 2))
        data[-2] = row
        with pytest.raises(errors.NonFinite, match="overflows float64"):
            whitening.apply_batch(t, data)
        with pytest.raises(errors.NonFinite, match="overflows float64"):
            whitening.apply(t, np.array(row))

    def test_dims_read_off_the_matrix(self):
        t = whitening.WhiteningTransform(
            mean=np.zeros(3), matrix=np.ones((3, 2)), fit_count=2, eps=0.0
        )
        assert (t.input_dim, t.output_dim) == (3, 2)
        assert whitening.truncate(t, 1).output_dim == 1
        with pytest.raises(errors.DimensionMismatch, match="expects 3"):
            whitening.apply_batch(t, np.zeros((1, 2)))

    @pytest.mark.parametrize(
        "mean, matrix",
        [(np.zeros(3), np.eye(2)), (np.zeros((2, 1)), np.eye(2)), (np.zeros(2), np.ones(2)),
         (np.zeros(2), np.zeros((2, 0))), (np.zeros(0), np.zeros((0, 2)))],
        ids=["mean-length", "mean-2d", "matrix-1d", "matrix-no-columns", "matrix-no-rows"],
    )
    def test_mean_and_matrix_shapes_checked_at_construction(self, mean, matrix):
        with pytest.raises(errors.DimensionMismatch):
            whitening.WhiteningTransform(mean=mean, matrix=matrix, fit_count=2, eps=0.0)


class TestConstruction:
    """WhiteningTransform owns the transform invariants: every constructed one is valid."""

    def test_lists_become_read_only_float64_arrays(self):
        t = whitening.WhiteningTransform(
            mean=[0.0, 0.0], matrix=[[1.0, 0.0], [0.0, 1.0]], fit_count=2, eps=0.0
        )
        assert (t.input_dim, t.output_dim) == (2, 2)
        assert np.array_equal(whitening.apply_batch(t, [[3.0, 4.0]]), [[3.0, 4.0]])
        for a in (t.mean, t.matrix):
            assert a.dtype == np.float64 and a.flags.c_contiguous and not a.flags.writeable

    def test_caller_writes_do_not_reach_the_transform(self):
        mean, matrix = np.zeros(2), np.eye(2)
        t = whitening.WhiteningTransform(mean=mean, matrix=matrix, fit_count=2, eps=0.0)
        mean[0] = matrix[0, 0] = 5.0
        assert np.array_equal(t.mean, np.zeros(2)) and np.array_equal(t.matrix, np.eye(2))

    def test_fortran_order_matrix_stored_c_contiguous(self):
        matrix = np.asfortranarray(np.arange(6.0).reshape(3, 2))
        t = whitening.WhiteningTransform(mean=np.zeros(3), matrix=matrix, fit_count=2, eps=0.0)
        assert t.matrix.flags.c_contiguous and np.array_equal(t.matrix, matrix)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["mean", "matrix"])
    def test_non_finite_values_refused_at_construction(self, field, bad):
        values = {"mean": np.zeros(2), "matrix": np.eye(2)}
        values[field].flat[1] = bad
        with pytest.raises(errors.NonFinite):
            whitening.WhiteningTransform(**values, fit_count=2, eps=0.0)

    @pytest.mark.parametrize(
        "fit_count, eps",
        [(0, 0.0), (-3, 0.0), (2.0, 0.0), (True, 0.0), (2, np.nan), (2, -1.0), (2, np.inf),
         (2, False), (2, None)],
    )
    def test_metadata_checked_at_construction(self, fit_count, eps):
        with pytest.raises(errors.InvalidParameter):
            whitening.WhiteningTransform(
                mean=np.zeros(2), matrix=np.eye(2), fit_count=fit_count, eps=eps
            )

    @pytest.mark.parametrize(
        "field, value",
        [("mean", np.zeros(2, dtype=complex)), ("matrix", np.eye(2, dtype=complex)),
         ("mean", ["0", "0"]), ("matrix", np.array([[b"1", b"0"], [b"0", b"1"]])),
         ("matrix", [[1.0], [1.0, 2.0]]), ("matrix", [[10**400, 0.0], [0.0, 1.0]]),
         ("mean", np.array(["0", "0"], dtype=object))],
        ids=["complex-mean", "complex-matrix", "string-mean", "bytes-matrix",
             "ragged-matrix", "beyond-float64", "object-string-mean"],
    )
    def test_values_that_are_not_real_refused(self, field, value):
        values = {"mean": np.zeros(2), "matrix": np.eye(2), field: value}
        with pytest.raises(errors.InvalidParameter, match=field):
            whitening.WhiteningTransform(**values, fit_count=2, eps=0.0)

    def test_numpy_scalar_metadata_stored_as_python_numbers(self):
        t = whitening.WhiteningTransform(
            mean=np.zeros(2), matrix=np.eye(2), fit_count=np.int64(5), eps=np.float32(0.5)
        )
        assert (type(t.fit_count), type(t.eps)) == (int, float)
        assert (t.fit_count, t.eps) == (5, 0.5)


def test_whiteness_property():
    rng = np.random.default_rng(5)
    mix = rng.standard_normal((12, 12))
    x = rng.standard_normal((3000, 12)) @ mix + rng.standard_normal(12) * 5
    t = whitening.fit(x, k="full")
    y = whitening.apply_batch(t, x)
    assert np.max(np.abs(y.mean(axis=0))) <= 1e-8
    cov = np.cov(y, rowvar=False, bias=True)
    assert np.max(np.abs(cov - np.eye(t.output_dim))) <= 1e-6


def test_pca_equivalence_unit_variance_per_column():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((2000, 8)) * np.array([5, 4, 3, 2, 1, 0.5, 0.2, 0.1])
    t = whitening.fit(x, k=3)
    y = whitening.apply_batch(t, x)
    variances = (y**2).mean(axis=0) - y.mean(axis=0) ** 2
    assert np.allclose(variances, 1.0, atol=1e-8)


class TestRowBlocks:
    def test_slices_cover_the_rows_in_order(self):
        x = np.arange(2 * streaming.BLOCK_ROWS + 6, dtype=np.float32).reshape(-1, 2)
        blocks = list(streaming.row_blocks(x))
        assert [b.shape[0] for b in blocks] == [streaming.BLOCK_ROWS, 3]
        assert all(b.dtype == np.float32 for b in blocks)
        assert np.array_equal(np.concatenate(blocks), x)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.float16, np.int64, np.int8])
    def test_float32_kept_other_dtypes_widened_to_float64(self, dtype):
        x = np.arange(12).reshape(6, 2).astype(dtype)
        (block,) = streaming.row_blocks(x)
        assert block.dtype == (np.float32 if dtype == np.float32 else np.float64)
        assert np.shares_memory(block, x) == (dtype in (np.float32, np.float64))
        assert np.array_equal(block, x)

    def test_empty_matrix_gives_one_empty_slice(self):
        (block,) = streaming.row_blocks(np.empty((0, 5)))
        assert block.shape == (0, 5)

    @pytest.mark.parametrize("shape", [(4,), (2, 3, 4)])
    def test_shape_checked_at_the_call(self, shape):
        with pytest.raises(errors.DimensionMismatch):
            streaming.row_blocks(np.ones(shape))


class TestFitFromMoments:
    def test_fit_is_one_block_of_moments(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((300, 6)) @ rng.standard_normal((6, 6))
        state = streaming.MomentState()
        state.update(x)
        direct = whitening.fit(x, k=4)
        staged = whitening.fit_from_moments(state, k=4)
        assert np.array_equal(direct.matrix, staged.matrix)
        assert np.array_equal(direct.mean, staged.mean)
        assert staged.fit_count == 300 and staged.input_dim == 6

    def test_streamed_blocks_match_batch_fit(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((1000, 5)) @ rng.standard_normal((5, 5)) + 4.0
        state = streaming.MomentState()
        for start in range(0, 1000, 128):
            state.update(x[start : start + 128])
        staged = whitening.fit_from_moments(state, k="full")
        direct = whitening.fit(x, k="full")
        assert np.max(np.abs(staged.matrix - direct.matrix)) <= 1e-10
        assert np.max(np.abs(staged.mean - direct.mean)) <= 1e-12

    def test_needs_two_points(self):
        with pytest.raises(errors.EmptyInput):
            whitening.fit_from_moments(streaming.MomentState(), k="full")
        state = streaming.MomentState()
        state.update(np.ones(3))
        with pytest.raises(errors.EmptyInput):
            whitening.fit_from_moments(state, k="full")

    def test_k_checked_against_state_dim(self):
        state = streaming.MomentState()
        state.update(FOUR_POINTS)
        with pytest.raises(errors.DimensionMismatch):
            whitening.fit_from_moments(state, k=3)

    def test_matrix_and_moments_not_interchangeable(self):
        state = streaming.MomentState()
        state.update(FOUR_POINTS)
        with pytest.raises(errors.InvalidParameter):
            whitening.fit_from_moments(FOUR_POINTS, k="full")
        with pytest.raises(errors.InvalidParameter):
            whitening.fit(state, k="full")
