import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whitevec import errors, retrieval, streaming, whitening

FOUR_POINTS = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 2.0], [0.0, -2.0]])


def feed(rows):
    state = streaming.MomentState()
    for row in rows:
        state.update(np.asarray(row, dtype=np.float64))
    return state


def test_single_point():
    state = feed([[3.0, -1.0]])
    assert state.count == 1
    assert np.array_equal(state.mean, [3.0, -1.0])
    assert np.array_equal(state.scatter, np.zeros((2, 2)))


def test_two_points_match_batch_oracle():
    mean, cov = streaming.finalize(feed([[0.0, 0.0], [2.0, 0.0]]))
    assert np.allclose(mean, [1.0, 0.0], atol=1e-15)
    assert np.allclose(cov, [[1.0, 0.0], [0.0, 0.0]], atol=1e-15)


@pytest.mark.parametrize("perm", [(0, 1, 2, 3), (3, 2, 1, 0), (2, 0, 3, 1)])
def test_four_points_any_order(perm):
    mean, cov = streaming.finalize(feed(FOUR_POINTS[list(perm)]))
    assert np.max(np.abs(mean)) <= 1e-12
    assert np.max(np.abs(cov - [[0.5, 0.0], [0.0, 2.0]])) <= 1e-12


def test_finalize_single_point_zero_covariance():
    _, cov = streaming.finalize(feed([[7.0, 7.0, 7.0]]))
    assert np.array_equal(cov, np.zeros((3, 3)))


def test_finalize_empty_errors():
    with pytest.raises(errors.EmptyInput):
        streaming.finalize(streaming.MomentState())


def test_dimension_fixed_by_first_update():
    state = feed([[1.0, 2.0]])
    with pytest.raises(errors.DimensionMismatch):
        state.update(np.zeros(3))


def test_nonfinite_rejected():
    state = streaming.MomentState()
    with pytest.raises(errors.NonFinite):
        state.update(np.array([1.0, np.nan]))


def test_gaussian_matches_batch_functions():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((1000, 8))
    mean, cov = streaming.finalize(feed(x))
    batch_mean = x.mean(axis=0)
    batch_cov = np.cov(x, rowvar=False, bias=True)
    assert np.max(np.abs(mean - batch_mean)) <= 1e-10
    assert np.max(np.abs(cov - batch_cov)) <= 1e-10


def chan_steps(rows):
    """(count, mean, scatter) after each row, by the out-of-place Chan combination.

    Each step builds new arrays, with a one-row block's zero scatter
    added as 0.0: scatter = (own + 0.0) + outer(delta, delta) * c.
    """
    d = rows.shape[1]
    count, mean, scatter = 0, np.zeros(d), np.zeros((d, d))
    for x in rows:
        total = count + 1
        delta = x - mean
        new_mean = mean + delta * (1 / total)
        new_scatter = scatter + 0.0
        if count:
            new_scatter = new_scatter + np.outer(delta, delta) * (count * 1 / total)
        count, mean, scatter = total, new_mean, new_scatter
        yield count, mean, scatter


def test_row_updates_equal_the_out_of_place_combination_bit_for_bit():
    # Half-integer rows give exact zeros, negative coordinates, repeated
    # rows and sums that cancel to exactly zero; the normal rows do not.
    # While column 3 is zero, its outer products with negative deltas
    # are -0.0, added to a scatter of +0.0.
    rng = np.random.default_rng(21)
    rows = np.concatenate([rng.integers(-3, 4, (300, 5)) / 2, rng.standard_normal((100, 5))])
    rows[150:160] = rows[149]
    rows[:40, 3] = 0.0
    rows[:, 4] = -np.abs(rows[:, 4])
    state = streaming.MomentState()
    zero_sums = 0
    for x, (count, mean, scatter) in zip(rows, chan_steps(rows)):
        state.update(x)
        assert state.count == count
        assert np.array_equal(state.mean, mean) and np.array_equal(state.scatter, scatter)
        # array_equal takes -0.0 for 0.0; the bytes tell them apart.
        assert state.mean.tobytes() == mean.tobytes()
        assert state.scatter.tobytes() == scatter.tobytes()
        if count > 1:
            zero_sums += np.count_nonzero(scatter == 0)
    assert zero_sums > 0


class TestBlockUpdate:
    def test_block_matches_rows(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((257, 6)) * 5.0 + 2.0
        rows = feed(x)
        blocks = streaming.MomentState()
        for start in range(0, 257, 64):
            blocks.update(x[start : start + 64])
        assert blocks.count == rows.count == 257
        assert np.max(np.abs(blocks.mean - rows.mean)) <= 1e-12
        assert np.max(np.abs(blocks.scatter - rows.scatter)) <= 1e-9

    def test_one_block_is_batch_moments(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((500, 7))
        state = streaming.MomentState()
        state.update(x)
        mean, cov = streaming.finalize(state)
        assert np.array_equal(mean, x.mean(axis=0))
        assert np.array_equal(cov, cov.T)
        assert np.max(np.abs(cov - np.cov(x, rowvar=False, bias=True))) <= 1e-12

    def test_zero_row_block_is_noop(self):
        empty = streaming.MomentState()
        empty.update(np.empty((0, 3)))
        assert empty.count == 0 and empty.dim is None
        state = feed([[1.0, 2.0], [3.0, 5.0]])
        before = state.copy()
        state.update(np.empty((0, 2)))
        assert state.count == 2
        assert np.array_equal(state.mean, before.mean)
        assert np.array_equal(state.scatter, before.scatter)

    def test_block_dim_mismatch(self):
        state = feed([[1.0, 2.0]])
        with pytest.raises(errors.DimensionMismatch):
            state.update(np.zeros((4, 3)))
        with pytest.raises(errors.DimensionMismatch):
            state.update(np.zeros((2, 2, 2)))

    def test_block_nonfinite_rejected(self):
        block = np.ones((5, 2))
        block[3, 1] = np.inf
        state = streaming.MomentState()
        with pytest.raises(errors.NonFinite):
            state.update(block)
        assert state.count == 0


class TestMerge:
    def test_empty_is_identity(self):
        s = feed([[1.0, 2.0], [3.0, 4.0]])
        for merged in (streaming.merge(s, streaming.MomentState()),
                       streaming.merge(streaming.MomentState(), s)):
            assert merged.count == s.count
            assert np.array_equal(merged.mean, s.mean)
            assert np.array_equal(merged.scatter, s.scatter)
            assert merged.mean is not s.mean and merged.scatter is not s.scatter
        both_empty = streaming.merge(streaming.MomentState(), streaming.MomentState())
        assert both_empty.count == 0 and both_empty.dim is None

    def test_two_singletons(self):
        merged = streaming.merge(feed([[0.0, 0.0]]), feed([[2.0, 0.0]]))
        mean, cov = streaming.finalize(merged)
        assert np.allclose(mean, [1.0, 0.0], atol=1e-15)
        assert np.allclose(cov, [[1.0, 0.0], [0.0, 0.0]], atol=1e-15)

    def test_commutative_up_to_roundoff(self):
        rng = np.random.default_rng(1)
        a = feed(rng.standard_normal((40, 5)))
        b = feed(rng.standard_normal((17, 5)))
        ab = streaming.merge(a, b)
        ba = streaming.merge(b, a)
        assert np.max(np.abs(ab.mean - ba.mean)) <= 1e-10
        assert np.max(np.abs(ab.scatter - ba.scatter)) <= 1e-10

    def test_associative_up_to_roundoff(self):
        rng = np.random.default_rng(2)
        parts = [feed(rng.standard_normal((n, 4))) for n in (11, 23, 7)]
        left = streaming.merge(streaming.merge(parts[0], parts[1]), parts[2])
        right = streaming.merge(parts[0], streaming.merge(parts[1], parts[2]))
        assert np.max(np.abs(left.mean - right.mean)) <= 1e-10
        assert np.max(np.abs(left.scatter - right.scatter)) <= 1e-10

    def test_dim_mismatch(self):
        with pytest.raises(errors.DimensionMismatch):
            streaming.merge(feed([[1.0, 2.0]]), feed([[1.0, 2.0, 3.0]]))


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=120),
    d=st.integers(min_value=1, max_value=12),
    split=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_streaming_equals_batch_and_merge(n, d, split, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d)) * 3.0 + rng.standard_normal(d)
    mean, cov = streaming.finalize(feed(x))
    batch_mean = x.mean(axis=0)
    batch_cov = np.cov(x, rowvar=False, bias=True)
    assert np.max(np.abs(mean - batch_mean)) <= 1e-10
    assert np.max(np.abs(cov - batch_cov)) <= 1e-10

    cut = int(round(split * n))
    merged = streaming.merge(feed(x[:cut]), feed(x[cut:]))
    m_mean, m_cov = streaming.finalize(merged)
    assert np.max(np.abs(m_mean - batch_mean)) <= 1e-10
    assert np.max(np.abs(m_cov - batch_cov)) <= 1e-10


def test_state_size_constant_in_n():
    small = feed(np.ones((3, 6)))
    big = feed(np.random.default_rng(3).standard_normal((500, 6)))
    assert small.scatter.shape == big.scatter.shape == (6, 6)
    assert small.mean.shape == big.mean.shape == (6,)


HUGE = np.array([[1e300, -1e300], [-1e300, 1e300], [1e300, 1e300]])


def assert_same_state(state, before):
    assert state.count == before.count
    assert np.array_equal(state.mean, before.mean)
    assert np.array_equal(state.scatter, before.scatter)


@pytest.mark.filterwarnings("error")
class TestOverflow:
    def test_row_update_raises_and_keeps_state(self):
        state = feed(HUGE[:1])
        before = state.copy()
        with pytest.raises(errors.NonFinite, match="overflows float64"):
            state.update(HUGE[1])
        assert_same_state(state, before)

    def test_block_update_raises_and_keeps_state(self):
        empty = streaming.MomentState()
        with pytest.raises(errors.NonFinite, match="overflows float64"):
            empty.update(HUGE)
        assert empty.count == 0 and empty.dim is None
        state = feed([[1.0, 2.0], [3.0, 4.0]])
        before = state.copy()
        with pytest.raises(errors.NonFinite, match="overflows float64"):
            state.update(HUGE)
        assert_same_state(state, before)

    def test_combination_overflow_raises(self):
        # Each block is finite on its own; the cross term is not.
        state = streaming.MomentState()
        state.update(np.full((2, 2), 1e200))
        before = state.copy()
        with pytest.raises(errors.NonFinite, match="overflows float64"):
            state.update(np.full((2, 2), -1e200))
        assert_same_state(state, before)

    def test_merge_overflow_raises_and_keeps_inputs(self):
        a, b = feed([[1e200, 0.0]]), feed([[-1e200, 0.0]])
        a_before, b_before = a.copy(), b.copy()
        with pytest.raises(errors.NonFinite, match="overflows float64"):
            streaming.merge(a, b)
        assert_same_state(a, a_before)
        assert_same_state(b, b_before)

    def test_large_but_representable_values_pass(self):
        mean, cov = streaming.finalize(feed(HUGE * 1e-150))
        assert np.all(np.isfinite(cov)) and np.all(np.isfinite(mean))


NOT_REAL = {
    "complex": np.ones((3, 2), dtype=complex),
    "string": [["1", "2"], ["3", "5"], ["4", "9"]],
    "bytes": np.array([[b"1", b"2"], [b"3", b"5"], [b"4", b"9"]]),
    "ragged": [[1.0], [1.0, 2.0], [3.0, 4.0]],
    "beyond-float64": [[1.0, 10**400], [3.0, 5.0], [4.0, 9.0]],
    # Object arrays follow the same rule, element by element: no parsing, no None as NaN.
    "object-string": np.array([["1", "2"], ["3", "5"], ["4", "9"]], dtype=object),
    "object-bytes": np.array([[b"1", 2.0], [3.0, 5.0], [4.0, 9.0]], dtype=object),
    "object-none": [[None, 1.0], [3.0, 5.0], [4.0, 9.0]],
    "object-complex": np.array([[1 + 0j, 2.0], [3.0, 5.0], [4.0, 9.0]], dtype=object),
}
ROW_READERS = {
    "as_rows": lambda x: streaming.as_rows(x, None, "rows"),
    "update": lambda x: streaming.MomentState().update(x),
    "fit": lambda x: whitening.fit(x, "full"),
    "build_index": retrieval.build_index,
}


@pytest.mark.parametrize("values", NOT_REAL.values(), ids=NOT_REAL.keys())
@pytest.mark.parametrize("reader", ROW_READERS.values(), ids=ROW_READERS.keys())
def test_rows_that_are_not_real_refused(reader, values):
    with pytest.raises(errors.InvalidParameter, match="real numbers"):
        reader(values)


@pytest.mark.parametrize(
    "values",
    [np.array([[True, False]]), np.array([[1, 2]], dtype=np.uint8), [[1, 2**70]],
     np.array([[0.5, 2.0]], dtype=np.float16),
     np.array([[np.True_, np.float32(0.5)], [np.int8(3), 2**70]], dtype=object)],
    ids=["bool", "uint8", "int-beyond-int64", "float16", "object-numpy-scalars"],
)
def test_real_rows_become_float64(values):
    rows = streaming.as_rows(values, 2, "rows")
    assert rows.dtype == np.float64
    assert np.array_equal(rows, np.array(values, dtype=np.float64))
