"""float32 EMB1 blocks reach every consumer unconverted.

``iter_emb1`` yields a float32 file's blocks as float32, and each
consumer upcasts them in its first arithmetic step. float32 -> float64
is exact, so every result must equal, bit for bit, the result on the
same blocks upcast first, and every finiteness check must still fire.
"""

import numpy as np
import pytest

from whitevec import errors, evaluation, fileio, retrieval, streaming, whitening
from whitevec.evaluation import _pair_cosines

D = 24
N = 3 * whitening.BLOCK_ROWS + 37  # several blocks plus a ragged tail


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    d = tmp_path_factory.mktemp("f32")
    rng = np.random.default_rng(11)
    out = []
    for name in ("left", "right"):
        data = rng.standard_normal((N, D)) * rng.uniform(0.1, 10.0, D) + rng.standard_normal(D) * 5
        data[5] = 0.0  # a zero row, which the index drops and eval skips
        fileio.write_emb1(d / f"{name}.emb1", data, dtype="float32")
        out.append(d / f"{name}.emb1")
    return out


def blocks32(path):
    blocks = list(fileio.iter_emb1(path))
    assert [b.dtype for b in blocks] == [np.float32] * 4
    assert blocks[-1].shape == (37, D)
    return blocks


def upcast(blocks):
    return [b.astype(np.float64) for b in blocks]


def same(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_fold(paths):
    blocks = blocks32(paths[0])
    got, want = streaming.fold(blocks), streaming.fold(upcast(blocks))
    assert got.count == want.count == N
    assert same(got.mean, want.mean) and same(got.scatter, want.scatter)
    # One-row updates, the path `whitevec stats` takes.
    rows = blocks[0][:50]
    got, want = streaming.fold(rows), streaming.fold(rows.astype(np.float64))
    assert same(got.mean, want.mean) and same(got.scatter, want.scatter)


def test_apply_batch(paths):
    blocks = blocks32(paths[0])
    t = whitening.fit_from_moments(streaming.fold(upcast(blocks)), k=9)
    for b, b64 in zip(blocks, upcast(blocks)):
        assert same(whitening.apply_batch(t, b), whitening.apply_batch(t, b64))


def test_row_norms_and_index(paths):
    blocks = blocks32(paths[0])
    for b, b64 in zip(blocks, upcast(blocks)):
        for got, want in zip(retrieval.row_norms(b), retrieval.row_norms(b64)):
            assert same(got, want)
    got = retrieval.build_index_blocks(iter(blocks), N, D)
    want = retrieval.build_index_blocks(iter(upcast(blocks)), N, D)
    assert got.norms_dropped == want.norms_dropped == 1
    assert same(got.vectors, want.vectors) and same(got.ids, want.ids)


def test_pair_cosines(paths):
    for left, right in zip(blocks32(paths[0]), blocks32(paths[1])):
        got = _pair_cosines(left, right)
        want = _pair_cosines(left.astype(np.float64), right.astype(np.float64))
        assert same(got[0], want[0]) and same(got[1], want[1])


def test_paired_dataset_keeps_float32_and_scores_alike(paths):
    left, right = (fileio.read_emb1(p).astype(np.float32) for p in paths)
    gold = np.random.default_rng(12).uniform(0, 5, N)
    data32 = evaluation.PairedDataset(left=left, right=right, gold=gold)
    left64, right64 = left.astype(np.float64), right.astype(np.float64)
    data64 = evaluation.PairedDataset(left=left64, right=right64, gold=gold)
    assert data32.left.dtype == data32.right.dtype == np.float32
    assert np.shares_memory(data32.left, left) and np.shares_memory(data64.left, left64)
    t = whitening.fit_from_moments(evaluation.fit_corpus(data64), k=9)
    assert evaluation.evaluate(data32) == evaluation.evaluate(data64)
    assert evaluation.evaluate(data32).skipped == 1  # the zero row
    assert evaluation.evaluate(data32, t) == evaluation.evaluate(data64, t)
    ks = [4, 16, "full"]
    assert evaluation.sweep_k(data32, ks) == evaluation.sweep_k(data64, ks)


@pytest.mark.parametrize("row", [0, 300])
def test_nan_in_float32_block_is_nonfinite(row):
    """One NaN, +Inf or -Inf value fails each stage's one check, on its own result.

    ``apply_batch`` sees it in its output only because NaN * w and Inf * 0
    are NaN. Two matrices are zero in the bad value's row, so a BLAS that
    skipped zero entries would leave the output finite and fail here.
    """
    zero_rows = np.eye(D)
    zero_rows[::3] = 0.0  # row 3 among them
    one_column = np.ones((D, 1))  # k = 1
    one_column[3] = 0.0
    seen = streaming.fold([np.arange(3.0 * D).reshape(3, D)])  # a non-empty state
    for dtype in (np.float32, np.float64):
        for bad in (np.nan, np.inf, -np.inf):
            block = np.ones((400, D), dtype=dtype)
            block[row, 3] = bad
            # Into an empty and a non-empty state, as a block and as one
            # row (the ``stats`` path): NonFinite, and the state is unchanged.
            for state in (streaming.MomentState(), seen.copy()):
                before = state.copy()
                for rows in (block, block[row]):
                    with pytest.raises(errors.NonFinite, match="NaN or Inf"):
                        state.update(rows)
                    assert state.count == before.count and state.dim == before.dim
                    if before.count:
                        assert np.array_equal(state.mean, before.mean)
                        assert np.array_equal(state.scatter, before.scatter)
            for matrix in (np.eye(D), zero_rows, one_column):
                t = whitening.WhiteningTransform(
                    mean=np.zeros(D), matrix=matrix, fit_count=2, eps=0.0
                )
                with pytest.raises(errors.NonFinite):
                    whitening.apply_batch(t, block)
                with pytest.raises(errors.NonFinite):
                    whitening.apply(t, block[row])
        # +Inf and -Inf in one column of a 2-row block: the column's mean is NaN.
        pair = np.ones((2, D), dtype=dtype)
        pair[:, 3] = np.inf, -np.inf
        with pytest.raises(errors.NonFinite):
            streaming.MomentState().update(pair)
