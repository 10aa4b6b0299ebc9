"""Each one-row or in-memory form is a plain call of its batch or block form.

``apply``, ``top_k`` and ``write_emb1`` make no conversion or check of
their own, so for every input they give the same bits, or raise the
same error type, as the batch or block call they stand for.
"""

import numpy as np
import pytest

from whitevec import errors, fileio, retrieval, streaming, whitening

D = 4
rng = np.random.default_rng(31)
INPUTS = {
    "float64": rng.standard_normal(D),
    "float32": rng.standard_normal(D).astype(np.float32),
    "int64": np.arange(1, D + 1),
    "list": [0.5, -1.0, 2.0, 3.0],
    "0-D": np.float64(1.5),
    "1xd": rng.standard_normal((1, D)),
    "wrong width": rng.standard_normal(D + 1),
}
T = whitening.fit(rng.standard_normal((50, D)), k=3)
INDEX = retrieval.build_index(rng.standard_normal((40, D)))


def bits(a: np.ndarray):
    return a.dtype.str, a.shape, a.tobytes()


def written(x, path):
    fileio.write_emb1(path, x)
    return path.read_bytes()


def written_as_blocks(x, path):
    fileio.write_emb1_blocks(path, streaming.row_blocks(x), *np.shape(x))
    return path.read_bytes()


# form: (one-row or in-memory call, its batch or block call, inputs it refuses)
FORMS = {
    "apply": (
        lambda x, _: bits(whitening.apply(T, x)),
        lambda x, _: bits(whitening.apply_batch(T, np.asarray(x)[np.newaxis])[0]),
        {"0-D", "1xd", "wrong width"},
    ),
    "top_k": (
        lambda x, _: tuple(map(bits, retrieval.top_k(INDEX, x, 5))),
        lambda x, _: tuple(
            bits(a[0]) for a in retrieval.top_k_batch(INDEX, np.asarray(x)[np.newaxis], 5)
        ),
        {"0-D", "1xd", "wrong width"},
    ),
    "write_emb1": (written, written_as_blocks, set(INPUTS) - {"1xd"}),
}


def outcome(call, *args):
    """``call(*args)``'s result, or the type of the WhitevecError it raises."""
    try:
        return call(*args)
    except errors.WhitevecError as e:
        return type(e)


@pytest.mark.parametrize("name", INPUTS)
@pytest.mark.parametrize("form", FORMS)
def test_one_row_form_is_its_batch_call(form, name, tmp_path):
    single, batch, refused = FORMS[form]
    x = INPUTS[name]
    got = outcome(single, x, tmp_path / "single.emb1")
    assert got == outcome(batch, x, tmp_path / "batch.emb1")
    assert (got is errors.DimensionMismatch) == (name in refused)
