"""Differential fuzzing of ``search`` through ``cli.run``, over many small chunks.

Index and query EMB1 files, float32 or float64, hold rows whose unit
vectors have entries in {0, +-0.5, +-1}, times powers of two: every
norm, unit vector and cosine is exact in float32, so ties are exact and
no summation order can move a hit. Indexes have duplicate and zero rows
(possibly every row, or none at all); queries may repeat index rows or
have zero norm. ``top_k_batch``'s QUERY_TILE, SELECT_CLASSES and
SCORE_FLOATS are drawn small, so the queries span several tiles and the
index several chunks; runs of one row longer than a chunk tie across
chunk edges with the running k-th best. ``--top`` is 1, the index size,
the index size + 3 or any value up to that, 0 included, or a value from
SELECT_CLASSES - 1 to 2 * SELECT_CLASSES + 1.

Each case must either exit 0 with the output of a full sort of exact
cosines (ties by ascending id), or exit 1 with one typed
``Code: message`` line, or exit 2 (a usage error), and then write no
output. The expected outcome is known for each case, so it is asserted.
"""

import contextlib
import io
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from whitevec import errors, fileio, retrieval
from whitevec.cli import run

from test_retrieval import exact_rows

ERROR_CODES = {cls.code for cls in vars(errors).values()
               if isinstance(cls, type) and issubclass(cls, errors.WhitevecError)}


@st.composite
def search_cases(draw):
    d = draw(st.integers(min_value=1, max_value=6))
    n = draw(st.integers(min_value=0, max_value=30))
    nq = draw(st.integers(min_value=0, max_value=12))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    index = exact_rows(rng, n, d)
    queries = exact_rows(rng, nq, d)
    constants = {
        "QUERY_TILE": draw(st.integers(min_value=1, max_value=5)),
        "SELECT_CLASSES": draw(st.integers(min_value=1, max_value=4)),
        "SCORE_FLOATS": draw(st.integers(min_value=1, max_value=40)),
    }
    classes = constants["SELECT_CLASSES"]
    top = draw(st.one_of(
        st.sampled_from([1, n, n + 3]),
        st.integers(min_value=0, max_value=n + 3),
        st.integers(min_value=classes - 1, max_value=2 * classes + 1),
    ))
    if n:
        # Runs of one row longer than top_k_batch's chunks (at most
        # ``rows`` index rows), so each crosses at least one chunk edge.
        tile = min(constants["QUERY_TILE"], max(nq, 1))
        rows = max(constants["SCORE_FLOATS"] // tile // classes * classes, top, classes)
        for start in draw(st.lists(st.integers(min_value=0, max_value=n - 1), max_size=2)):
            length = draw(st.integers(min_value=rows + 1, max_value=3 * rows + 1))
            index[start : start + length] = index[start]
        row = st.integers(min_value=0, max_value=n - 1)
        for i, j in draw(st.lists(st.tuples(row, row), max_size=8)):
            index[i] = index[j]
        index[draw(st.lists(row, max_size=n))] = 0.0
        if nq:
            for q, i in draw(st.lists(st.tuples(st.integers(0, nq - 1), row), max_size=3)):
                queries[q] = index[i]
    if nq and draw(st.booleans()):
        queries[draw(st.integers(min_value=0, max_value=nq - 1))] = 0.0
    dtypes = [draw(st.sampled_from(["float32", "float64"])) for _ in range(2)]
    return index, queries, top, constants, dtypes


def oracle(index: np.ndarray, queries: np.ndarray, top: int) -> str:
    """The search TSV from a full sort of exact float64 cosines."""
    norms = np.sqrt(np.vecdot(index, index))
    ids = np.flatnonzero(norms >= retrieval.ZERO_NORM)
    unit = index[ids] / norms[ids, np.newaxis]
    lines = []
    for row, q in enumerate(queries):
        scores = unit @ (q / np.sqrt(np.vecdot(q, q)))
        ranked = sorted(zip(ids.tolist(), scores.tolist()), key=lambda p: (-p[1], p[0]))
        for rank, (vec_id, score) in enumerate(ranked[:top], start=1):
            lines.append(f"{row}\t{rank}\t{vec_id}\t{score:.6f}\n")
    return "".join(lines)


def run_cli(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as e:  # argparse's usage errors
            code = e.code
    return code, err.getvalue()


@settings(max_examples=150, deadline=None)
@given(case=search_cases())
@example(case=(np.eye(3), np.ones((2, 3)), 6,
               {"QUERY_TILE": 1, "SELECT_CLASSES": 1, "SCORE_FLOATS": 1}, ["float32", "float64"]))
@example(case=(np.repeat(np.eye(2), 7, axis=0), np.array([[1.0, 1.0], [0.0, 0.0]]), 14,
               {"QUERY_TILE": 2, "SELECT_CLASSES": 2, "SCORE_FLOATS": 8}, ["float64", "float64"]))
@example(case=(np.zeros((4, 2)), np.ones((3, 2)), 4,
               {"QUERY_TILE": 2, "SELECT_CLASSES": 2, "SCORE_FLOATS": 8}, ["float32", "float32"]))
@example(case=(np.repeat(np.eye(3), [2, 25, 3], axis=0), np.array([[0.0, 1.0, 0.0], [1.0, 1.0, 1.0]]),
               5, {"QUERY_TILE": 2, "SELECT_CLASSES": 4, "SCORE_FLOATS": 8}, ["float32", "float64"]))
def test_search_matches_full_sort_or_fails_typed(tmp_path_factory, case):
    index, queries, top, constants, (index_dtype, query_dtype) = case
    work = tmp_path_factory.mktemp("search")
    fileio.write_emb1(work / "index.emb1", index, index_dtype)
    fileio.write_emb1(work / "query.emb1", queries, query_dtype)
    out = work / "hits.tsv"
    argv = ["search", "--index", str(work / "index.emb1"), "--query", str(work / "query.emb1"),
            "--top", str(top), "--out", str(out)]
    with pytest.MonkeyPatch.context() as mp:
        for name, value in constants.items():
            mp.setattr(retrieval, name, value)
        code, err = run_cli(argv)

    zero_query = np.any(np.vecdot(queries, queries) == 0.0)
    if top < 1:
        assert code == 2 and "--top" in err
    elif index.shape[0] == 0 or zero_query:
        assert code == 1
        line = re.fullmatch(r"(\w+): [^\n]+\n", err)
        assert line and line.group(1) == ("EmptyInput" if index.shape[0] == 0 else "ZeroVector")
        assert line.group(1) in ERROR_CODES
    else:
        assert code == 0, err
        assert out.read_text() == oracle(index, queries, top)
        return
    assert not out.exists()
