"""Fuzzers for the transform JSON loader and the gold-score reader.

Transform cases start from a valid whitening-v1 document and replace,
delete or reshape fields with arbitrary JSON values (huge integers, NaN
and Infinity literals, nested containers), or damage the serialized text
(truncation, spliced bytes, deep nesting). Gold cases are arbitrary bytes
and number-like lines. Only WhitevecError or OSError may escape
load_transform and read_gold, and `whitevec transform` and `whitevec
eval` must return 0, 1 or 2 without raising.
"""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from whitevec import errors, fileio
from whitevec.cli import run

KEYS = ["format", "input_dim", "output_dim", "mean", "matrix", "fit_count", "eps"]
HUGE_INTS = [10**400, -(10**400), 2**63, 2**64, -(2**63) - 1]
DEEP = b"[" * 100_000
LONG_INT = b'{"format": "whitening-v1", "eps": ' + b"9" * 5000 + b"}"

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from(HUGE_INTS)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=6),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=12,
)


@st.composite
def transform_json(draw) -> bytes:
    d = draw(st.integers(min_value=1, max_value=4))
    k = draw(st.integers(min_value=1, max_value=d))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    doc = {
        "format": "whitening-v1",
        "input_dim": d,
        "output_dim": k,
        "mean": rng.standard_normal(d).tolist(),
        "matrix": rng.standard_normal((d, k)).tolist(),
        "fit_count": int(rng.integers(2, 100)),
        "eps": float(rng.uniform(0, 1e-9)),
    }
    for key in draw(st.lists(st.sampled_from(KEYS), max_size=3, unique=True)):
        action = draw(st.sampled_from(["replace", "delete", "reshape"]))
        if action == "delete":
            del doc[key]
        elif action == "replace" or key not in ("mean", "matrix"):
            doc[key] = draw(json_values)
        else:
            value = np.asarray(doc[key])
            doc[key] = draw(st.sampled_from([
                value.ravel().tolist(),
                value[:-1].tolist(),
                np.concatenate([value, value[:1]]).tolist(),
                [value.tolist()],
                [[x] for x in value.ravel().tolist()],
            ]))
    if draw(st.booleans()):
        doc = draw(st.one_of(st.just(doc), st.just([doc]), json_values))
    raw = json.dumps(doc).encode("utf-8")
    cut = draw(st.integers(min_value=0, max_value=len(raw)))
    raw = draw(st.sampled_from([raw, raw[:cut], raw[:cut] + draw(st.binary(max_size=8)) + raw[cut:]]))
    return raw


gold_lines = st.lists(
    st.sampled_from(["1", "-2.5", "4.2e1", "nan", "inf", "-inf", "1e999", "", " ", "\r",
                     "abc", "0x10", "1_0", "\u0661", "\x00", "1 2", "\ufeff3"]),
    max_size=8,
)
gold_bytes = st.one_of(
    st.binary(max_size=40),
    gold_lines.map(lambda lines: "\n".join(lines).encode("utf-8")),
)


def _outcome(fn):
    try:
        return fn()
    except (errors.WhitevecError, OSError) as e:
        return e


def _doc(**fields) -> bytes:
    doc = {"format": "whitening-v1", "input_dim": 2, "output_dim": 1,
           "mean": [1.0, 2.0], "matrix": [[1.0], [0.5]], "fit_count": 10, "eps": 0.0}
    return json.dumps({**doc, **fields}).encode("utf-8")


# np.array(..., dtype=float64) parses these as numbers.
STRING_MEAN = _doc(mean=["1", "2"])
BOOL_MATRIX = _doc(matrix=[[True], [False]])


@settings(max_examples=200, deadline=None)
@given(raw=transform_json())
@example(raw=STRING_MEAN)
@example(raw=BOOL_MATRIX)
@example(raw=DEEP)
@example(raw=b'{"a":' * 100_000)
@example(raw=LONG_INT)
@example(raw=b"\xff\xfe{}")
def test_transform_loader_raises_only_typed_errors(tmp_path_factory, raw):
    work = tmp_path_factory.mktemp("fuzz")
    path = work / "w.json"
    path.write_bytes(raw)
    _outcome(lambda: fileio.load_transform(path))

    data = work / "x.emb1"
    fileio.write_emb1(data, np.random.default_rng(0).standard_normal((5, 3)))
    argv = ["transform", "--input", str(data), "--transform", str(path),
            "--out", str(work / "y.emb1")]
    assert run(argv) in (0, 1, 2)


@pytest.mark.parametrize(
    "raw",
    [STRING_MEAN, BOOL_MATRIX, _doc(mean=[1.0, None]), _doc(matrix=[[1.0], ["0.5"]]),
     _doc(mean=[True, 2.0]), _doc(matrix=[1.0, 0.5])],
)
def test_non_number_elements_are_schema_mismatch(tmp_path, raw):
    path = tmp_path / "w.json"
    path.write_bytes(raw)
    with pytest.raises(errors.SchemaMismatch):
        fileio.load_transform(path)
    path.write_bytes(_doc())
    assert fileio.load_transform(path).matrix.tolist() == [[1.0], [0.5]]


@settings(max_examples=200, deadline=None)
@given(raw=gold_bytes)
@example(raw=b"\xff\xfe")
@example(raw=b"1\n\n2\n")
def test_gold_reader_raises_only_typed_errors(tmp_path_factory, raw):
    work = tmp_path_factory.mktemp("fuzz")
    path = work / "gold.txt"
    path.write_bytes(raw)
    gold = _outcome(lambda: fileio.read_gold(path))
    if isinstance(gold, np.ndarray):
        assert gold.dtype == np.float64 and np.all(np.isfinite(gold))

    rng = np.random.default_rng(1)
    n = gold.shape[0] if isinstance(gold, np.ndarray) and gold.shape[0] else 3
    fileio.write_emb1(work / "l.emb1", rng.standard_normal((n, 3)))
    fileio.write_emb1(work / "r.emb1", rng.standard_normal((n, 3)))
    argv = ["eval", "--left", str(work / "l.emb1"), "--right", str(work / "r.emb1"),
            "--gold", str(path), "--report", "tsv", "--out", str(work / "e.tsv")]
    assert run(argv) in (0, 1, 2)
