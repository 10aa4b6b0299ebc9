"""Mutation fuzzer for the EMB1 block decoder shared by read_emb1 and iter_emb1.

Each case starts from a valid file, mutates the magic, version, dtype
code, count or dim, and truncates or extends the payload. Both readers
must agree bit for bit (the streamed blocks keep the file's dtype and
are read-only; upcast, they equal the bulk read) or raise the same
WhitevecError subclass, and
the CLI commands that read EMB1 must exit 0 or 1 without raising.
"""

import struct
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from whitevec import errors, fileio
from whitevec.cli import run

HEADER = struct.Struct("<4sIQIB11s")
HUGE_EMPTY = HEADER.pack(b"EMB1", 1, 2**40, 4, 1, b"\x00" * 11)


def _either(original, alternatives):
    return st.one_of(st.just(original), st.sampled_from(alternatives))


@st.composite
def mutated_emb1(draw) -> bytes:
    count = draw(st.integers(min_value=0, max_value=12))
    dim = draw(st.integers(min_value=1, max_value=6))
    code = draw(st.sampled_from([0, 1]))
    dtype = fileio.DTYPES[code]
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
        values = rng.standard_normal((count, dim)) * 10.0 ** rng.integers(-3, 4)
        payload = values.astype(dtype).tobytes()
    else:
        size = count * dim * dtype.itemsize
        payload = draw(st.binary(min_size=size, max_size=size))

    magic = draw(_either(b"EMB1", [b"EMB0", b"\x00" * 4, b"1BME"]))
    version = draw(_either(1, [0, 2, 2**32 - 1]))
    code = draw(_either(code, [0, 1, 2, 255]))
    count = draw(_either(count, [0, 1, count + 1, max(count - 1, 0), 2**40, 2**64 - 1]))
    dim = draw(_either(dim, [0, 1, dim + 1, 2**32 - 1]))
    cut = draw(st.integers(min_value=0, max_value=len(payload)))
    payload = draw(st.sampled_from([payload, payload[:cut]]))
    payload += draw(st.binary(max_size=24))
    return HEADER.pack(magic, version, count, dim, code, b"\x00" * 11) + payload


def _outcome(fn):
    try:
        return fn()
    except errors.WhitevecError as e:
        return type(e)


@settings(max_examples=150, deadline=None)
@given(raw=mutated_emb1(), batch_rows=st.integers(min_value=1, max_value=5))
@example(raw=HUGE_EMPTY, batch_rows=1)
@example(raw=HUGE_EMPTY, batch_rows=4096)
def test_readers_agree_and_cli_exits_cleanly(tmp_path_factory, raw, batch_rows):
    work = tmp_path_factory.mktemp("fuzz")
    path = work / "m.emb1"
    path.write_bytes(raw)

    # The bulk read keeps the default block size; only the streamed read
    # and the CLI runs go through 1-5-row blocks.
    bulk = _outcome(lambda: fileio.read_emb1(path))
    with mock.patch.object(fileio, "BLOCK_ROWS", batch_rows):
        streamed = _outcome(lambda: list(fileio.iter_emb1(path)))
        if raw == HUGE_EMPTY:
            assert bulk is streamed is errors.TruncatedPayload
        if isinstance(bulk, np.ndarray):
            assert isinstance(streamed, list)
            dtype = fileio.read_emb1_header(path).dtype
            assert all(b.dtype == dtype and not b.flags.writeable for b in streamed)
            joined = np.concatenate([np.empty((0, bulk.shape[1]), dtype), *streamed])
            assert bulk.dtype == np.float64
            assert joined.shape == bulk.shape
            assert joined.astype(np.float64).tobytes() == bulk.tobytes()
        else:
            assert streamed is bulk

        assert run(["stats", "--input", str(path)]) in (0, 1)
        fit = ["fit", "--input", str(path), "--k", "full", "--out", str(work / "w.json")]
        assert run(fit) in (0, 1)
