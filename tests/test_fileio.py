import builtins
import errno
import json
import os
import stat
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whitevec import errors, fileio, streaming, whitening
from whitevec.cli import run


def test_emb1_size_arithmetic(tmp_path):
    path = tmp_path / "tiny.emb1"
    fileio.write_emb1(path, np.array([[1.5, -2.0]]))
    assert path.stat().st_size == 32 + 16
    back = fileio.read_emb1(path)
    assert np.array_equal(back, [[1.5, -2.0]])


def test_emb1_float32_upcast(tmp_path):
    path = tmp_path / "f32.emb1"
    data = np.array([[0.1, 0.2], [0.3, 0.4]])
    fileio.write_emb1(path, data, dtype="float32")
    back = fileio.read_emb1(path)
    assert back.dtype == np.float64
    assert np.array_equal(back, data.astype(np.float32).astype(np.float64))


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.emb1"
    path.write_bytes(b"EMB0" + b"\x00" * 28)
    with pytest.raises(errors.BadMagic):
        fileio.read_emb1(path)


def test_unsupported_version(tmp_path):
    path = tmp_path / "v2.emb1"
    path.write_bytes(struct.pack("<4sIQIB11s", b"EMB1", 2, 0, 0, 1, b"\x00" * 11))
    with pytest.raises(errors.UnsupportedVersion):
        fileio.read_emb1(path)


def test_truncated_payload(tmp_path):
    path = tmp_path / "short.emb1"
    header = struct.pack("<4sIQIB11s", b"EMB1", 1, 4, 8, 1, b"\x00" * 11)
    path.write_bytes(header + b"\x00" * 10)  # declares 4*8*8 bytes
    with pytest.raises(errors.TruncatedPayload):
        fileio.read_emb1(path)


def test_short_header(tmp_path):
    path = tmp_path / "stub.emb1"
    path.write_bytes(b"EMB1")
    with pytest.raises(errors.TruncatedPayload):
        fileio.read_emb1(path)


def test_nonfinite_payload_rejected(tmp_path):
    path = tmp_path / "nan.emb1"
    header = struct.pack("<4sIQIB11s", b"EMB1", 1, 1, 2, 1, b"\x00" * 11)
    path.write_bytes(header + struct.pack("<2d", 1.0, float("nan")))
    with pytest.raises(errors.NonFinite):
        fileio.read_emb1(path)


def test_iter_emb1_matches_bulk_read(tmp_path, monkeypatch):
    rng = np.random.default_rng(0)
    data = rng.standard_normal((100, 7))
    path = tmp_path / "stream.emb1"
    fileio.write_emb1(path, data)
    monkeypatch.setattr(fileio, "BLOCK_ROWS", 9)
    blocks = list(fileio.iter_emb1(path))
    assert len(blocks) == 12
    assert np.array_equal(np.vstack(blocks), data)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=30),
    d=st.integers(min_value=1, max_value=20),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_emb1_roundtrip_bit_exact(tmp_path_factory, n, d, seed):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((n, d)) * rng.uniform(1e-6, 1e6)
    path = tmp_path_factory.mktemp("rt") / "m.emb1"
    fileio.write_emb1(path, data)
    assert np.array_equal(fileio.read_emb1(path), data)


def json_dumps_text(t: whitening.WhiteningTransform) -> bytes:
    """The bytes save_transform wrote when it called json.dumps(doc, indent=1)."""
    doc = {
        "format": fileio.TRANSFORM_FORMAT,
        "input_dim": t.input_dim,
        "output_dim": t.output_dim,
        "mean": t.mean.tolist(),
        "matrix": t.matrix.tolist(),
        "fit_count": t.fit_count,
        "eps": t.eps,
    }
    return (json.dumps(doc, indent=1) + "\n").encode("utf-8")


class TestTransformFile:
    @pytest.fixture
    def transform(self):
        rng = np.random.default_rng(1)
        return whitening.fit(rng.standard_normal((50, 6)), k=4)

    def test_roundtrip_bit_exact(self, tmp_path, transform):
        path = tmp_path / "w.json"
        fileio.save_transform(path, transform)
        back = fileio.load_transform(path)
        assert np.array_equal(back.mean, transform.mean)
        assert np.array_equal(back.matrix, transform.matrix)
        assert back.input_dim == 6 and back.output_dim == 4
        assert back.fit_count == 50 and back.eps == transform.eps
        x = np.random.default_rng(2).standard_normal(6)
        assert np.array_equal(
            whitening.apply(back, x), whitening.apply(transform, x)
        )

    @pytest.mark.parametrize(
        "mean, matrix, fit_count, eps",
        [
            ([-0.0], [[5e-324]], 1, 0.0),
            ([1e308, -1e308], [[3.0], [-0.0]], 2**62 + 1, 1e-300),
            ([2.0], [[1.0, -5e-324, 1.7976931348623157e308]], 10**12, 7.0),
            ([0.1, 1e16, -2.5e-8], np.arange(-4.0, 5.0).reshape(3, 3), 3, 1e-9),
        ],
    )
    def test_bytes_are_json_dumps_indent_1(self, tmp_path, mean, matrix, fit_count, eps):
        t = whitening.WhiteningTransform(mean=mean, matrix=matrix, fit_count=fit_count, eps=eps)
        fileio.save_transform(tmp_path / "w.json", t)
        assert (tmp_path / "w.json").read_bytes() == json_dumps_text(t)

    def test_schema_row_length_mismatch(self, tmp_path, transform):
        path = tmp_path / "w.json"
        fileio.save_transform(path, transform)
        doc = json.loads(path.read_text())
        doc["matrix"][0] = doc["matrix"][0][:-1]
        path.write_text(json.dumps(doc))
        with pytest.raises(errors.SchemaMismatch):
            fileio.load_transform(path)

    def test_nan_mean_rejected(self, tmp_path, transform):
        path = tmp_path / "w.json"
        fileio.save_transform(path, transform)
        doc = json.loads(path.read_text())
        doc["mean"][0] = float("nan")
        path.write_text(json.dumps(doc))
        with pytest.raises(errors.NonFinite):
            fileio.load_transform(path)

    def test_wrong_format_key(self, tmp_path, transform):
        path = tmp_path / "w.json"
        fileio.save_transform(path, transform)
        doc = json.loads(path.read_text())
        doc["format"] = "whitening-v9"
        path.write_text(json.dumps(doc))
        with pytest.raises(errors.SchemaMismatch):
            fileio.load_transform(path)

    def test_missing_key(self, tmp_path, transform):
        path = tmp_path / "w.json"
        fileio.save_transform(path, transform)
        doc = json.loads(path.read_text())
        del doc["mean"]
        path.write_text(json.dumps(doc))
        with pytest.raises(errors.SchemaMismatch):
            fileio.load_transform(path)

    @pytest.mark.parametrize(
        "key, value",
        [("fit_count", "abc"), ("fit_count", 0), ("input_dim", True),
         ("output_dim", True), ("eps", -1e-9),
         ("matrix", [[0.0] * 4] * 5 + [[0.0] * 3]), ("matrix", []), ("matrix", [[]]),
         ("matrix", [[10**400] + [0.0] * 3] + [[0.0] * 4] * 5), ("mean", [0.0] * 5),
         ("input_dim", 5), ("output_dim", 3), ("fit_count", 1.5), ("eps", "0")],
    )
    def test_bad_field_is_schema_mismatch(self, tmp_path, transform, key, value):
        path = tmp_path / "w.json"
        fileio.save_transform(path, transform)
        doc = json.loads(path.read_text())
        doc[key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(errors.SchemaMismatch):
            fileio.load_transform(path)

    def test_not_json(self, tmp_path):
        path = tmp_path / "w.json"
        path.write_text("not json {")
        with pytest.raises(errors.SchemaMismatch):
            fileio.load_transform(path)


# Finite doubles with the extremes spelled out: the float64 range ends and subnormals.
FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [1e308, -1e308, 1.7976931348623157e308, 5e-324, -5e-324, 2.2250738585072014e-308, -0.0]
)
# (type, float width) of an eps: Python and numpy floats, each drawn within its own range.
EPS_TYPES = [(float, 64), (np.float64, 64), (np.float32, 32), (np.float16, 16)]


@st.composite
def constructible_transforms(draw) -> whitening.WhiteningTransform:
    d = draw(st.integers(min_value=1, max_value=8))
    k = draw(st.integers(min_value=1, max_value=8))
    mean = draw(st.lists(FINITE, min_size=d, max_size=d))
    matrix = draw(st.lists(st.lists(FINITE, min_size=k, max_size=k), min_size=d, max_size=d))
    count_type = draw(st.sampled_from([int, np.int32, np.int64, np.uint64]))
    fit_count = count_type(draw(st.integers(min_value=1, max_value=2**31 - 1)))
    eps_type, width = draw(st.sampled_from(EPS_TYPES))
    eps = eps_type(draw(st.floats(min_value=0, allow_infinity=False, width=width)))
    t = whitening.WhiteningTransform(
        mean=np.array(mean), matrix=draw(st.sampled_from([matrix, np.array(matrix)])),
        fit_count=fit_count, eps=eps,
    )
    assert np.array(mean).tobytes() == t.mean.tobytes()
    assert np.array(matrix).tobytes() == t.matrix.tobytes()
    return t


@settings(max_examples=150, deadline=None)
@given(t=constructible_transforms())
def test_every_constructible_transform_round_trips(tmp_path_factory, t):
    path = tmp_path_factory.mktemp("rt") / "w.json"
    fileio.save_transform(path, t)
    assert path.read_bytes() == json_dumps_text(t)
    back = fileio.load_transform(path)
    assert back.mean.tobytes() == t.mean.tobytes()
    assert back.matrix.tobytes() == t.matrix.tobytes()
    assert (type(back.fit_count), back.fit_count) == (int, t.fit_count)
    assert (type(back.eps), struct.pack("<d", back.eps)) == (float, struct.pack("<d", t.eps))


arrays = st.one_of(
    st.lists(st.floats(), max_size=3),
    st.lists(st.lists(st.floats(), min_size=2, max_size=2), max_size=3),
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 2)).map(np.ones),
)
scalars = (st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3)
           | st.integers(-5, 5).map(np.int64) | st.floats(width=32).map(np.float32))


@settings(max_examples=200, deadline=None)
@given(mean=arrays, matrix=arrays, fit_count=scalars, eps=scalars)
def test_transform_constructor_refuses_only_with_typed_errors(
    tmp_path_factory, mean, matrix, fit_count, eps
):
    """Anything the constructor takes round-trips; anything else is a WhitevecError."""
    try:
        t = whitening.WhiteningTransform(mean=mean, matrix=matrix, fit_count=fit_count, eps=eps)
    except errors.WhitevecError:
        return
    path = tmp_path_factory.mktemp("rt") / "w.json"
    fileio.save_transform(path, t)
    back = fileio.load_transform(path)
    assert back.matrix.tobytes() == t.matrix.tobytes() and back.eps == t.eps


class TestReadGold:
    def test_basic(self, tmp_path):
        path = tmp_path / "gold.txt"
        path.write_text("0.0\n5.0\n2.5\n")
        assert np.array_equal(fileio.read_gold(path), [0.0, 5.0, 2.5])

    def test_crlf_and_trailing_blank(self, tmp_path):
        path = tmp_path / "gold.txt"
        path.write_bytes(b"1.0\r\n2.0\r\n\r\n")
        assert np.array_equal(fileio.read_gold(path), [1.0, 2.0])

    def test_parse_error_with_line(self, tmp_path):
        path = tmp_path / "gold.txt"
        path.write_text("1.0\nabc\n3.0\n")
        with pytest.raises(errors.ParseError) as exc:
            fileio.read_gold(path)
        assert exc.value.line == 2

    def test_interior_blank_rejected(self, tmp_path):
        path = tmp_path / "gold.txt"
        path.write_text("1.0\n\n3.0\n")
        with pytest.raises(errors.ParseError) as exc:
            fileio.read_gold(path)
        assert exc.value.line == 2

    def test_non_utf8_is_parse_error(self, tmp_path):
        path = tmp_path / "gold.txt"
        path.write_bytes(b"1.0\n2.0\n\xff\xfe\n")
        with pytest.raises(errors.ParseError) as exc:
            fileio.read_gold(path)
        assert exc.value.line == 3

    def test_empty_file(self, tmp_path):
        path = tmp_path / "gold.txt"
        path.write_text("")
        assert fileio.read_gold(path).shape == (0,)


def emb1_header(count, dim, dtype_code=1):
    return struct.pack("<4sIQIB11s", b"EMB1", 1, count, dim, dtype_code, b"\x00" * 11)


@pytest.mark.parametrize("extra", [1, 8, 4096])
def test_trailing_bytes_rejected_by_both_readers(tmp_path, extra):
    path = tmp_path / "trail.emb1"
    fileio.write_emb1(path, np.ones((3, 2)))
    path.write_bytes(path.read_bytes() + b"\x00" * extra)
    with pytest.raises(errors.TruncatedPayload):
        fileio.read_emb1(path)
    with pytest.raises(errors.TruncatedPayload):
        next(fileio.iter_emb1(path))


def test_huge_declared_count_rejected_before_allocation(tmp_path):
    path = tmp_path / "huge.emb1"
    path.write_bytes(emb1_header(2**40, 4))
    tracemalloc.start()
    try:
        with pytest.raises(errors.TruncatedPayload):
            fileio.read_emb1(path)
        with pytest.raises(errors.TruncatedPayload):
            next(fileio.iter_emb1(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_zero_dim_rejected(tmp_path):
    path = tmp_path / "flat.emb1"
    path.write_bytes(emb1_header(2**40, 0))
    with pytest.raises(errors.SchemaMismatch):
        fileio.read_emb1(path)
    with pytest.raises(errors.SchemaMismatch):
        fileio.write_emb1(tmp_path / "out.emb1", np.empty((3, 0)))


def test_nonfinite_in_late_block_raised_by_both_readers(tmp_path, monkeypatch):
    data = np.zeros((10, 2))
    path = tmp_path / "late.emb1"
    fileio.write_emb1(path, data)
    raw = bytearray(path.read_bytes())
    raw[-8:] = struct.pack("<d", float("inf"))
    path.write_bytes(bytes(raw))
    with pytest.raises(errors.NonFinite):
        fileio.read_emb1(path)
    monkeypatch.setattr(fileio, "BLOCK_ROWS", 3)
    with pytest.raises(errors.NonFinite):
        list(fileio.iter_emb1(path))


class HalfWrittenFile:
    """Writes half of the first chunk, then fails as a full disk would."""

    def __init__(self, path, mode):
        self.f = builtins.open(path, mode)

    def write(self, chunk):
        data = memoryview(chunk).cast("B")
        self.f.write(data[: len(data) // 2])
        self.f.flush()
        raise OSError(errno.ENOSPC, "No space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()


def failing_writes(path, mode="r", *args, **kwargs):
    """fileio's open with every write failing partway; reads untouched."""
    if "r" in mode:
        return builtins.open(path, mode, *args, **kwargs)
    return HalfWrittenFile(path, mode)


class TestAtomicWrite:
    @pytest.fixture
    def target(self, tmp_path):
        fileio.write_emb1(tmp_path / "in.emb1", np.arange(12.0).reshape(4, 3))
        target = tmp_path / "out"
        target.write_bytes(b"previous contents\n")
        return target

    def assert_untouched(self, target):
        assert target.read_bytes() == b"previous contents\n"
        assert sorted(os.listdir(target.parent)) == ["in.emb1", "out"]

    def test_write_emb1_failing_partway(self, target, monkeypatch):
        monkeypatch.setattr(fileio, "open", failing_writes, raising=False)
        with pytest.raises(OSError, match="No space left"):
            fileio.write_emb1(target, np.eye(3), dtype="float32")
        self.assert_untouched(target)

    def test_save_transform_failing_partway(self, target, monkeypatch):
        t = whitening.fit(np.random.default_rng(3).standard_normal((20, 3)), k=2)
        monkeypatch.setattr(fileio, "open", failing_writes, raising=False)
        with pytest.raises(OSError, match="No space left"):
            fileio.save_transform(target, t)
        self.assert_untouched(target)

    def test_cli_out_failing_partway(self, target, monkeypatch, capsys):
        monkeypatch.setattr(fileio, "open", failing_writes, raising=False)
        assert run(["stats", "--input", str(target.with_name("in.emb1")),
                    "--out", str(target)]) == 1
        assert capsys.readouterr().err.startswith("IOError:")
        self.assert_untouched(target)

    def test_failed_rename_leaves_no_temp(self, target, monkeypatch):
        def refuse(src, dst):
            raise OSError(errno.EXDEV, "rename refused")

        monkeypatch.setattr(fileio.os, "replace", refuse)
        with pytest.raises(OSError, match="rename refused"):
            fileio.write_emb1(target, np.eye(3))
        self.assert_untouched(target)

    def test_replaces_existing_file(self, target):
        fileio.write_emb1(target, np.eye(3) * 7.0)
        assert np.array_equal(fileio.read_emb1(target), np.eye(3) * 7.0)
        assert sorted(os.listdir(target.parent)) == ["in.emb1", "out"]

    def test_symlinked_target_stays_a_link(self, target):
        link = target.with_name("link")
        link.symlink_to(target.name)
        fileio.write_atomic(link, [b"new contents\n"])
        assert link.is_symlink() and os.readlink(link) == target.name
        assert target.read_bytes() == b"new contents\n"
        assert sorted(os.listdir(target.parent)) == ["in.emb1", "link", "out"]

    @pytest.mark.parametrize("mode", [0o600, 0o640, 0o444])
    def test_permission_bits_kept(self, target, mode):
        target.chmod(mode)
        fileio.write_emb1(target, np.eye(3))
        assert stat.S_IMODE(target.stat().st_mode) == mode
        assert np.array_equal(fileio.read_emb1(target), np.eye(3))

    def test_non_regular_target_written_in_place(self):
        fileio.write_atomic(os.devnull, [b"discarded"])
        assert not os.path.isfile(os.devnull)


class TestBlockWriter:
    def test_blocks_equal_one_array(self, tmp_path):
        data = np.random.default_rng(2).standard_normal((11, 3))
        for dtype in ("float32", "float64"):
            fileio.write_emb1(tmp_path / "one.emb1", data, dtype=dtype)
            blocks = [data[:4], data[4:4], data[4:]]
            fileio.write_emb1_blocks(tmp_path / "many.emb1", blocks, 11, 3, dtype=dtype)
            assert (tmp_path / "many.emb1").read_bytes() == (tmp_path / "one.emb1").read_bytes()

    def test_no_blocks_writes_zero_rows(self, tmp_path):
        fileio.write_emb1_blocks(tmp_path / "empty.emb1", [], 0, 5)
        assert fileio.read_emb1_header(tmp_path / "empty.emb1") == (0, 5, np.dtype("<f8"))
        with pytest.raises(errors.SchemaMismatch):
            fileio.write_emb1_blocks(tmp_path / "negative.emb1", [], -1, 5)
        assert not (tmp_path / "negative.emb1").exists()

    @pytest.mark.parametrize("rows", [[2, 2], [2, 2, 2, 1], []])
    def test_declared_count_enforced(self, tmp_path, rows):
        """Five rows are declared; too few or too many leave no file."""
        blocks = (np.ones((m, 2)) for m in rows)
        with pytest.raises(errors.DimensionMismatch, match="5"):
            fileio.write_emb1_blocks(tmp_path / "out.emb1", blocks, 5, 2)
        assert os.listdir(tmp_path) == []

    def test_block_width_checked(self, tmp_path):
        with pytest.raises(errors.DimensionMismatch):
            fileio.write_emb1_blocks(tmp_path / "out.emb1", [np.ones((2, 2)), np.ones((2, 3))], 4, 2)
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("count, dim", [(2.0, 4), (2, True)])
    def test_non_integer_count_or_dim_rejected(self, tmp_path, count, dim):
        with pytest.raises(errors.InvalidParameter):
            fileio.write_emb1_blocks(tmp_path / "out.emb1", [np.ones((2, 1))], count, dim)
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("count, dim", [(2**64, 4), (2, 2**32)])
    def test_header_fields_out_of_range_rejected(self, tmp_path, count, dim):
        """count is a u64 and dim a u32 in the header; nothing is written beyond them."""
        with pytest.raises(errors.SchemaMismatch):
            fileio.write_emb1_blocks(tmp_path / "out.emb1", [], count, dim)
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("dtype", ["float16", ["float32"]], ids=["float16", "list"])
    def test_dtype_other_than_a_code_string_refused(self, tmp_path, dtype):
        """Only the DTYPE_CODES strings name an output dtype; an unhashable one is refused too."""
        with pytest.raises(errors.SchemaMismatch, match="dtype must be float32 or float64"):
            fileio.write_emb1(tmp_path / "out.emb1", np.eye(2), dtype=dtype)
        assert os.listdir(tmp_path) == []

    @pytest.mark.filterwarnings("error")
    def test_float32_overflow_refused(self, tmp_path):
        """A finite float64 beyond the float32 range would be written as Inf."""
        with pytest.raises(errors.NonFinite):
            fileio.write_emb1(tmp_path / "out.emb1", np.array([[1.0, 1e39]]), dtype="float32")
        fileio.write_emb1(tmp_path / "out.emb1", np.array([[1.0, 1e39]]))
        assert fileio.read_emb1(tmp_path / "out.emb1")[0, 1] == 1e39


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_iter_emb1_blocks_are_read_only(tmp_path, dtype):
    path = tmp_path / "m.emb1"
    fileio.write_emb1(path, np.arange(3.0 * streaming.BLOCK_ROWS + 6).reshape(-1, 2), dtype=dtype)
    blocks = list(fileio.iter_emb1(path))
    assert len(blocks) == 2
    for block in blocks:
        assert block.dtype == fileio.read_emb1_header(path).dtype and not block.flags.writeable
        with pytest.raises(ValueError):
            block[0, 0] = 1.0
    upcast = np.concatenate(blocks).astype(np.float64)
    assert upcast.tobytes() == fileio.read_emb1(path).tobytes()


def test_header_read_alone(tmp_path):
    path = tmp_path / "m.emb1"
    fileio.write_emb1(path, np.ones((7, 3)), dtype="float32")
    header = fileio.read_emb1_header(path)
    assert (header.count, header.dim, header.dtype) == (7, 3, np.dtype("<f4"))
    path.write_bytes(path.read_bytes()[:-1])
    with pytest.raises(errors.TruncatedPayload):
        fileio.read_emb1_header(path)


def test_pipe_input_is_not_a_regular_file(capsys):
    r, w = os.pipe()
    try:
        os.write(w, emb1_header(4_800_000, 8))
        path = f"/dev/fd/{r}"
        for read in (fileio.read_emb1, fileio.read_emb1_header, lambda p: next(fileio.iter_emb1(p))):
            with pytest.raises(OSError, match="not a regular file"):
                read(path)
        assert run(["stats", "--input", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("IOError:") and "not a regular file" in err
    finally:
        os.close(r)
        os.close(w)
