import builtins
import errno
import json
import os
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whitevec import errors, fileio, whitening
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
         ("output_dim", True), ("eps", -1e-9)],
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
    fileio.write_emb1(path, np.arange(3.0 * whitening.BLOCK_ROWS + 6).reshape(-1, 2), dtype=dtype)
    blocks = list(fileio.iter_emb1(path))
    assert len(blocks) == 2
    for block in blocks:
        assert block.dtype == np.float64 and not block.flags.writeable
        with pytest.raises(ValueError):
            block[0, 0] = 1.0
    assert np.array_equal(np.concatenate(blocks), fileio.read_emb1(path))


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
