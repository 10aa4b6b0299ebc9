import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whitevec import errors, fileio, whitening


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


def test_iter_emb1_matches_bulk_read(tmp_path):
    rng = np.random.default_rng(0)
    data = rng.standard_normal((100, 7))
    path = tmp_path / "stream.emb1"
    fileio.write_emb1(path, data)
    blocks = list(fileio.iter_emb1(path, batch_rows=9))
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
