"""File formats: EMB1 binary embedding matrices, whitening-v1 transform
JSON, and plain-text gold-score files.

EMB1 layout (all integers little-endian):

    offset  size  field
    0       4     magic "EMB1"
    4       4     version, u32 (currently 1)
    8       8     count N, u64
    16      4     dim d, u32
    20      1     dtype, u8 (0 = float32, 1 = float64)
    21      11    reserved, zero bytes
    32      -     payload: N*d values, row-major, little-endian

See docs/formats.md for a hex example.
"""

import json
import math
import struct
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import (
    BadMagic,
    NonFinite,
    ParseError,
    SchemaMismatch,
    TruncatedPayload,
    UnsupportedVersion,
)
from .whitening import WhiteningTransform

MAGIC = b"EMB1"
VERSION = 1
HEADER = struct.Struct("<4sIQIB11s")
HEADER_SIZE = 32
DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
DTYPE_CODES = {"float32": 0, "float64": 1}

TRANSFORM_FORMAT = "whitening-v1"


def _read_header(f) -> tuple[int, int, np.dtype]:
    raw = f.read(HEADER_SIZE)
    if len(raw) < HEADER_SIZE:
        raise TruncatedPayload(f"file shorter than the {HEADER_SIZE}-byte header")
    magic, version, count, dim, dtype_code, _reserved = HEADER.unpack(raw)
    if magic != MAGIC:
        raise BadMagic(f"bad magic {magic!r}, expected {MAGIC!r}")
    if version != VERSION:
        raise UnsupportedVersion(f"version {version} not supported (only {VERSION})")
    if dtype_code not in DTYPES:
        raise UnsupportedVersion(f"unknown dtype code {dtype_code}")
    return count, dim, DTYPES[dtype_code]


def read_emb1(path) -> np.ndarray:
    """Load an EMB1 file as an N x d float64 matrix (float32 upcast)."""
    with open(path, "rb") as f:
        count, dim, dtype = _read_header(f)
        payload = f.read()
    expected = count * dim * dtype.itemsize
    if len(payload) != expected:
        raise TruncatedPayload(
            f"payload is {len(payload)} bytes, header declares {expected}"
        )
    data = np.frombuffer(payload, dtype=dtype).reshape(count, dim)
    data = data.astype(np.float64)
    if not np.all(np.isfinite(data)):
        raise NonFinite("embedding payload contains NaN or Inf")
    return data


def iter_emb1(path, batch_rows: int = 4096) -> Iterator[np.ndarray]:
    """Stream an EMB1 file in row batches without loading it whole."""
    with open(path, "rb") as f:
        count, dim, dtype = _read_header(f)
        row_bytes = dim * dtype.itemsize
        remaining = count
        while remaining > 0:
            n = min(batch_rows, remaining)
            raw = f.read(n * row_bytes)
            if len(raw) != n * row_bytes:
                raise TruncatedPayload(
                    f"payload ends {remaining} rows short of the declared count"
                )
            block = np.frombuffer(raw, dtype=dtype).reshape(n, dim).astype(np.float64)
            if not np.all(np.isfinite(block)):
                raise NonFinite("embedding payload contains NaN or Inf")
            yield block
            remaining -= n


def write_emb1(path, data: np.ndarray, dtype: str = "float64") -> None:
    """Write a matrix as EMB1. float64 round-trips bit-exactly."""
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2:
        raise SchemaMismatch(f"expected an N x d matrix, got shape {data.shape}")
    if not np.all(np.isfinite(data)):
        raise NonFinite("refusing to write NaN or Inf values")
    if dtype not in DTYPE_CODES:
        raise SchemaMismatch(f"dtype must be float32 or float64, got {dtype!r}")
    code = DTYPE_CODES[dtype]
    count, dim = data.shape
    header = HEADER.pack(MAGIC, VERSION, count, dim, code, b"\x00" * 11)
    payload = np.ascontiguousarray(data, dtype=DTYPES[code]).tobytes()
    with open(path, "wb") as f:
        f.write(header)
        f.write(payload)


def _require(doc: dict, key: str):
    if key not in doc:
        raise SchemaMismatch(f"missing key {key!r}")
    return doc[key]


def _positive_int(doc: dict, key: str) -> int:
    value = _require(doc, key)
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise SchemaMismatch(f"{key} must be a positive integer, got {value!r}")
    return value


def save_transform(path, t: WhiteningTransform) -> None:
    """Serialize a transform as JSON; doubles round-trip bit-exactly."""
    doc = {
        "format": TRANSFORM_FORMAT,
        "input_dim": t.input_dim,
        "output_dim": t.output_dim,
        "mean": t.mean.tolist(),
        "matrix": t.matrix.tolist(),
        "fit_count": t.fit_count,
        "eps": t.eps,
    }
    Path(path).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def load_transform(path) -> WhiteningTransform:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise SchemaMismatch(f"not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise SchemaMismatch("top-level value must be an object")
    if _require(doc, "format") != TRANSFORM_FORMAT:
        raise SchemaMismatch(
            f"format is {doc['format']!r}, expected {TRANSFORM_FORMAT!r}"
        )
    input_dim = _positive_int(doc, "input_dim")
    output_dim = _positive_int(doc, "output_dim")
    mean = _require(doc, "mean")
    matrix = _require(doc, "matrix")
    fit_count = _positive_int(doc, "fit_count")
    eps = _require(doc, "eps")
    try:
        mean = np.array(mean, dtype=np.float64)
        matrix = np.array(matrix, dtype=np.float64)
    except (TypeError, ValueError) as e:
        raise SchemaMismatch(f"mean/matrix are not numeric arrays: {e}") from e
    if mean.shape != (input_dim,):
        raise SchemaMismatch(
            f"mean has shape {mean.shape}, expected ({input_dim},)"
        )
    if matrix.ndim != 2 or matrix.shape != (input_dim, output_dim):
        raise SchemaMismatch(
            f"matrix has shape {matrix.shape}, expected ({input_dim}, {output_dim})"
        )
    if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(matrix))):
        raise NonFinite("transform contains NaN or Inf")
    if not (
        isinstance(eps, (int, float))
        and not isinstance(eps, bool)
        and math.isfinite(eps)
        and eps >= 0
    ):
        raise SchemaMismatch("eps must be a finite number >= 0")
    mean.setflags(write=False)
    matrix.setflags(write=False)
    return WhiteningTransform(
        mean=mean,
        matrix=matrix,
        input_dim=input_dim,
        output_dim=output_dim,
        fit_count=fit_count,
        eps=float(eps),
    )


def read_gold(path) -> np.ndarray:
    """One similarity score per line; blank trailing lines tolerated."""
    raw = Path(path).read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as e:
        line = raw.count(b"\n", 0, e.start) + 1
        raise ParseError(line, "not valid UTF-8") from None
    scores = []
    pending_blanks = 0
    for lineno, line in enumerate(text.split("\n"), start=1):
        token = line.strip()
        if not token:
            pending_blanks += 1
            continue
        if pending_blanks:
            raise ParseError(lineno - pending_blanks, "blank line before end of file")
        try:
            value = float(token)
        except ValueError:
            raise ParseError(lineno, f"cannot parse {token!r} as a number") from None
        if not math.isfinite(value):
            raise ParseError(lineno, f"non-finite score {token!r}")
        scores.append(value)
    return np.array(scores, dtype=np.float64)
