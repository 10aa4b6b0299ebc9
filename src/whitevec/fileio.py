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

import array
import contextlib
import errno
import io
import json
import math
import os
import stat
import struct
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .errors import (
    BadMagic,
    DimensionMismatch,
    InvalidParameter,
    NonFinite,
    ParseError,
    SchemaMismatch,
    TruncatedPayload,
    UnsupportedVersion,
)
from .streaming import BLOCK_ROWS, checked_blocks, require_int, row_blocks
from .whitening import WhiteningTransform

MAGIC = b"EMB1"
VERSION = 1
HEADER = struct.Struct("<4sIQIB11s")
HEADER_SIZE = 32
DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
DTYPE_CODES = {"float32": 0, "float64": 1}

TRANSFORM_FORMAT = "whitening-v1"


class Emb1Header(NamedTuple):
    """What an EMB1 header declares: row count, row width and payload dtype."""

    count: int
    dim: int
    dtype: np.dtype


def _open_payload(f) -> Emb1Header:
    """Read the header and check the file holds exactly the declared payload.

    The check runs against the file size, so nothing is allocated or
    yielded for a header that promises more (or less) than is there. A
    pipe or terminal has no size to check, so it is refused before
    anything is read from it.
    """
    st = os.fstat(f.fileno())
    if not stat.S_ISREG(st.st_mode):
        raise OSError(
            errno.ESPIPE, "EMB1 input is not a regular file; pass a file path", f.name
        )
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
    if dim == 0:
        raise SchemaMismatch("header declares dim 0")
    dtype = DTYPES[dtype_code]
    expected = count * dim * dtype.itemsize
    actual = st.st_size - HEADER_SIZE
    if actual != expected:
        raise TruncatedPayload(f"payload is {actual} bytes, header declares {expected}")
    return Emb1Header(count, dim, dtype)


def _blocks(f, count: int, dim: int, dtype: np.dtype):
    """Yield the payload as finite, read-only BLOCK_ROWS-row blocks in the file's dtype.

    Each block is read straight into a new array, so it is the only copy,
    and the generator lets go of it before it makes the next.
    """
    for start in range(0, count, BLOCK_ROWS):
        block = np.empty((min(BLOCK_ROWS, count - start), dim), dtype=dtype)
        if f.readinto(block) != block.nbytes:
            raise TruncatedPayload("file shrank while it was being read")
        if not np.all(np.isfinite(block)):
            raise NonFinite("embedding payload contains NaN or Inf")
        block.setflags(write=False)
        yield block
        del block  # not held while the next block is allocated


def read_emb1_header(path) -> Emb1Header:
    """Check an EMB1 file's header against its size and return it.

    Raises exactly what ``read_emb1`` and ``iter_emb1`` raise for a bad
    header, without reading the payload.
    """
    with open(path, "rb") as f:
        return _open_payload(f)


def read_emb1(path) -> np.ndarray:
    """Load an EMB1 file as an N x d float64 matrix (float32 upcast)."""
    with open(path, "rb") as f:
        count, dim, dtype = _open_payload(f)
        data = np.empty((count, dim))
        row = 0
        for block in _blocks(f, count, dim, dtype):
            data[row : row + block.shape[0]] = block
            row += block.shape[0]
    return data


def iter_emb1(path) -> Iterator[np.ndarray]:
    """Stream an EMB1 file as BLOCK_ROWS-row blocks without loading it whole.

    Every block is read-only and in the file's dtype: a float32 file
    gives float32 blocks, which every whitevec consumer upcasts to
    float64 in its first arithmetic step, so the values it computes
    equal those of ``read_emb1`` bit for bit.
    """
    with open(path, "rb") as f:
        count, dim, dtype = _open_payload(f)
        yield from _blocks(f, count, dim, dtype)


def write_atomic(path, chunks: Iterable) -> None:
    """Write the bytes-like ``chunks`` to ``path`` whole or not at all.

    They go to a temporary file beside the file ``path`` names (a symlink
    is followed, so the link stays a link and its target gets the bytes),
    which ``os.replace`` then renames over it; an existing target's
    permission bits are copied onto it first. On any error the temporary
    file is removed and an existing ``path`` keeps its old bytes. The file
    is not fsynced. A path that exists but is not a regular file (a pipe,
    a terminal, /dev/stdout) cannot be replaced, so it is written in place.
    """
    path = os.fspath(path)
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "wb") as f:
            for chunk in chunks:
                f.write(chunk)
        return
    real = os.path.realpath(path)
    head, tail = os.path.split(real)
    tmp = os.path.join(head, f".{tail}.{os.urandom(6).hex()}.tmp")
    try:
        f = open(tmp, "xb")
    except OSError as e:  # named for ``path``: the temporary name changes every call
        raise type(e)(e.errno, e.strerror, path) from None
    try:
        with f:
            for chunk in chunks:
                f.write(chunk)
        with contextlib.suppress(FileNotFoundError):
            os.chmod(tmp, stat.S_IMODE(os.stat(real).st_mode))
        os.replace(tmp, real)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def write_emb1_blocks(
    path, blocks: Iterable[np.ndarray], count: int, dim: int, dtype: str = "float64"
) -> None:
    """Write row blocks as one EMB1 file of ``count`` rows of width ``dim``.

    The header is written first, then each block as it arrives, so memory
    is one block. Every block must be an (m, dim) matrix whose values are
    finite in the output dtype (a float64 value beyond the float32 range
    is refused, not written as Inf), and the blocks must hold exactly
    ``count`` rows in total. ``count`` and ``dim`` must be integers
    (InvalidParameter) that fit the header's u64 and u32 fields, with
    ``dim >= 1`` (SchemaMismatch), and ``dtype`` must be one of the
    ``DTYPE_CODES`` strings (SchemaMismatch), before anything is written. Any
    failure leaves ``path`` as it was (see ``write_atomic``).
    """
    count = require_int(count, "count")
    dim = require_int(dim, "dim")
    if not 0 <= count < 2**64:
        raise SchemaMismatch(f"EMB1 row count must be in [0, 2**64), got {count}")
    if not 1 <= dim < 2**32:
        raise SchemaMismatch(f"EMB1 row dim must be in [1, 2**32), got {dim}")
    if not (isinstance(dtype, str) and dtype in DTYPE_CODES):
        raise SchemaMismatch(f"dtype must be float32 or float64, got {dtype!r}")
    code = DTYPE_CODES[dtype]
    header = HEADER.pack(MAGIC, VERSION, count, dim, code, b"\x00" * 11)

    def chunks():
        yield header
        for block in checked_blocks(blocks, count, dim, "block"):
            with np.errstate(over="ignore"):
                out = np.ascontiguousarray(block, dtype=DTYPES[code])
            if not np.all(np.isfinite(out)):
                raise NonFinite(f"refusing to write NaN or Inf values (as {dtype})")
            yield out

    write_atomic(path, chunks())


def write_emb1(path, data: np.ndarray, dtype: str = "float64") -> None:
    """Write a matrix as EMB1, in ``row_blocks`` slices through ``write_emb1_blocks``.

    ``row_blocks`` checks the shape (DimensionMismatch) before anything
    is written. float64 round-trips bit-exactly.
    """
    write_emb1_blocks(path, row_blocks(data), *np.shape(data), dtype)


def _require(doc: dict, key: str):
    if key not in doc:
        raise SchemaMismatch(f"missing key {key!r}")
    return doc[key]


def _positive_int(doc: dict, key: str) -> int:
    value = _require(doc, key)
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise SchemaMismatch(f"{key} must be a positive integer, got {value!r}")
    return value


def _numbers(value) -> bool:
    """True for a JSON list of numbers (bool is not a number here)."""
    return isinstance(value, list) and set(map(type, value)) <= {int, float}


def save_transform(path, t: WhiteningTransform) -> None:
    """Serialize a transform as JSON; doubles round-trip bit-exactly.

    The bytes are ``json.dumps(doc, indent=1) + "\\n"`` of the whitening-v1
    object, written a matrix row at a time: ``indent`` turns off json's C
    encoder, and its Python encoder is slow and holds the whole text.
    ``repr`` is the float and int spelling json uses.
    """

    def values(row, indent):
        return indent + f",\n{indent}".join(map(repr, row.tolist()))

    def chunks():
        yield (
            f'{{\n "format": {json.dumps(TRANSFORM_FORMAT)},\n'
            f' "input_dim": {t.input_dim},\n "output_dim": {t.output_dim},\n'
            f' "mean": [\n{values(t.mean, "  ")}\n ],\n "matrix": ['
        ).encode()
        for i, row in enumerate(t.matrix):
            yield f'{"," if i else ""}\n  [\n{values(row, "   ")}\n  ]'.encode()
        yield f'\n ],\n "fit_count": {t.fit_count!r},\n "eps": {t.eps!r}\n}}\n'.encode()

    write_atomic(path, chunks())


def load_transform(path) -> WhiteningTransform:
    """Read a whitening-v1 file: its layout is checked here, its values by
    ``WhiteningTransform``, whose refusals become SchemaMismatch (NonFinite
    passes through)."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as e:
        # ValueError covers JSONDecodeError, UnicodeDecodeError and integer
        # literals beyond Python's digit limit; deep nesting recurses.
        raise SchemaMismatch(f"not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise SchemaMismatch("top-level value must be an object")
    if _require(doc, "format") != TRANSFORM_FORMAT:
        raise SchemaMismatch(
            f"format is {doc['format']!r}, expected {TRANSFORM_FORMAT!r}"
        )
    dims = _positive_int(doc, "input_dim"), _positive_int(doc, "output_dim")
    mean = _require(doc, "mean")
    matrix = _require(doc, "matrix")
    fit_count = _require(doc, "fit_count")
    eps = _require(doc, "eps")
    # numpy would read true as 1 and null as NaN, so check the JSON types.
    if not _numbers(mean):
        raise SchemaMismatch("mean must be a list of numbers")
    if not (isinstance(matrix, list) and all(_numbers(row) for row in matrix)):
        raise SchemaMismatch("matrix must be a list of rows of numbers")
    try:
        t = WhiteningTransform(mean=mean, matrix=matrix, fit_count=fit_count, eps=eps)
    except (DimensionMismatch, InvalidParameter) as e:
        raise SchemaMismatch(str(e)) from e
    if (t.input_dim, t.output_dim) != dims:
        raise SchemaMismatch(
            f"matrix is {t.input_dim} x {t.output_dim}, the file declares {dims[0]} x {dims[1]}"
        )
    return t


def read_gold(path) -> np.ndarray:
    """One similarity score per line; blank trailing lines tolerated.

    The whole file is checked to be UTF-8 first, then parsed one line at
    a time into a float64 buffer, so beyond the file's bytes the reader
    holds 8 bytes per score, not a list of line strings and floats.
    """
    raw = Path(path).read_bytes()
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as e:
        line = raw.count(b"\n", 0, e.start) + 1
        raise ParseError(line, "not valid UTF-8") from None
    scores = array.array("d")
    pending_blanks = 0
    # A "\n" byte never occurs inside a multi-byte UTF-8 sequence, so each
    # line decodes on its own.
    for lineno, line in enumerate(io.BytesIO(raw), start=1):
        token = line.decode("utf-8").strip()
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
