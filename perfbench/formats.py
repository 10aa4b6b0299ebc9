"""EMB1 and whitening-v1 readers/writers for the benchmark.

Written from the layout in docs/formats.md, independently of
whitevec.fileio, so that generating inputs and checking outputs never
runs the code being measured.
"""

import json
import struct

import numpy as np

HEADER = struct.Struct("<4sIQIB11s")  # magic, version, count, dim, dtype, reserved
HEADER_SIZE = 32
DTYPE_CODES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}


class EmbWriter:
    """Write an EMB1 file block by block, so large inputs never sit in memory."""

    def __init__(self, path, count: int, dim: int, dtype: str):
        self.dtype = np.dtype("<f4") if dtype == "float32" else np.dtype("<f8")
        code = 0 if dtype == "float32" else 1
        self.count, self.dim, self.written = count, dim, 0
        self.f = open(path, "wb")
        self.f.write(HEADER.pack(b"EMB1", 1, count, dim, code, b"\x00" * 11))

    def write(self, block: np.ndarray) -> None:
        assert block.ndim == 2 and block.shape[1] == self.dim
        self.f.write(np.ascontiguousarray(block, dtype=self.dtype).tobytes())
        self.written += block.shape[0]

    def close(self) -> None:
        self.f.close()
        if self.written != self.count:
            raise ValueError(f"wrote {self.written} rows, header says {self.count}")


def write_emb1(path, data: np.ndarray, dtype: str) -> None:
    w = EmbWriter(path, data.shape[0], data.shape[1], dtype)
    try:
        w.write(data)
    finally:
        w.close()


def open_emb1(path) -> np.ndarray:
    """Memory-map an EMB1 file as its stored dtype, after checking the header."""
    with open(path, "rb") as f:
        raw = f.read(HEADER_SIZE)
        size = f.seek(0, 2)
    if len(raw) != HEADER_SIZE:
        raise ValueError(f"{path}: shorter than the EMB1 header")
    magic, version, count, dim, code, reserved = HEADER.unpack(raw)
    if magic != b"EMB1" or version != 1 or code not in DTYPE_CODES or any(reserved):
        raise ValueError(f"{path}: bad EMB1 header {raw!r}")
    dtype = DTYPE_CODES[code]
    if size != HEADER_SIZE + count * dim * dtype.itemsize:
        raise ValueError(f"{path}: payload is not {count} x {dim} {dtype}")
    if count == 0:
        return np.empty((0, dim), dtype)
    return np.memmap(path, dtype=dtype, mode="r", offset=HEADER_SIZE, shape=(count, dim))


def read_transform(path) -> tuple[np.ndarray, np.ndarray]:
    """Return (mean, matrix) of a whitening-v1 JSON file."""
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    if doc.get("format") != "whitening-v1":
        raise ValueError(f"{path}: not a whitening-v1 transform")
    mean = np.array(doc["mean"], dtype=np.float64)
    matrix = np.array(doc["matrix"], dtype=np.float64)
    if mean.shape != (doc["input_dim"],) or matrix.shape != (
        doc["input_dim"],
        doc["output_dim"],
    ):
        raise ValueError(f"{path}: mean/matrix shapes disagree with the declared dims")
    return mean, matrix
