"""Brute-force exact top-k cosine retrieval and a throughput benchmark.

Index rows are L2-normalized and stored as float32 (4 bytes/component),
so memory cost is exactly 4*d bytes per vector and query cost is one
length-d dot product per stored vector. This makes the storage/speed
effect of dimensionality reduction directly measurable without any
approximate-index artifacts.
"""

import time
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EmptyInput, NonFinite, ZeroVector

ZERO_NORM = 1e-30


@dataclass(frozen=True)
class CosineIndex:
    """Unit-normalized float32 vectors plus their original row ids."""

    vectors: np.ndarray
    ids: np.ndarray
    norms_dropped: int

    @property
    def size(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


@dataclass(frozen=True)
class BenchReport:
    n_vectors: int
    dim: int
    queries_per_second: float
    bytes_per_vector: int
    total_index_bytes: int
    repetitions: int


def build_index(data: np.ndarray) -> CosineIndex:
    """Normalize rows and store them; zero-norm rows are dropped, not errors."""
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2:
        raise DimensionMismatch(f"expected an N x d matrix, got shape {data.shape}")
    if data.shape[0] == 0:
        raise EmptyInput("cannot index zero vectors")
    if not np.all(np.isfinite(data)):
        raise NonFinite("embedding matrix contains NaN or Inf")
    norms = np.linalg.norm(data, axis=1)
    keep = norms >= ZERO_NORM
    ids = np.flatnonzero(keep).astype(np.int64)
    vectors = (data[keep] / norms[keep, np.newaxis]).astype(np.float32)
    return CosineIndex(
        vectors=vectors, ids=ids, norms_dropped=int(np.sum(~keep))
    )


def top_k(index: CosineIndex, query: np.ndarray, k_results: int) -> list[tuple[int, float]]:
    """Exact top-k by cosine, ties broken by ascending id.

    Returns at most ``k_results`` (id, score) pairs, fewer if the index is
    smaller.
    """
    query = np.asarray(query, dtype=np.float64)
    if query.shape != (index.dim,):
        raise DimensionMismatch(
            f"query has shape {query.shape}, index dim is {index.dim}"
        )
    qnorm = float(np.linalg.norm(query))
    if qnorm < ZERO_NORM:
        raise ZeroVector("zero-norm query")
    if k_results < 1:
        raise DimensionMismatch(f"k_results must be >= 1, got {k_results}")
    q32 = (query / qnorm).astype(np.float32)
    scores = index.vectors @ q32
    np.clip(scores, -1.0, 1.0, out=scores)

    k = min(k_results, index.size)
    if k < index.size:
        part = np.argpartition(-scores, k - 1)[:k]
        # Expand to everything tied with the k-th score so id tie-breaks
        # at the boundary stay exact.
        threshold = scores[part].min()
        candidates = np.flatnonzero(scores >= threshold)
    else:
        candidates = np.arange(index.size)
    order = np.lexsort((index.ids[candidates], -scores[candidates]))
    chosen = candidates[order[:k]]
    return [(int(index.ids[i]), float(scores[i])) for i in chosen]


def benchmark(
    index: CosineIndex,
    queries: np.ndarray,
    k_results: int,
    repetitions: int,
) -> BenchReport:
    """Median-of-repetitions throughput for exact top-k search.

    Runs the same top_k code path the normal API uses, so measured speed
    reflects real answers; results are discarded, never altered.
    """
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim != 2 or queries.shape[0] == 0:
        raise EmptyInput("benchmark needs at least one query")
    if repetitions < 3:
        raise EmptyInput(f"repetitions must be >= 3, got {repetitions}")
    n_queries = queries.shape[0]

    times = []
    for _ in range(repetitions):
        start = time.perf_counter()
        for q in queries:
            top_k(index, q, k_results)
        times.append(time.perf_counter() - start)
    median = float(np.median(times))
    return BenchReport(
        n_vectors=index.size,
        dim=index.dim,
        queries_per_second=n_queries / median,
        bytes_per_vector=index.dim * 4,
        total_index_bytes=index.size * index.dim * 4,
        repetitions=repetitions,
    )
