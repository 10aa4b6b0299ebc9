"""Brute-force exact top-k cosine retrieval and a throughput benchmark.

Index rows are L2-normalized and stored as float32 (4 bytes/component),
so memory cost is exactly 4*d bytes per vector and query cost is one
length-d dot product per stored vector. This makes the storage/speed
effect of dimensionality reduction directly measurable without any
approximate-index artifacts.

``top_k_batch`` scores up to ``QUERY_TILE`` queries per BLAS call as
``index.vectors @ tile.T`` (an n x m float32 block) and selects each
query's top k exactly: scores are clipped to [-1, 1], every score tied
with the k-th is a candidate, and candidates are ordered by descending
score, then ascending id. ``top_k`` is its one-row call; a one-row tile
is a matrix-vector product, so a lone query costs one GEMV. A row of a
larger batch can differ from the lone call only in the last float32 bit
of a score (GEMM and GEMV round differently), so ids can differ only at
near-ties.
"""

import time
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import DimensionMismatch, EmptyInput, NonFinite, ZeroVector
from .whitening import checked_blocks, require_int, row_blocks

ZERO_NORM = 1e-30
# Queries per score block: 64 x n float32 is 25.6 MB at n = 100k.
QUERY_TILE = 64
# Residue classes whose maxima bound the k-th best score (see _select).
SELECT_CLASSES = 1024
# Fewest passes over the queries that `benchmark` accepts.
MIN_REPETITIONS = 3


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


def row_norms(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(norms, nonzero): each row's L2 norm and whether it reaches ZERO_NORM.

    The one norm of index rows, queries and eval pairs, in float64 for
    float32 rows too. NonFinite for NaN, Inf or a norm beyond float64 (a
    non-finite value makes its norm so).
    """
    # Upcast before vecdot: its dtype=float64 argument is ~5x slower on float32 rows.
    rows = np.asarray(rows, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.sqrt(np.vecdot(rows, rows))
    if not np.all(np.isfinite(norms)):
        raise NonFinite("rows contain NaN or Inf, or a row norm overflows float64")
    return norms, norms >= ZERO_NORM


def build_index(data: np.ndarray) -> CosineIndex:
    """Normalize rows and store them; zero-norm rows are dropped, not errors.

    The matrix form of ``build_index_blocks``: rows go in as ``row_blocks``
    slices, so the float64 temporaries are O(BLOCK_ROWS * d).
    """
    return build_index_blocks(row_blocks(data), *np.shape(data))


def build_index_blocks(blocks: Iterable[np.ndarray], count: int, dim: int) -> CosineIndex:
    """Index ``count`` rows of width ``dim`` that arrive as row blocks.

    Each block is normalized straight into one preallocated float32
    array, so beyond the index the call holds one block's temporaries.
    Normalization is row-local: the index equals ``build_index`` of the
    concatenated blocks bit for bit. The blocks must hold exactly
    ``count`` rows (DimensionMismatch otherwise) with finite values
    whose norms stay within float64 (NonFinite). ``count`` and ``dim``
    must be integers (InvalidParameter, before anything is allocated).
    """
    count = require_int(count, "count")
    dim = require_int(dim, "dim")
    if count < 1:
        raise EmptyInput(f"cannot index {count} vectors")
    vectors = np.empty((count, dim), dtype=np.float32)
    ids = np.empty(count, dtype=np.int64)
    seen = kept = 0
    for block in checked_blocks(blocks, count, dim):
        norms, nonzero = row_norms(block)
        keep = np.flatnonzero(nonzero)
        np.divide(
            block[keep],
            norms[keep, np.newaxis],
            out=vectors[kept : kept + keep.size],
            casting="same_kind",
        )
        ids[kept : kept + keep.size] = keep + seen
        seen += block.shape[0]
        kept += keep.size
    return CosineIndex(vectors=vectors[:kept], ids=ids[:kept], norms_dropped=count - kept)


def top_k(index: CosineIndex, query: np.ndarray, k_results: int) -> list[tuple[int, float]]:
    """Exact top-k by cosine, ties broken by ascending id.

    Returns at most ``k_results`` (id, score) pairs, fewer if the index is
    smaller. This is the one-row call of ``top_k_batch``.
    """
    query = np.asarray(query, dtype=np.float64)
    if query.shape != (index.dim,):
        raise DimensionMismatch(
            f"query has shape {query.shape}, index dim is {index.dim}"
        )
    return top_k_batch(index, query[np.newaxis, :], k_results)[0]


def top_k_batch(
    index: CosineIndex, queries: np.ndarray, k_results: int
) -> list[list[tuple[int, float]]]:
    """Exact top-k by cosine for every row of an m x d query matrix.

    Returns one list per query, as ``top_k`` would. Raises
    DimensionMismatch for a wrong shape or ``k_results < 1``, NonFinite
    for NaN/Inf or a norm beyond float64, ZeroVector for a zero-norm
    query and InvalidParameter for a ``k_results`` that is not an
    integer, before any scoring.
    """
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim != 2 or queries.shape[1] != index.dim:
        raise DimensionMismatch(
            f"queries have shape {queries.shape}, index dim is {index.dim}"
        )
    qnorms, nonzero = row_norms(queries)
    zero = np.flatnonzero(~nonzero)
    if zero.size:
        raise ZeroVector(f"zero-norm query at row {zero[0]}")
    k_results = require_int(k_results, "k_results")
    if k_results < 1:
        raise DimensionMismatch(f"k_results must be >= 1, got {k_results}")
    unit = (queries / qnorms[:, np.newaxis]).astype(np.float32)
    k = min(k_results, index.size)
    if k == 0:  # every indexed row had zero norm
        return [[] for _ in range(unit.shape[0])]
    # One score buffer for every tile; each tile's scores are a C-contiguous
    # n x m view of it, the layout `index.vectors @ tile.T` would allocate.
    buffer = np.empty(index.size * min(QUERY_TILE, unit.shape[0]), dtype=np.float32)
    results = []
    for start in range(0, unit.shape[0], QUERY_TILE):
        tile = unit[start : start + QUERY_TILE]
        scores = buffer[: index.size * tile.shape[0]].reshape(index.size, tile.shape[0])
        np.matmul(index.vectors, tile.T, out=scores)
        results += _select(scores, index.ids, k)
    return results


def _select(scores: np.ndarray, ids: np.ndarray, k: int) -> list[list[tuple[int, float]]]:
    """Top k of each column of an n x m score block, k <= n.

    Row i belongs to residue class i % c, c = min(n, max(k, SELECT_CLASSES)).
    At least k classes have a maximum >= the k-th largest class maximum,
    so that value never exceeds the k-th best score: every score at or
    above it (after clipping, which keeps order) is a candidate, found by
    scanning only the classes that reach it. Ordering the candidates by
    (column, -score, id) and keeping k per column is then exact.
    """
    n, m = scores.shape
    classes = min(n, max(k, SELECT_CLASSES))
    depth = n // classes
    best = scores[: classes * depth].reshape(depth, classes, m).max(axis=0)
    tail = scores[classes * depth :]
    np.maximum(best[: tail.shape[0]], tail, out=best[: tail.shape[0]])
    np.clip(best, -1.0, 1.0, out=best)
    kth = classes - k
    threshold = np.partition(best, kth, axis=0)[kth]

    cls, col = np.nonzero(best >= threshold)
    rows = cls[:, np.newaxis] + classes * np.arange(depth + 1)
    inside = rows < n
    rows = rows[inside]
    col = np.broadcast_to(col[:, np.newaxis], inside.shape)[inside]
    vals = np.clip(scores[rows, col], -1.0, 1.0)
    hit = vals >= threshold[col]
    rows, col, vals = rows[hit], col[hit], vals[hit]

    order = np.lexsort((ids[rows], -vals, col))
    col = col[order]
    counts = np.bincount(col, minlength=m)
    rank = np.arange(col.size) - (np.cumsum(counts) - counts)[col]
    chosen = order[rank < k]
    hit_ids = ids[rows[chosen]].tolist()
    hit_scores = vals[chosen].tolist()
    return [
        list(zip(hit_ids[i * k : (i + 1) * k], hit_scores[i * k : (i + 1) * k]))
        for i in range(m)
    ]


def benchmark(
    index: CosineIndex,
    queries: np.ndarray,
    k_results: int,
    repetitions: int,
) -> BenchReport:
    """Throughput of exact top-k search, from the median per-query time.

    Runs the same top_k code path the normal API uses, so measured speed
    reflects real answers; results are discarded, never altered. Queries
    are timed one at a time: a query's cost is then its GEMV, which scales
    with the index's bytes per vector, while a batched GEMM's cost grows
    more slowly with d and adds a fixed selection cost per query. Every
    query of every repetition is one sample, and the rate is the inverse
    of their median, so a burst of other load that slows a few queries
    does not move it. ``repetitions`` is an integer of at least
    MIN_REPETITIONS.
    """
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim != 2:
        raise DimensionMismatch(f"expected a matrix of queries, got shape {queries.shape}")
    if queries.shape[0] == 0:
        raise EmptyInput("benchmark needs at least one query")
    repetitions = require_int(repetitions, "repetitions")
    if repetitions < MIN_REPETITIONS:
        raise EmptyInput(f"repetitions must be >= {MIN_REPETITIONS}, got {repetitions}")

    times = []
    for _ in range(repetitions):
        for q in queries:
            start = time.perf_counter()
            top_k(index, q, k_results)
            times.append(time.perf_counter() - start)
    return BenchReport(
        n_vectors=index.size,
        dim=index.dim,
        queries_per_second=1.0 / float(np.median(times)),
        bytes_per_vector=index.dim * 4,
        total_index_bytes=index.size * index.dim * 4,
        repetitions=repetitions,
    )
