"""Brute-force exact top-k cosine retrieval and a throughput benchmark.

Index rows are L2-normalized and stored as float32 (4 bytes/component),
so memory cost is exactly 4*d bytes per vector and query cost is one
length-d dot product per stored vector. This makes the storage/speed
effect of dimensionality reduction directly measurable without any
approximate-index artifacts.

``top_k_batch`` answers up to ``QUERY_TILE`` queries at a time. Each
tile is scored against the index one chunk of rows at a time, as
``tile @ chunk.T`` into one reused float32 buffer of ``SCORE_FLOATS``
(m queries x SCORE_FLOATS // m rows), so the buffer does not grow with
the index. Scores are clipped to [-1, 1]. The first chunk yields every
score at or above its k-th largest residue-class maximum, which never
exceeds the query's final k-th best score. A later chunk yields only the
scores strictly above the query's running k-th best: its rows have
larger ids than every row merged so far (``CosineIndex`` ids ascend), so
a score equal to that floor can never displace one of them. Candidates
are merged into the running top k by descending score, then ascending
id, once they outnumber it and after the last chunk, so every tie at the
k-th score is resolved as a full sort would, and written straight into
the answer: m x k int64 ids and float32 scores. ``top_k`` is its one-row
call; a one-row tile scores an index of up to SCORE_FLOATS rows in one
chunk, a matrix-vector product, so a lone query costs one GEMV. A row
of a larger batch can differ from the lone call only in the last float32
bit of a score (GEMM and GEMV round differently), so ids can differ only
at near-ties.
"""

import time
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import DimensionMismatch, EmptyInput, InvalidParameter, NonFinite, ZeroVector
from .streaming import as_rows, checked_blocks, require_int, row_blocks

ZERO_NORM = 1e-30
# Queries per tile. Scored queries x index rows, threaded OpenBLAS sgemm
# keeps few packing buffers resident (index x queries kept ~44 MB at
# n = 100k, d = 256).
QUERY_TILE = 512
# Floats in the one score buffer (16 MiB): a tile of m queries is scored
# against chunks of SCORE_FLOATS // m index rows, 8192 at m = 512 and the
# whole of an index of up to 4 Mi rows at m = 1.
SCORE_FLOATS = 4 * 2**20
# Residue classes whose maxima bound the k-th best score of a chunk (see
# _select); chunks are a multiple of this many rows, and at least k rows.
SELECT_CLASSES = 1024
# Fewest passes over the queries that `benchmark` accepts.
MIN_REPETITIONS = 3


@dataclass(frozen=True)
class CosineIndex:
    """Unit-normalized float32 vectors plus their original row ids.

    ``vectors`` must be a 2-D (DimensionMismatch otherwise) float32
    (InvalidParameter otherwise) matrix of unit rows; their norms are not
    checked, and scores are clipped to [-1, 1]. ``ids`` must be integers,
    one per vector row (DimensionMismatch otherwise), in strictly
    ascending order (InvalidParameter otherwise). ``build_index_blocks``
    makes both so; ``top_k_batch`` breaks ties by id on that order.
    """

    vectors: np.ndarray
    ids: np.ndarray
    norms_dropped: int

    def __post_init__(self):
        vectors = np.asarray(self.vectors)
        if vectors.ndim != 2:
            raise DimensionMismatch(f"vectors have shape {vectors.shape}, expected 2-D")
        if vectors.dtype != np.float32:
            raise InvalidParameter(f"vectors hold {vectors.dtype} values, not float32")
        ids = np.asarray(self.ids)
        if ids.dtype.kind not in "iu":
            raise InvalidParameter(f"ids hold {ids.dtype} values, not integers")
        if ids.shape != vectors.shape[:1]:
            raise DimensionMismatch(f"ids have shape {ids.shape}, expected one per vector row")
        if np.any(ids[1:] <= ids[:-1]):
            raise InvalidParameter("ids must be strictly ascending")
        object.__setattr__(self, "vectors", vectors)
        object.__setattr__(self, "ids", ids)

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
    must be integers (InvalidParameter), with ``count >= 1`` (EmptyInput)
    and ``dim >= 1`` (DimensionMismatch), before anything is allocated.
    """
    count = require_int(count, "count")
    dim = require_int(dim, "dim")
    if count < 1:
        raise EmptyInput(f"cannot index {count} vectors")
    if dim < 1:
        raise DimensionMismatch(f"cannot index rows of dim {dim}")
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


def top_k(index: CosineIndex, query: np.ndarray, k_results: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact top-k by cosine, ties broken by ascending id.

    Returns ``(ids, scores)``, row 0 of the one-row call of
    ``top_k_batch``, which checks it.
    """
    ids, scores = top_k_batch(index, np.asarray(query)[np.newaxis], k_results)
    return ids[0], scores[0]


def top_k_batch(
    index: CosineIndex, queries: np.ndarray, k_results: int
) -> tuple[np.ndarray, np.ndarray]:
    """Exact top-k by cosine for every row of an m x d query matrix.

    Returns ``(ids, scores)``, int64 and float32 m x k arrays, k =
    ``min(k_results, index.size)``: query i's hits in row i, by descending
    score, then ascending id. Raises DimensionMismatch for a wrong shape
    or ``k_results < 1``, NonFinite for NaN/Inf or a norm beyond float64,
    ZeroVector for a zero-norm query and InvalidParameter for a
    ``k_results`` that is not an integer, before any scoring.
    """
    queries = as_rows(queries, index.dim, "queries")
    qnorms, nonzero = row_norms(queries)
    zero = np.flatnonzero(~nonzero)
    if zero.size:
        raise ZeroVector(f"zero-norm query at row {zero[0]}")
    k_results = require_int(k_results, "k_results")
    if k_results < 1:
        raise DimensionMismatch(f"k_results must be >= 1, got {k_results}")
    unit = (queries / qnorms[:, np.newaxis]).astype(np.float32)
    k = min(k_results, index.size)
    hit_ids = np.empty((unit.shape[0], k), dtype=np.int64)
    hit_scores = np.empty((unit.shape[0], k), dtype=np.float32)
    if hit_ids.size == 0:  # no queries, or every indexed row had zero norm
        return hit_ids, hit_scores
    m = min(QUERY_TILE, unit.shape[0])
    rows = max(SCORE_FLOATS // m // SELECT_CLASSES * SELECT_CLASSES, k, SELECT_CLASSES)
    # One score buffer for every tile and chunk; each chunk's scores are a
    # C-contiguous view of it, the layout `tile @ chunk.T` would allocate.
    buffer = np.empty(m * min(rows, index.size), dtype=np.float32)
    for start in range(0, unit.shape[0], QUERY_TILE):
        tile = unit[start : start + QUERY_TILE]
        q = tile.shape[0]
        found = []  # (row, id, score) candidates not yet merged into the running top k
        for first in range(0, index.size, rows):
            chunk = index.vectors[first : first + rows]
            scores = buffer[: q * chunk.shape[0]].reshape(q, -1)
            np.matmul(tile, chunk.T, out=scores)
            row, col, vals = _select(scores, k, None if first == 0 else top_vals[:, -1])
            found.append((row, index.ids[first + col], vals))
            # Merge once the candidates outnumber the running top k (the
            # first chunk has at least k a row), and after the last chunk.
            if sum(f[0].size for f in found) >= q * k or first + rows >= index.size:
                if first:
                    found.append((np.repeat(np.arange(q), k), top_ids.ravel(), top_vals.ravel()))
                top_ids, top_vals = _best_k(*map(np.concatenate, zip(*found)), q, k)
                found = []
        hit_ids[start : start + q], hit_scores[start : start + q] = top_ids, top_vals
    return hit_ids, hit_scores


def _select(
    scores: np.ndarray, k: int, floor: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Candidates (row, column, clipped score) of an m x c score chunk.

    With ``floor`` None (the first chunk, c >= k), keeps every score at
    or above a per-row threshold that never exceeds the row's k-th best
    score over the whole index: column j belongs to residue class j % l,
    l = min(c, max(k, SELECT_CLASSES)), and at least k classes have a
    maximum >= the k-th largest class maximum, so that value never
    exceeds the chunk's k-th best score. Otherwise keeps only the scores
    strictly above ``floor``, each row's running k-th best: a later
    chunk's ids all exceed the merged ones, so a tie with the floor
    loses. Only the classes whose maximum passes the threshold are
    scanned; clipping keeps order.
    """
    m, n = scores.shape
    classes = min(n, max(k, SELECT_CLASSES))
    depth = n // classes
    best = scores[:, : classes * depth].reshape(m, depth, classes).max(axis=1)
    tail = scores[:, classes * depth :]
    np.maximum(best[:, : tail.shape[1]], tail, out=best[:, : tail.shape[1]])
    np.clip(best, -1.0, 1.0, out=best)
    if floor is None:
        kth = classes - k
        floor = np.partition(best, kth, axis=1)[:, kth].copy()  # frees the partitioned copy
        keep = np.greater_equal
    else:
        keep = np.greater

    # flatnonzero and divmod: ~10x faster than a 2-D nonzero at 512 x 1024.
    row, cls = np.divmod(np.flatnonzero(keep(best, floor[:, np.newaxis])), classes)
    col = cls[:, np.newaxis] + classes * np.arange(depth + 1)
    inside = col < n
    col = col[inside]
    row = np.broadcast_to(row[:, np.newaxis], inside.shape)[inside]
    vals = np.clip(scores[row, col], -1.0, 1.0)
    hit = keep(vals, floor[row])
    return row[hit], col[hit], vals[hit]


def _best_k(
    row: np.ndarray, ids: np.ndarray, vals: np.ndarray, m: int, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """The m x k ids and scores of each row's k best entries, by (-score, id).

    Entry i belongs to row ``row[i]`` < m; every row has at least k entries.
    Sorted as ``np.lexsort((ids, -vals, row))`` would, in half its time:
    ids are unique, so any order by id will do, then a stable sort by one
    integer key, the row and the float32 bits of the score mapped to
    descending order (-0.0 as 0.0, which it equals).
    """
    bits = (vals + np.float32(0)).view(np.int32).astype(np.int64)
    key = (row << 32) - (bits ^ ((bits >> 31) & 0x7FFFFFFF))
    by_id = np.argsort(ids)
    order = by_id[np.argsort(key[by_id], kind="stable")]
    counts = np.bincount(row, minlength=m)
    keep = order[((np.cumsum(counts) - counts)[:, np.newaxis] + np.arange(k)).ravel()]
    return ids[keep].reshape(m, k), vals[keep].reshape(m, k)


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
    queries = as_rows(queries, None, "queries")
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
