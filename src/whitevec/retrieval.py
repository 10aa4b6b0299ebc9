"""Brute-force exact top-k cosine retrieval and a throughput benchmark.

Index rows are L2-normalized and stored as float32 (4 bytes/component),
so memory cost is exactly 4*d bytes per vector and query cost is one
length-d dot product per stored vector. This makes the storage/speed
effect of dimensionality reduction directly measurable without any
approximate-index artifacts.

One loop answers every search, over chunks of unit index rows from one
of two sources: ``top_k_batch`` slices them from a ``CosineIndex`` held
in memory, and ``search_blocks`` normalizes row blocks as they arrive
into one reused chunk, with the normalizer ``build_index_blocks`` uses,
so it never holds the index. Queries are held once, as unit float32 (4*d
bytes each): each query block is divided by its float64 norms straight
into one preallocated matrix, whether the queries arrive as a matrix
(``top_k_batch``, in ``row_blocks`` slices) or as row blocks
(``search_blocks``). Queries are answered in tiles of up to
``QUERY_TILE``; chunks hold SCORE_FLOATS // m rows for tiles of m
queries, and each chunk is scored against every tile in turn, as
``tile @ chunk.T`` into one reused float32 buffer of ``SCORE_FLOATS``, so
the buffer does not grow with the index. The buffer is kept small by
short tiles, not short chunks: each chunk costs every tile one merge
into its running top k. Each tile keeps the scores of a chunk strictly
above one bound per query, found in one row-major scan, so they come
out in (row, id) order; they are clipped to [-1, 1]. The first chunk's
bound lets through every score at or above its k-th largest
residue-class maximum, which never exceeds the query's final k-th best
score, and of the scores tied at that maximum only the first k by id,
so the first chunk gives O(m*k) candidates even when every score ties.
A later chunk's bound is the query's running k-th best:
its rows have larger ids than every row merged so far (ids ascend), so a
score equal to that floor can never displace one of them. After every
chunk each tile's candidates are merged into its rows of the answer, the
running top k, by descending score, then ascending id, so every tie at
the k-th score is resolved as a full sort would: m x k int64 ids and
float32 scores. Both sources give the loop the same chunks, so their
answers are equal bit for bit. ``top_k`` is the one-row call of
``top_k_batch``; a one-row tile scores an index of up to SCORE_FLOATS
rows in one chunk, a matrix-vector product, so a lone query costs one
GEMV. A row of a larger batch can differ from the lone call only in the
last float32 bit of a score (GEMM and GEMV round differently), so ids
can differ only at near-ties.
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
QUERY_TILE = 256
# Floats in the one score buffer (8 MiB): a tile of m queries is scored
# against chunks of SCORE_FLOATS // m index rows, 8192 at m = 256 and the
# whole of an index of up to 2 Mi rows at m = 1. The buffer shrinks by the
# tile, not the chunk: every chunk merges m x k running hits per tile, so
# shorter chunks would add merge work, while a shorter tile adds none.
SCORE_FLOATS = 2 * 2**20
# Residue classes whose maxima bound the k-th best score of the first chunk
# (see _select); chunks are a multiple of this many rows, and at least k rows.
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
    count, dim = _index_shape(count, dim)
    vectors, ids = np.empty((0, dim), dtype=np.float32), np.empty(0, dtype=np.int64)
    for vectors, ids in _unit_chunks(blocks, count, dim, count):
        pass  # one chunk of every kept row, or none if every row has zero norm
    return CosineIndex(vectors=vectors, ids=ids, norms_dropped=count - ids.size)


def _index_shape(count, dim) -> tuple[int, int]:
    """``count`` and ``dim`` of an index's rows, checked as ``build_index_blocks`` states."""
    count = require_int(count, "count")
    dim = require_int(dim, "dim")
    if count < 1:
        raise EmptyInput(f"cannot index {count} vectors")
    if dim < 1:
        raise DimensionMismatch(f"cannot index rows of dim {dim}")
    return count, dim


def _unit_chunks(blocks, count: int, dim: int, rows: int):
    """Yield (vectors, ids): the nonzero rows of ``blocks``, unit float32, ``rows`` at a time.

    The one normalizer of index rows. Zero-norm rows are dropped; every
    kept row is divided by its float64 norm straight into one reused
    float32 buffer of ``min(rows, count)`` rows, which is yielded (with
    the kept rows' ascending ids) each time it is full and once more,
    partly filled, for the rows left at the end. No chunk is empty. A
    chunk is overwritten when the next one is asked for. The blocks are
    checked by ``checked_blocks`` and ``row_norms`` as they arrive.
    """
    vectors = np.empty((min(rows, count), dim), dtype=np.float32)
    ids = np.empty(vectors.shape[0], dtype=np.int64)
    seen = kept = 0
    for block in checked_blocks(blocks, count, dim):
        norms, nonzero = row_norms(block)
        keep = np.flatnonzero(nonzero)
        while keep.size:
            take, keep = keep[: rows - kept], keep[rows - kept :]
            np.divide(
                block[take],
                norms[take, np.newaxis],
                out=vectors[kept : kept + take.size],
                casting="same_kind",
            )
            ids[kept : kept + take.size] = take + seen
            kept += take.size
            if kept == rows:
                yield vectors, ids
                kept = 0
        seen += block.shape[0]
    block = norms = nonzero = keep = take = None  # not held while the last chunk is scored
    if kept:
        yield vectors[:kept], ids[:kept]


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
    score, then ascending id. Raises DimensionMismatch for a wrong shape,
    NonFinite for NaN/Inf or a norm beyond float64 and ZeroVector for a
    zero-norm query, then what ``require_k_results`` raises, before any
    scoring.
    """
    queries = as_rows(queries, index.dim, "queries")
    unit, zero = _unit_queries(row_blocks(queries), queries.shape[0], index.dim)
    k_results = _query_k(zero, k_results)
    rows = _chunk_rows(unit.shape[0], k_results)
    chunks = (
        (index.vectors[first : first + rows], index.ids[first : first + rows])
        for first in range(0, index.size, rows)
    )
    return _top_k_chunks(unit, chunks, k_results)


def search_blocks(
    blocks: Iterable[np.ndarray],
    count: int,
    dim: int,
    query_blocks: Iterable[np.ndarray],
    query_count: int,
    k_results: int,
) -> tuple[np.ndarray, np.ndarray]:
    """``top_k_batch`` of ``build_index_blocks(blocks, count, dim)`` and the
    ``query_count`` rows of ``query_blocks``, in one pass over each.

    Neither input is held as it arrives. Each query block is normalized
    into one preallocated ``query_count`` x ``dim`` float32 matrix, the unit
    queries ``top_k_batch`` would make (4 * dim bytes a query); then the
    index rows are normalized into one reused chunk, the one
    ``top_k_batch`` would slice from the index, and every query is scored
    against it before the next chunk is read. So the answer equals that
    call's bit for bit, and memory holds the unit queries, the answer, one
    chunk and the score buffer, whatever ``count``, plus one block's
    temporaries.

    Checks, in order, before any index block is read: ``dim`` as
    ``build_index_blocks`` checks it; ``query_count`` (InvalidParameter
    unless an integer, DimensionMismatch below 0); every query block as
    ``top_k_batch`` checks its matrix, as it is read; ``count`` as
    ``build_index_blocks`` checks it; ZeroVector naming the first
    zero-norm query, so NaN in a block after it is reported first; then
    ``k_results``. Each index block is checked as it arrives, so with no
    queries the blocks are still read and checked.
    """
    _, dim = _index_shape(1, dim)  # the width alone: the queries are read at it
    unit, zero = _unit_queries(query_blocks, query_count, dim)
    count, dim = _index_shape(count, dim)
    k_results = _query_k(zero, k_results)
    rows = _chunk_rows(unit.shape[0], k_results)
    return _top_k_chunks(unit, _unit_chunks(blocks, count, dim, rows), k_results)


def require_k_results(k_results) -> int:
    """Hits asked for per query, as an int: InvalidParameter unless an integer,
    DimensionMismatch below 1."""
    k_results = require_int(k_results, "k_results")
    if k_results < 1:
        raise DimensionMismatch(f"k_results must be >= 1, got {k_results}")
    return k_results


def _unit_queries(blocks, count, dim: int) -> tuple[np.ndarray, int | None]:
    """(the ``count`` x ``dim`` unit float32 queries of ``blocks``, the first zero-norm row or None).

    ``count`` must be an integer (InvalidParameter) >= 0
    (DimensionMismatch). Each block is checked by ``checked_blocks`` and
    ``row_norms`` as it arrives and divided by its float64 norms straight
    into its rows of one preallocated float32 matrix, as ``_unit_chunks``
    divides index rows, so no float64 copy of the queries is made. Rows
    after a zero-norm row are checked but not divided.
    """
    count = require_int(count, "query_count")
    if count < 0:
        raise DimensionMismatch(f"cannot search {count} queries")
    unit = np.empty((count, dim), dtype=np.float32)
    seen, zero = 0, None
    for block in checked_blocks(blocks, count, dim):
        norms, nonzero = row_norms(block)
        if zero is None and nonzero.all():
            np.divide(block, norms[:, np.newaxis], out=unit[seen : seen + block.shape[0]],
                      casting="same_kind")
        elif zero is None:
            zero = seen + int(np.argmin(nonzero))
        seen += block.shape[0]
    return unit, zero


def _query_k(zero: int | None, k_results) -> int:
    """``k_results`` as an int, after ZeroVector for ``zero``, the first zero-norm query row."""
    if zero is not None:
        raise ZeroVector(f"zero-norm query at row {zero}")
    return require_k_results(k_results)


def _chunk_rows(queries: int, k_results: int) -> int:
    """Index rows per chunk: SCORE_FLOATS // m for a tile of m queries, in whole
    SELECT_CLASSES, and at least ``k_results`` rows. No queries chunk as a full tile."""
    m = min(QUERY_TILE, queries) or QUERY_TILE
    return max(SCORE_FLOATS // m // SELECT_CLASSES * SELECT_CLASSES, k_results, SELECT_CLASSES)


def _top_k_chunks(unit: np.ndarray, chunks, k_results: int) -> tuple[np.ndarray, np.ndarray]:
    """The m x k answer of unit float32 queries over ``(vectors, ids)`` index chunks.

    The one scoring loop. Chunks arrive in id order, the first with the
    most rows, and each is scored against every query tile in turn into
    one reused buffer. The first chunk fixes k = min(k_results, its
    rows); no chunk gives an m x 0 answer. After every chunk, each
    tile's candidates are merged into its rows of the answer, the
    running top k, which goes first: its ids are smaller than the
    chunk's, so entries of equal row and score reach ``_best_k`` in id
    order.
    """
    n = unit.shape[0]
    k = held = 0  # held: columns of the answer that hold a running top k
    hit_ids = np.empty((n, k), dtype=np.int64)
    hit_scores = np.empty((n, k), dtype=np.float32)
    for chunk, ids in chunks:
        if not held:
            k = min(k_results, chunk.shape[0])
            hit_ids = np.empty((n, k), dtype=np.int64)
            hit_scores = np.empty((n, k), dtype=np.float32)
            # One score buffer for every tile and chunk; each chunk's scores are a
            # C-contiguous view of it, the layout `tile @ chunk.T` would allocate.
            buffer = np.empty(min(QUERY_TILE, n) * chunk.shape[0], dtype=np.float32)
        for start in range(0, n, QUERY_TILE):
            tile = slice(start, start + QUERY_TILE)
            q = unit[tile].shape[0]
            scores = buffer[: q * chunk.shape[0]].reshape(q, -1)
            np.matmul(unit[tile], chunk.T, out=scores)
            row, col, vals = _select(scores, k, hit_scores[tile, -1] if held else None)
            # The running top k first: its ids are below the chunk's (see _best_k).
            row = np.concatenate([np.repeat(np.arange(q), held), row])
            col = np.concatenate([hit_ids[tile, :held].ravel(), ids[col]])
            vals = np.concatenate([hit_scores[tile, :held].ravel(), vals])
            hit_ids[tile], hit_scores[tile] = _best_k(row, col, vals, q, k)
        held = k
    return hit_ids, hit_scores


def _select(
    scores: np.ndarray, k: int, floor: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Candidates (row, column, clipped score) of an m x c score chunk, in row-major order.

    Keeps the raw scores strictly above one bound per row, chosen so
    that exactly the clipped scores the rule below asks for pass. With
    ``floor`` None (the first chunk, c >= k), the rule is every score at
    or above a per-row threshold that never exceeds the row's k-th best
    score over the whole index: column j belongs to residue class j % l,
    l = min(c, max(k, SELECT_CLASSES)), and at least k classes have a
    maximum >= the k-th largest class maximum t, so t never exceeds the
    chunk's k-th best score. The bound is the float32 just below t, or
    -inf where t clips to -1; of the scores that clip to t, a row keeps
    only its first k in column order, since ids ascend with the columns
    and those k outrank every later one, so the chunk gives O(m * k)
    candidates even where every score ties. Otherwise the rule is every
    score strictly above ``floor``, each row's running k-th best: a
    later chunk's ids all exceed the merged ones, so a tie with the
    floor loses. The bound is the floor, or +inf where it is 1. The rows are compared in slices
    of at most QUERY_TILE * SELECT_CLASSES scores (or one row), as many as
    a full tile's class maxima, and ties are trimmed within each slice,
    so neither a mask nor the ties of the whole chunk are held.
    """
    m, n = scores.shape
    kth = None
    if floor is None:
        classes = min(n, max(k, SELECT_CLASSES))
        depth = n // classes
        best = scores[:, : classes * depth].reshape(m, depth, classes).max(axis=1)
        tail = scores[:, classes * depth :]
        np.maximum(best[:, : tail.shape[1]], tail, out=best[:, : tail.shape[1]])
        kth = np.clip(np.partition(best, classes - k, axis=1)[:, classes - k], -1.0, 1.0)
        bound = np.where(kth > -1.0, np.nextafter(kth, -np.inf), -np.inf)
    else:
        bound = np.where(floor < 1.0, floor, np.inf)
    step = max(1, QUERY_TILE * SELECT_CLASSES // n)
    found = []
    for r in range(0, m, step):
        flat = np.flatnonzero(scores[r : r + step] > bound[r : r + step, np.newaxis])
        flat += r * n
        vals = scores.ravel()[flat]
        np.clip(vals, -1.0, 1.0, out=vals)
        if kth is not None:  # each row keeps its first k ties with the threshold, by column
            tied = np.flatnonzero(vals == kth[flat // n])
            if tied.size > k:
                row = flat[tied] // n
                drop = tied[np.arange(tied.size) - np.searchsorted(row, row) >= k]
                flat, vals = np.delete(flat, drop), np.delete(vals, drop)
        found.append((flat, vals))
    flat, vals = (np.concatenate(part) for part in zip(*found))
    return *np.divmod(flat, n), vals


def _best_k(
    row: np.ndarray, ids: np.ndarray, vals: np.ndarray, m: int, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """The m x k ids and scores of each row's k best entries, by (-score, id).

    Entry i belongs to row ``row[i]`` < m; every row has at least k
    entries, and entries of equal row and score arrive in ascending id
    order. So one stable sort gives ``np.lexsort((ids, -vals, row))``'s
    order, by one integer key: the row and the float32 bits of the score
    mapped to descending order (-0.0 as 0.0, which it equals).
    """
    bits = (vals + np.float32(0)).view(np.int32).astype(np.int64)
    bits ^= (bits >> 31) & 0x7FFFFFFF
    order = np.argsort((row << 32) - bits, kind="stable")
    counts = np.bincount(row, minlength=m)
    keep = order[((np.cumsum(counts) - counts)[:, np.newaxis] + np.arange(k)).ravel()]
    return ids[keep].reshape(m, k), vals[keep].reshape(m, k)


def require_repetitions(repetitions) -> int:
    """Passes over the queries, as an int: InvalidParameter unless an integer,
    EmptyInput below MIN_REPETITIONS."""
    repetitions = require_int(repetitions, "repetitions")
    if repetitions < MIN_REPETITIONS:
        raise EmptyInput(f"repetitions must be >= {MIN_REPETITIONS}, got {repetitions}")
    return repetitions


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
    does not move it. ``queries`` must hold at least one row (EmptyInput)
    and ``repetitions`` pass ``require_repetitions``; ``k_results`` is
    checked by the first query's ``top_k``.
    """
    queries = as_rows(queries, None, "queries")
    if queries.shape[0] == 0:
        raise EmptyInput("benchmark needs at least one query")
    repetitions = require_repetitions(repetitions)

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
