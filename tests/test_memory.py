"""Memory-bound guard: no command holds a whole input file.

Each command runs through ``cli.run`` on inputs of 16 blocks
(16 * BLOCK_ROWS rows of width 64) under ``tracemalloc``, which counts
numpy's buffers. Streamed commands hold a few blocks plus O(N) scores,
far below half of one input as float64; a command that loads an input
whole exceeds that on its own. ``search`` streams its index through one
chunk of rows and one score buffer of SCORE_FLOATS, for every query tile
and chunk, so it never holds the index: over a 48 MiB float32 index its
peak, measured with numpy 2.4.6, is 13.3 MiB (60.2 MiB when the index
was built first), about the same as over a 4 MiB one (13.3 against
14.8 MiB). With 512-query tiles and a 16 MiB score buffer these were
24.0, 70.9, 24.0 and 25.5 MiB.
Its older bound, the index plus 1.5 score buffers, is kept too. It holds
its queries once, as unit float32 rows normalized block by block as they
are read. Its selection scans a tile in row slices, with no mask of the
whole tile, and where every score ties it keeps at most k ties a query.
The library ``fit`` of a matrix folds it in blocks too, so it holds
far less than its input beyond that input. A float32 file's blocks, and
a float32 matrix's ``row_blocks`` slices, stay float32 until each
consumer's first ufunc, so ``fit`` and ``transform`` of such a file, and
library ``fit`` and ``write_emb1`` of such a matrix, hold less than two
float64 blocks. A ``PairedDataset`` keeps float32 sides as they are, so
library ``sweep_k`` of float32 pairs holds blocks and O(N) scores too.
BLAS keeps its buffers outside tracemalloc's view, so one test reads the
resident size that a ``top_k_batch`` call leaves behind in a child process.
"""

import ctypes
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from whitevec import evaluation, fileio, retrieval, streaming, whitening
from whitevec.cli import run

N, D = 16 * streaming.BLOCK_ROWS, 64
INPUT_BYTES = N * D * 8  # one input as float64


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("memory")

    def blocks(seed):
        rng = np.random.default_rng(seed)
        for start in range(0, N, streaming.BLOCK_ROWS):
            yield rng.standard_normal((min(streaming.BLOCK_ROWS, N - start), D)) + 1.0

    fileio.write_emb1_blocks(d / "left.emb1", blocks(1), N, D)
    fileio.write_emb1_blocks(d / "right.emb1", blocks(2), N, D)
    fileio.write_emb1_blocks(d / "left32.emb1", blocks(1), N, D, dtype="float32")
    rng = np.random.default_rng(3)
    (d / "gold.txt").write_text("".join(f"{g}\n" for g in rng.uniform(0, 5, N)))
    fileio.write_emb1(d / "query.emb1", rng.standard_normal((3 * retrieval.QUERY_TILE, D)))
    assert run(["fit", "--input", str(d / "left.emb1"), "--k", "16", "--out", str(d / "w.json")]) == 0
    return d


def peak_bytes(call, *args) -> int:
    """tracemalloc's peak, in bytes, while ``call(*args)`` runs."""
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def cli(argv) -> None:
    assert run(argv) == 0


@pytest.mark.parametrize("command", ["stats", "eval", "sweep", "transform"])
def test_streamed_commands_hold_blocks_not_files(inputs, command):
    d = inputs
    pairs = ["--left", str(d / "left.emb1"), "--right", str(d / "right.emb1"),
             "--gold", str(d / "gold.txt")]
    argv = {
        "stats": ["stats", "--input", str(d / "left.emb1")],
        "eval": ["eval", *pairs, "--k", "16"],
        "sweep": ["sweep", *pairs, "--ks", "4,16,full"],
        "transform": ["transform", "--input", str(d / "left.emb1"),
                      "--transform", str(d / "w.json")],
    }[command]
    assert peak_bytes(cli, [*argv, "--out", str(d / f"{command}.out")]) < INPUT_BYTES / 2


@pytest.mark.parametrize("command", ["fit", "transform", "library_fit", "library_write_emb1"])
def test_float32_input_is_not_widened_ahead_of_use(inputs, command):
    d = inputs
    src = ["--input", str(d / "left32.emb1")]
    x = np.random.default_rng(5).standard_normal((N, D), dtype=np.float32)
    call, *args = {
        "fit": (cli, ["fit", *src, "--k", "16", "--out", str(d / "fit32.out")]),
        "transform": (cli, ["transform", *src, "--transform", str(d / "w.json"),
                            "--out", str(d / "transform32.out")]),
        "library_fit": (whitening.fit, x, 16),
        "library_write_emb1": (fileio.write_emb1, d / "x32.emb1", x, "float32"),
    }[command]
    two_float64_blocks = streaming.BLOCK_ROWS * D * 16
    assert peak_bytes(call, *args) < two_float64_blocks


def test_search_holds_index_and_one_score_tile(inputs):
    d = inputs
    index_bytes = N * D * 4
    buffer_bytes = retrieval.SCORE_FLOATS * 4
    # A whole-index tile would be larger than the bound on its own.
    assert N * retrieval.QUERY_TILE * 4 > 1.5 * buffer_bytes
    argv = ["search", "--index", str(d / "left.emb1"), "--query", str(d / "query.emb1"),
            "--out", str(d / "hits.tsv")]
    peak = peak_bytes(cli, argv)
    assert peak < index_bytes + 1.5 * buffer_bytes


def test_search_streams_an_index_larger_than_its_bound(inputs):
    """`search` never holds its index: 3 tiles of queries over a 48 MiB float32 index.

    The index is 196 608 rows of width 64, written in BLOCK_ROWS-row
    blocks. The command holds the queries, the answer, one chunk of index rows
    (8192 x 64 float32, 2 MiB) and the 8 MiB score buffer. The bound,
    1.5 score buffers and 4 chunks (20 MiB), is below the index's 48 MiB,
    so holding the index fails it. The peak must also stay below 16 MiB,
    the score buffer of 512-query tiles alone. Measured with numpy 2.4.6:
    13.3 MiB (768 queries); 60.2 MiB where the index was built before the
    search. With 512-query tiles and a 16 MiB buffer, 1536 queries peaked
    at 24.0 MiB.
    """
    d = inputs
    rows = 196_608
    rng = np.random.default_rng(10)
    fileio.write_emb1_blocks(
        d / "large32.emb1",
        (rng.standard_normal((min(streaming.BLOCK_ROWS, rows - start), D), dtype=np.float32)
         for start in range(0, rows, streaming.BLOCK_ROWS)),
        rows, D, dtype="float32",
    )
    m = fileio.read_emb1_header(d / "query.emb1").count
    chunk_bytes = retrieval.SCORE_FLOATS // retrieval.QUERY_TILE * D * 4
    bound = 1.5 * retrieval.SCORE_FLOATS * 4 + 4 * chunk_bytes
    assert m == 3 * retrieval.QUERY_TILE and bound < rows * D * 4
    argv = ["search", "--index", str(d / "large32.emb1"), "--query", str(d / "query.emb1"),
            "--top", "10", "--out", str(d / "hits.tsv")]
    try:
        peak = peak_bytes(cli, argv)
        assert peak < bound
        assert peak < 16 * 2**20
    finally:
        (d / "large32.emb1").unlink()


def test_search_holds_its_queries_once_as_unit_float32(inputs):
    """8 x BLOCK_ROWS float64 queries of width 64 over a 2048-row index, --top 1.

    The command holds the unit queries (8192 x 64 float32, 2 MiB), the
    answer (12 bytes a query), one chunk (the whole index as unit
    float32, 0.5 MiB) and the score buffer (256 x 2048 floats, 2 MiB).
    The bound adds half a score buffer for a tile's selection, as the
    tests above do, and four float64 query blocks (2 MiB) for one block's
    temporaries, 7.6 MiB in all; the queries as read (4 MiB as float64)
    and their float64 copy would exceed it. Measured with numpy 2.4.6:
    6.7 MiB; 10.7 MiB when the queries were concatenated as read and
    normalized through a float64 copy.
    """
    d = inputs
    m, rows = 8 * streaming.BLOCK_ROWS, 2048
    rng = np.random.default_rng(17)
    fileio.write_emb1(d / "queries8.emb1", rng.standard_normal((m, D)))
    fileio.write_emb1(d / "index2k.emb1", rng.standard_normal((rows, D), dtype=np.float32),
                      dtype="float32")
    argv = ["search", "--index", str(d / "index2k.emb1"), "--query", str(d / "queries8.emb1"),
            "--top", "1", "--out", str(d / "hits.tsv")]
    unit_bytes, chunk_bytes = m * D * 4, rows * D * 4
    buffer_bytes = retrieval.QUERY_TILE * rows * 4
    bound = unit_bytes + m * 12 + chunk_bytes + 1.5 * buffer_bytes + 4 * streaming.BLOCK_ROWS * D * 8
    assert unit_bytes + 2 * m * D * 8 > bound
    assert peak_bytes(cli, argv) < bound


def test_search_at_a_large_top_holds_the_answer_as_arrays(inputs):
    """Many queries at a large --top hold two m x top arrays, 12 bytes a hit.

    The index is one chunk of SELECT_CLASSES rows, so its score buffer is
    a tile's 256 x 1024 floats (1 MiB) and the rest of the 1.5 score
    buffers covers one tile's selection. 768 queries at --top 256 are
    196 608 hits (2.25 MiB as arrays); the bound is 14.5 MiB. Measured
    with numpy 2.4.6: 8.1 MiB; 15.9 MiB for 1536 queries in 512-query
    tiles. Held as (id, score) tuples and then as TSV lines before one
    joined write, 1536 queries' hits peaked at 72.6 MiB.
    """
    d = inputs
    rows, top = retrieval.SELECT_CLASSES, 256
    fileio.write_emb1(d / "small.emb1", np.random.default_rng(8).standard_normal((rows, D)) + 1.0)
    m = fileio.read_emb1_header(d / "query.emb1").count
    assert rows <= retrieval.SCORE_FLOATS // retrieval.QUERY_TILE and m >= 3 * retrieval.QUERY_TILE
    argv = ["search", "--index", str(d / "small.emb1"), "--query", str(d / "query.emb1"),
            "--top", str(top), "--out", str(d / "hits.tsv")]
    bound = rows * D * 4 + 1.5 * retrieval.SCORE_FLOATS * 4 + m * top * 12
    assert peak_bytes(cli, argv) < bound


def test_later_chunk_selection_scans_the_tile_in_row_slices():
    """A later chunk's ``_select`` on one full tile holds less than its class maxima.

    The tile is QUERY_TILE x SCORE_FLOATS // QUERY_TILE scores (256 x
    8192), uniform in [-1, 1), with each row's 10th best as the floor, so
    9 scores a row pass. The bound is the 1 MiB of float32 class maxima
    (QUERY_TILE x SELECT_CLASSES) that later chunks took while every chunk
    was bounded by them; a boolean mask of the whole tile is 2 MiB.
    Measured with numpy 2.4.6: 0.27 MiB; 0.54 MiB for a 512 x 8192 tile,
    and 2.95 MiB there with those class maxima.
    """
    m = retrieval.QUERY_TILE
    rng = np.random.default_rng(11)
    scores = rng.random((m, retrieval.SCORE_FLOATS // m), dtype=np.float32) * 2 - 1
    floor = np.partition(scores, -10, axis=1)[:, -10].copy()
    bound = m * retrieval.SELECT_CLASSES * 4
    assert scores.size > bound  # a whole-tile mask would not fit
    assert peak_bytes(retrieval._select, scores, 10, floor) <= bound


def test_ties_hold_a_bounded_peak_per_first_chunk_score():
    """A tile of QUERY_TILE queries at k = 10 over 100 000 identical rows of width 8.

    Each query scores every row the same, so all 256 x 8192 scores of the
    first chunk are candidates, and every later chunk ties with the running
    10th best and gives none. The bound is 64 bytes per first-chunk score
    (128 MiB). tracemalloc peaks, measured with numpy 2.4.6: 96.0 MiB
    (~48 B a score). For 512 queries in one 512 x 8192 tile: 368.1 MiB
    (~92 B a score) when candidates were gathered by residue class and
    sorted by id before the merge sort; 192.1 MiB as one row-major scan,
    sorted once; 105.1 MiB in two 256-query tiles.
    """
    index = retrieval.build_index(np.tile(np.random.default_rng(1).standard_normal(8), (100_000, 1)))
    queries = np.random.default_rng(2).standard_normal((retrieval.QUERY_TILE, 8))
    first_chunk = retrieval.QUERY_TILE * (retrieval.SCORE_FLOATS // retrieval.QUERY_TILE)
    assert peak_bytes(retrieval.top_k_batch, index, queries, 10) <= 64 * first_chunk


def test_first_chunk_ties_hold_the_score_buffer_and_one_row_slice():
    """The ties case above, where each row keeps at most k of the first
    chunk's scores tied at its threshold, trimmed within each row slice.

    The tile holds the 8 MiB score buffer and one slice's candidates
    (32 rows x 8192 scores, 8 bytes an index) at a time; the bound is
    24 MiB. Measured with numpy 2.4.6: 22.1 MiB; 96.0 MiB when every
    first-chunk tie was a candidate.
    """
    index = retrieval.build_index(np.tile(np.random.default_rng(1).standard_normal(8), (100_000, 1)))
    queries = np.random.default_rng(2).standard_normal((retrieval.QUERY_TILE, 8))
    assert peak_bytes(retrieval.top_k_batch, index, queries, 10) < 24 * 2**20


def test_library_sweep_k_of_float32_pairs_holds_blocks():
    rng = np.random.default_rng(6)
    x32, y32 = (rng.standard_normal((N, D), dtype=np.float32) for _ in range(2))
    gold = rng.uniform(0, 5, N)

    def sweep():
        evaluation.sweep_k(evaluation.PairedDataset(left=x32, right=y32, gold=gold), [4, 16])

    assert peak_bytes(sweep) < INPUT_BYTES / 2


def test_library_fit_holds_blocks_not_a_centred_copy():
    x = np.random.default_rng(4).standard_normal((N, D))
    assert peak_bytes(whitening.fit, x, 16) < INPUT_BYTES / 2


@pytest.mark.parametrize("rows", [1, 64])
def test_moment_update_adds_into_the_state_scatter(rows):
    """An update of a state that holds rows makes one d x d temporary, the outer product.

    At d = 512 the state's scatter is one d x d float64 square (2 MiB).
    A one-row update is bound at 1.5 squares; a 64-row block, whose own
    scatter is a second square, at 3 squares plus the block's float64
    copy. Measured with numpy 2.4.6: 1.01 and 2.13 squares; 2.07 and
    3.19 when each combination built ``own + scatter`` and then the
    outer product as new arrays.
    """
    d = 512
    rng = np.random.default_rng(12)
    state = streaming.MomentState()
    state.update(rng.standard_normal((3, d)))
    square = d * d * 8
    if rows == 1:
        x, bound = rng.standard_normal(d), 1.5 * square
    else:
        x = rng.standard_normal((rows, d))
        bound = 3 * square + x.nbytes
    assert peak_bytes(state.update, x) < bound
    assert state.count == 3 + rows


RSS_ROWS, RSS_DIM = 20_000, 256


def find_malloc_trim():
    """glibc's ``malloc_trim``, or None where the C library has none."""
    try:
        return ctypes.CDLL(None).malloc_trim
    except (OSError, AttributeError):
        return None


def resident_bytes() -> int:
    """VmRSS after ``malloc_trim(0)``, so freed heap that glibc kept is not counted."""
    find_malloc_trim()(0)
    with open("/proc/self/status") as f:
        kb = next(line.split()[1] for line in f if line.startswith("VmRSS:"))
    return int(kb) * 1024


def print_rss_kept_by_top_k_batch() -> None:
    """Print how much resident memory one tile of top_k_batch leaves behind."""
    rng = np.random.default_rng(7)
    blocks = (
        rng.standard_normal((min(streaming.BLOCK_ROWS, RSS_ROWS - start), RSS_DIM), dtype=np.float32)
        for start in range(0, RSS_ROWS, streaming.BLOCK_ROWS)
    )
    index = retrieval.build_index_blocks(blocks, RSS_ROWS, RSS_DIM)
    queries = rng.standard_normal((retrieval.QUERY_TILE, RSS_DIM), dtype=np.float32)
    before = resident_bytes()
    retrieval.top_k_batch(index, queries, 10)
    print(resident_bytes() - before)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux /proc")
@pytest.mark.skipif(find_malloc_trim() is None, reason="needs glibc malloc_trim")
def test_top_k_batch_leaves_no_copy_of_the_index_resident():
    """Scoring a tile must not leave BLAS packing buffers the size of the index.

    Scored as index x queries, two-threaded OpenBLAS 0.3.31 kept more than
    the index resident after the call (21.4 MB for a 20.5 MB index);
    scored as queries x index chunks it keeps 2.1 MB (2.4 MB for a
    512-query tile). The tile's queries
    span three chunks of the index. The child pins two BLAS threads,
    which OpenBLAS reads at start-up, because single-threaded sgemm kept
    little in either layout. Each read of the resident size follows a
    ``malloc_trim(0)``: without it, freed heap that glibc kept in its
    main arena counted too, 3.6 or 9.4 MB for the same loop depending on
    what else sat on the heap.
    """
    assert RSS_ROWS >= 2 * (retrieval.SCORE_FLOATS // retrieval.QUERY_TILE)
    env = dict(
        os.environ,
        OPENBLAS_NUM_THREADS="2",
        PYTHONPATH=os.pathsep.join(
            [str(Path(retrieval.__file__).parents[1]), str(Path(__file__).parent)]
        ),
    )
    proc = subprocess.run(
        [sys.executable, "-c", "import test_memory; test_memory.print_rss_kept_by_top_k_batch()"],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    index_bytes = RSS_ROWS * RSS_DIM * 4
    assert int(proc.stdout) < index_bytes / 4
