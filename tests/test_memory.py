"""Memory-bound guard: no command holds a whole input file.

Each command runs through ``cli.run`` on inputs of 16 blocks
(16 * BLOCK_ROWS rows of width 64) under ``tracemalloc``, which counts
numpy's buffers. Streamed commands hold a few blocks plus O(N) scores,
far below half of one input as float64; a command that loads an input
whole exceeds that on its own. ``search`` must hold its float32 index,
so its bound is the index plus 1.5 score tiles: one tile at a time.
The library ``fit`` of a matrix folds it in blocks too, so it holds
far less than its input beyond that input. A float32 file's blocks, and
a float32 matrix's ``row_blocks`` slices, stay float32 until each
consumer's first ufunc, so ``fit`` and ``transform`` of such a file, and
library ``fit`` and ``write_emb1`` of such a matrix, hold less than two
float64 blocks.
"""

import tracemalloc

import numpy as np
import pytest

from whitevec import fileio, retrieval, whitening
from whitevec.cli import run

N, D = 16 * whitening.BLOCK_ROWS, 64
INPUT_BYTES = N * D * 8  # one input as float64


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("memory")

    def blocks(seed):
        rng = np.random.default_rng(seed)
        for start in range(0, N, whitening.BLOCK_ROWS):
            yield rng.standard_normal((min(whitening.BLOCK_ROWS, N - start), D)) + 1.0

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
    two_float64_blocks = whitening.BLOCK_ROWS * D * 16
    assert peak_bytes(call, *args) < two_float64_blocks


def test_search_holds_index_and_one_score_tile(inputs):
    d = inputs
    index_bytes = N * D * 4
    tile_bytes = N * retrieval.QUERY_TILE * 4
    argv = ["search", "--index", str(d / "left.emb1"), "--query", str(d / "query.emb1"),
            "--out", str(d / "hits.tsv")]
    peak = peak_bytes(cli, argv)
    assert peak < index_bytes + 1.5 * tile_bytes


def test_library_fit_holds_blocks_not_a_centred_copy():
    x = np.random.default_rng(4).standard_normal((N, D))
    assert peak_bytes(whitening.fit, x, 16) < INPUT_BYTES / 2
