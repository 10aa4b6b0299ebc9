"""Memory-bound guard: no command holds a whole input file.

Each command runs through ``cli.run`` on inputs of 16 blocks
(16 * BLOCK_ROWS rows of width 64) under ``tracemalloc``, which counts
numpy's buffers. Streamed commands hold a few blocks plus O(N) scores,
far below half of one input as float64; a command that loads an input
whole exceeds that on its own. ``search`` must hold its float32 index,
so its bound is the index plus 1.5 score tiles: one tile at a time.
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
    rng = np.random.default_rng(3)
    (d / "gold.txt").write_text("".join(f"{g}\n" for g in rng.uniform(0, 5, N)))
    fileio.write_emb1(d / "query.emb1", rng.standard_normal((3 * retrieval.QUERY_TILE, D)))
    assert run(["fit", "--input", str(d / "left.emb1"), "--k", "16", "--out", str(d / "w.json")]) == 0
    return d


def peak_bytes(argv) -> int:
    tracemalloc.start()
    try:
        assert run(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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
    assert peak_bytes([*argv, "--out", str(d / f"{command}.out")]) < INPUT_BYTES / 2


def test_search_holds_index_and_one_score_tile(inputs):
    d = inputs
    index_bytes = N * D * 4
    tile_bytes = N * retrieval.QUERY_TILE * 4
    peak = peak_bytes(["search", "--index", str(d / "left.emb1"), "--query", str(d / "query.emb1"),
                       "--out", str(d / "hits.tsv")])
    assert peak < index_bytes + 1.5 * tile_bytes
