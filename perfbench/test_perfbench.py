"""Tests of the benchmark's own parts: formats, checks, launcher, tracer.

Each check is shown to accept the program's real output on small
generated inputs and to reject a deliberately corrupted copy of it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import gen
from formats import open_emb1, write_emb1
from whitevec import cli

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _cli(*argv):
    assert cli.run([str(a) for a in argv]) == 0


def _rewrite(path, lines):
    Path(path).write_text("".join(lines), encoding="utf-8")


def test_emb1_writer_matches_documented_hex_example(tmp_path):
    write_emb1(tmp_path / "x.emb1", np.array([[1.5, -2.0]]), "float64")
    expected = bytes.fromhex(
        "454d4231010000000100000000000000"
        "02000000010000000000000000000000"
        "000000000000f83f00000000000000c0"
    )
    assert (tmp_path / "x.emb1").read_bytes() == expected
    assert open_emb1(tmp_path / "x.emb1").tolist() == [[1.5, -2.0]]


def test_generators_are_deterministic(tmp_path, monkeypatch):
    monkeypatch.setattr(gen, "STS_N", 300)
    for seed, sub in ((5, "a"), (5, "b"), (6, "c")):
        (tmp_path / sub).mkdir()
        gen.sts128(tmp_path / sub, seed)
    same = (tmp_path / "a" / "left.emb1").read_bytes() == (tmp_path / "b" / "left.emb1").read_bytes()
    other = (tmp_path / "a" / "left.emb1").read_bytes() == (tmp_path / "c" / "left.emb1").read_bytes()
    assert same and not other


@pytest.fixture
def corpus(tmp_path, monkeypatch):
    monkeypatch.setattr(gen, "CORPUS_N", 3000)
    monkeypatch.setattr(gen, "CORPUS_D", 24)
    monkeypatch.setattr(gen, "CORPUS_RANK", 6)
    gen.corpus384(tmp_path, 1)
    c, w, y = tmp_path / "corpus.emb1", tmp_path / "w.json", tmp_path / "white.emb1"
    _cli("fit", "--input", c, "--k", 12, "--out", w)
    _cli("transform", "--input", c, "--transform", w, "--out", y, "--dtype", "float32")
    return checks.corpus_reference(c), w, y


def test_fit_check(corpus):
    ref, w, _ = corpus
    assert checks.check_fit(ref, w, 12) == []
    doc = json.loads(w.read_text())
    doc["matrix"] = (np.array(doc["matrix"]) * np.r_[np.ones(11), 1.001]).tolist()
    w.write_text(json.dumps(doc))
    assert any("|W_11|^-2" in e for e in checks.check_fit(ref, w, 12))
    doc["mean"][0] += 1e-6
    w.write_text(json.dumps(doc))
    assert any("mean" in e for e in checks.check_fit(ref, w, 12))


def test_white_check(corpus):
    ref, _, y = corpus
    assert checks.check_white(ref, y, 12) == []
    data = np.array(open_emb1(y))
    data[:, 3] *= 1.001
    write_emb1(y, data, "float32")
    assert any("cov - I" in e for e in checks.check_white(ref, y, 12))
    data[:, 3] /= 1.001
    data += 1e-3
    write_emb1(y, data, "float32")
    assert any("column mean" in e for e in checks.check_white(ref, y, 12))
    write_emb1(y, data, "float64")
    assert "float32" in checks.check_white(ref, y, 12)[0]


@pytest.fixture
def search(tmp_path, monkeypatch):
    for name, value in (("INDEX_N", 4000), ("INDEX_D", 16), ("INDEX_CLUSTERS", 8),
                        ("N_QUERIES", 60), ("N_EXACT_QUERIES", 30)):
        monkeypatch.setattr(gen, name, value)
    gen.search256(tmp_path, 2)
    hits = tmp_path / "hits.tsv"
    _cli("search", "--index", tmp_path / "index.emb1", "--query", tmp_path / "query.emb1",
         "--top", 10, "--out", hits)
    ref = checks.search_reference(tmp_path / "index.emb1", tmp_path / "query.emb1", 10)
    return ref, hits, hits.read_text().splitlines(keepends=True)


def _field(line, i):
    return line.rstrip("\n").split("\t")[i]


def _with_id(line, new_id):
    row, rank, _, score = line.rstrip("\n").split("\t")
    return f"{row}\t{rank}\t{new_id}\t{score}\n"


def test_search_check_accepts_program_output(search):
    ref, hits, _ = search
    assert checks.check_search(ref, hits) == []


def test_search_check_rejects_swapped_hits(search):
    ref, hits, lines = search
    # Swap rank 1 and 2 of a perturbed query, whose scores differ.
    lines[0], lines[1] = _with_id(lines[0], _field(lines[1], 2)), _with_id(lines[1], _field(lines[0], 2))
    _rewrite(hits, lines)
    assert checks.check_search(ref, hits)


def test_search_check_rejects_wrong_score(search):
    ref, hits, lines = search
    row, rank, vec_id, score = lines[3].rstrip("\n").split("\t")
    lines[3] = f"{row}\t{rank}\t{vec_id}\t{float(score) - 1e-4:.6f}\n"
    _rewrite(hits, lines)
    assert any("printed scores differ" in e for e in checks.check_search(ref, hits))


def test_search_check_rejects_reversed_ties(search):
    ref, hits, lines = search
    # Exact-copy queries are last; their first two hits are duplicates that tie.
    i = len(lines) - 10
    assert _field(lines[i], 3) == _field(lines[i + 1], 3)
    lines[i], lines[i + 1] = _with_id(lines[i], _field(lines[i + 1], 2)), _with_id(lines[i + 1], _field(lines[i], 2))
    _rewrite(hits, lines)
    assert any("tied ids" in e for e in checks.check_search(ref, hits))


def test_search_check_rejects_zero_row_and_missed_hit(search):
    ref, hits, lines = search
    _rewrite(hits, [_with_id(lines[0], ref.zero_ids[0])] + lines[1:])
    assert any("all-zero" in e for e in checks.check_search(ref, hits))
    far_id = next(i for i in range(4000) if i not in ref.cand_ids[0] and i not in ref.zero_ids)
    _rewrite(hits, [_with_id(lines[0], far_id)] + lines[1:])
    assert any("below the top" in e for e in checks.check_search(ref, hits))


@pytest.fixture(scope="module")
def sts(tmp_path_factory):
    d = tmp_path_factory.mktemp("sts")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gen, "STS_N", 2000)
        mp.setattr(gen, "STS_D", 72)
        gen.sts128(d, 3)
    pairs = ["--left", d / "left.emb1", "--right", d / "right.emb1", "--gold", d / "gold.txt"]
    _cli("stats", "--input", d / "left.emb1", "--out", d / "stats.tsv")
    _cli("eval", *pairs, "--k", 8, "--fit", "target", "--out", d / "eval.json")
    _cli("sweep", *pairs, "--ks", "8,16,32,64,full", "--out", d / "sweep.tsv")
    ref = checks.sts_reference(d / "left.emb1", d / "right.emb1", d / "gold.txt", gen.STS_KS)
    return ref, d


def test_sts_checks_accept_program_output(sts):
    ref, d = sts
    assert checks.check_stats(ref, d / "stats.tsv") == []
    assert checks.check_eval(ref, d / "eval.json", 8) == []
    assert checks.check_sweep(ref, d / "sweep.tsv") == []


def test_stats_check_rejects_wrong_eigenvalue(sts, tmp_path):
    ref, d = sts
    lines = (d / "stats.tsv").read_text().splitlines(keepends=True)
    vals = lines[3].split("\t")[1].split()
    vals[2] = repr(float(vals[2]) * (1 + 1e-6))
    _rewrite(tmp_path / "s.tsv", lines[:3] + ["top_eigenvalues\t" + " ".join(vals) + "\n"])
    assert any("top eigenvalues" in e for e in checks.check_stats(ref, tmp_path / "s.tsv"))
    _rewrite(tmp_path / "s.tsv", ["n\t1999\n"] + lines[1:])
    assert any("n = 1999" in e for e in checks.check_stats(ref, tmp_path / "s.tsv"))
    trace = float(lines[2].split("\t")[1]) * (1 + 1e-8)
    _rewrite(tmp_path / "s.tsv", lines[:2] + [f"trace\t{trace!r}\n"] + lines[3:])
    assert any("trace" in e for e in checks.check_stats(ref, tmp_path / "s.tsv"))


def test_eval_check_rejects_wrong_rho_and_small_gain(sts, tmp_path):
    ref, d = sts
    doc = json.loads((d / "eval.json").read_text())
    doc["spearman_rho_x100"] += 3e-5
    (tmp_path / "e.json").write_text(json.dumps(doc))
    assert any("rho x100" in e for e in checks.check_eval(ref, tmp_path / "e.json", 8))
    raw = ref.rho_raw
    ref.rho_raw = ref.rho[8] - 0.05
    try:
        assert any("not 0.1 above raw" in e for e in checks.check_eval(ref, d / "eval.json", 8))
    finally:
        ref.rho_raw = raw


def test_sweep_check_rejects_wrong_rho_and_missing_k(sts, tmp_path):
    ref, d = sts
    lines = (d / "sweep.tsv").read_text().splitlines(keepends=True)
    k, rho = lines[2].rstrip("\n").split("\t")
    _rewrite(tmp_path / "s.tsv", lines[:2] + [f"{k}\t{float(rho) + 2e-6:.6f}\n"] + lines[3:])
    assert any(f"k={k}" in e for e in checks.check_sweep(ref, tmp_path / "s.tsv"))
    _rewrite(tmp_path / "s.tsv", lines[:-1])
    assert any("ks" in e for e in checks.check_sweep(ref, tmp_path / "s.tsv"))


def test_launcher_rss_excludes_parent_footprint(tmp_path):
    ballast = np.ones(200 * 2**20 // 8)  # 200 MB resident in this process
    proc = subprocess.run(
        [sys.executable, str(HERE / "launch.py"), str(tmp_path / "o"), str(tmp_path / "e"),
         sys.executable, "-c", "print('hi')"],
        capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout)
    assert ballast.sum() > 0
    assert result["exit"] == 0 and (tmp_path / "o").read_text() == "hi\n"
    assert result["maxrss_kb"] < 100 * 1024


def test_tracer_spans_nest_across_modules(tmp_path, monkeypatch):
    monkeypatch.setattr(gen, "STS_N", 500)
    gen.sts128(tmp_path, 4)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "spans": str(tmp_path / "spans.jsonl"),
        "commands": [["stats", "--input", str(tmp_path / "left.emb1"), "--out", str(tmp_path / "s.tsv")]],
        "probes": 1,
    }))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, str(HERE / "tracer.py"), str(spec)],
                          env=env, capture_output=True, text=True, check=True)
    assert json.loads(proc.stdout.splitlines()[-1])["exit"] == [0]
    spans = [json.loads(line) for line in (tmp_path / "spans.jsonl").read_text().splitlines()]
    cmd = next(s for s in spans if s["name"] == "cli.cmd_stats")
    children = {s["name"] for s in spans if s["parent"] == cmd["id"]}
    assert {"fileio.iter_emb1", "streaming.MomentState.update", "streaming.finalize",
            "linalg.sym_eig"} <= children
    updates = [s for s in spans if s["name"] == "streaming.MomentState.update"]
    assert len(updates) == 500 and updates[0]["rows"] == 1 and updates[0]["dim"] == gen.STS_D
