import argparse
import json
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from whitevec import cli, errors, evaluation, fileio, retrieval, streaming, whitening
from whitevec.cli import build_parser, run
from whitevec.evaluation import cosine_similarity

from test_retrieval import zero_layout


@pytest.fixture
def workdir(tmp_path):
    rng = np.random.default_rng(0)
    mix = rng.standard_normal((4, 4)) * np.array([4.0, 2.0, 1.0, 0.5])
    data = rng.standard_normal((120, 4)) @ mix + 3.0
    fileio.write_emb1(tmp_path / "data.emb1", data)

    left = rng.standard_normal((40, 4)) @ mix
    right = rng.standard_normal((40, 4)) @ mix
    gold = [cosine_similarity(l, r) for l, r in zip(left, right)]
    fileio.write_emb1(tmp_path / "left.emb1", left)
    fileio.write_emb1(tmp_path / "right.emb1", right)
    (tmp_path / "gold.txt").write_text("".join(f"{g}\n" for g in gold))
    return tmp_path


def search_tsv(ids, scores):
    """The `search` TSV of a top_k_batch answer: query row, rank, id, score."""
    return "".join(
        f"{row}\t{rank}\t{i}\t{s:.6f}\n"
        for row in range(ids.shape[0])
        for rank, (i, s) in enumerate(zip(ids[row].tolist(), scores[row].tolist()), start=1)
    )


def test_fit_happy_path(workdir):
    out = workdir / "w.json"
    code = run(
        ["fit", "--input", str(workdir / "data.emb1"), "--k", "2", "--out", str(out)]
    )
    assert code == 0
    t = fileio.load_transform(out)
    assert t.output_dim == 2 and t.input_dim == 4 and t.fit_count == 120


@pytest.mark.parametrize("k", ["full", "2"])
def test_fit_at_rank_zero_gives_followable_advice(workdir, k, capsys):
    """Constant rows have rank 0: no k can succeed, so none is suggested."""
    fileio.write_emb1(workdir / "flat.emb1", np.full((5, 3), 2.0))
    code = run(["fit", "--input", str(workdir / "flat.emb1"), "--k", k,
                "--out", str(workdir / "w.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("RankDeficient:") and "r=0" in err
    assert "no direction's variance exceeds the rank tolerance" in err
    assert "retry" not in err and "k=" not in err
    with pytest.raises(errors.RankDeficient) as exc:
        whitening.fit(np.full((5, 3), 2.0), k="full")
    assert (exc.value.requested, exc.value.rank) == (1, 0)


def test_fit_k_zero_is_usage_error(workdir, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["fit", "--input", "x", "--k", "0", "--out", "y"])
    assert exc.value.code == 2


def test_fit_rank_deficient_is_runtime_error(workdir, capsys):
    degenerate = np.zeros((5, 3))
    degenerate[:, 0] = np.arange(5.0)
    fileio.write_emb1(workdir / "flat.emb1", degenerate)
    code = run(
        ["fit", "--input", str(workdir / "flat.emb1"), "--k", "3",
         "--out", str(workdir / "w.json")]
    )
    assert code == 1
    assert "RankDeficient" in capsys.readouterr().err


def test_missing_file_is_runtime_error(workdir, capsys):
    code = run(
        ["fit", "--input", str(workdir / "nope.emb1"), "--k", "1",
         "--out", str(workdir / "w.json")]
    )
    assert code == 1


def test_missing_out_directory_names_the_out_path(workdir, capsys):
    """Not the temporary file beside it, whose name changes on every run."""
    out = workdir / "missing" / "w.json"
    assert run(["fit", "--input", str(workdir / "data.emb1"), "--k", "2",
                "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("IOError:") and str(out) in err and ".tmp" not in err


FLAG_CHECKS = {
    "--k": whitening.require_k,
    "--eps": whitening.require_eps,
    "--top": retrieval.require_k_results,
    "--reps": retrieval.require_repetitions,
}


FLAG_VALUES = [
    ("--k", "0", 0), ("--k", "abc", "abc"), ("--k", "1.5", "1.5"),
    ("--eps", "-1", -1.0), ("--eps", "nan", float("nan")), ("--eps", "abc", "abc"),
    ("--top", "0", 0), ("--top", "x", "x"), ("--reps", "2", 2),
]


@pytest.mark.parametrize(
    "flag, text, value", FLAG_VALUES, ids=[f"{f}={t}" for f, t, _ in FLAG_VALUES]
)
def test_flag_usage_error_carries_the_library_message(tmp_path, flag, text, value, capsys):
    """Each flag's value is checked by the library's check of the parsed
    value (the text itself where it does not parse), before any file is read."""
    with pytest.raises(errors.WhitevecError) as raised:
        FLAG_CHECKS[flag](value)
    none = str(tmp_path / "none")
    command = {
        "--k": ["fit", "--input", none, "--out", none],
        "--eps": ["fit", "--input", none, "--k", "full", "--out", none],
        "--top": ["search", "--index", none, "--query", none],
        "--reps": ["bench", "--index", none, "--query", none],
    }[flag]
    with pytest.raises(SystemExit) as exc:
        run([*command, f"{flag}={text}"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].endswith(f"argument {flag}: {raised.value}")


@pytest.mark.parametrize("command, flag", [("fit", "--k=abc"), ("eval", "--k=abc"),
                                           ("sweep", "--ks=4,abc")])
def test_k_usage_error_names_full(tmp_path, command, flag, capsys):
    """A k that is not an integer is refused with a message naming both
    accepted forms, an integer >= 1 and 'full'."""
    none = str(tmp_path / "none")
    inputs = {
        "fit": ["--input", none, "--out", none],
        "eval": ["--left", none, "--right", none, "--gold", none],
        "sweep": ["--left", none, "--right", none, "--gold", none],
    }[command]
    with pytest.raises(SystemExit) as exc:
        run([command, *inputs, flag])
    assert exc.value.code == 2
    last = capsys.readouterr().err.splitlines()[-1]
    assert last.endswith("k must be an integer >= 1 or 'full', got 'abc'"), last


def test_transform_roundtrip(workdir):
    wpath = workdir / "w.json"
    run(["fit", "--input", str(workdir / "data.emb1"), "--k", "full", "--out", str(wpath)])
    out = workdir / "white.emb1"
    code = run(
        ["transform", "--input", str(workdir / "data.emb1"),
         "--transform", str(wpath), "--out", str(out)]
    )
    assert code == 0
    t = fileio.load_transform(wpath)
    expected = whitening.apply_batch(t, fileio.read_emb1(workdir / "data.emb1"))
    assert np.array_equal(fileio.read_emb1(out), expected)


def test_eval_json_report(workdir, capsys):
    code = run(
        ["eval", "--left", str(workdir / "left.emb1"),
         "--right", str(workdir / "right.emb1"),
         "--gold", str(workdir / "gold.txt"),
         "--fit", "target", "--k", "full", "--dataset", "toy"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["dataset"] == "toy"
    assert doc["n_pairs"] == 40
    assert doc["skipped"] == 0
    assert doc["k"] == 4
    assert -100.0 <= doc["spearman_rho_x100"] <= 100.0


def test_eval_without_k_uses_raw_embeddings(workdir, capsys):
    code = run(
        ["eval", "--left", str(workdir / "left.emb1"),
         "--right", str(workdir / "right.emb1"),
         "--gold", str(workdir / "gold.txt")]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    # gold was built from raw cosines, so raw evaluation is perfect
    assert doc["spearman_rho_x100"] == 100.0


def test_eval_output_deterministic(workdir, capsys):
    argv = ["eval", "--left", str(workdir / "left.emb1"),
            "--right", str(workdir / "right.emb1"),
            "--gold", str(workdir / "gold.txt"), "--k", "2"]
    run(argv)
    first = capsys.readouterr().out
    run(argv)
    assert capsys.readouterr().out == first


def test_eval_external_fit_corpus(workdir, capsys):
    code = run(
        ["eval", "--left", str(workdir / "left.emb1"),
         "--right", str(workdir / "right.emb1"),
         "--gold", str(workdir / "gold.txt"),
         "--fit", str(workdir / "data.emb1"), "--k", "3"]
    )
    assert code == 0
    assert json.loads(capsys.readouterr().out)["k"] == 3


def test_sweep_tsv(workdir, capsys):
    code = run(
        ["sweep", "--left", str(workdir / "left.emb1"),
         "--right", str(workdir / "right.emb1"),
         "--gold", str(workdir / "gold.txt"), "--ks", "1,2,full"]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "k\trho"
    ks = [int(line.split("\t")[0]) for line in lines[1:]]
    assert ks == [1, 2, 4]


def test_sweep_warns_above_rank(workdir, capsys):
    code = run(
        ["sweep", "--left", str(workdir / "left.emb1"),
         "--right", str(workdir / "right.emb1"),
         "--gold", str(workdir / "gold.txt"), "--ks", "2,99"]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert "RankDeficient" in captured.err
    ks = [line.split("\t")[0] for line in captured.out.strip().split("\n")[1:]]
    assert ks == ["2"]


def test_stats(workdir, capsys, monkeypatch):
    monkeypatch.setattr(fileio, "BLOCK_ROWS", 16)
    code = run(["stats", "--input", str(workdir / "data.emb1")])
    assert code == 0
    out = capsys.readouterr().out
    fields = dict(
        line.split("\t", 1) for line in out.strip().split("\n")
    )
    assert fields["n"] == "120"
    assert float(fields["trace"]) > 0
    assert len(fields["top_eigenvalues"].split()) == 4  # d=4 < 10


def test_search_tsv(workdir, capsys):
    fileio.write_emb1(workdir / "q.emb1", np.eye(4)[:2])
    code = run(
        ["search", "--index", str(workdir / "data.emb1"),
         "--query", str(workdir / "q.emb1"), "--top", "3"]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 6
    row, rank, vec_id, score = lines[0].split("\t")
    assert (row, rank) == ("0", "1")
    assert -1.0 <= float(score) <= 1.0


def test_search_with_transform(workdir, capsys):
    wpath = workdir / "w.json"
    run(["fit", "--input", str(workdir / "data.emb1"), "--k", "2", "--out", str(wpath)])
    fileio.write_emb1(workdir / "q.emb1", np.eye(4)[:1])
    code = run(
        ["search", "--index", str(workdir / "data.emb1"),
         "--transform", str(wpath),
         "--query", str(workdir / "q.emb1"), "--top", "2"]
    )
    assert code == 0
    assert len(capsys.readouterr().out.strip().split("\n")) == 2


def test_search_zero_queries_gives_empty_output(workdir, capsys):
    fileio.write_emb1(workdir / "q.emb1", np.empty((0, 4)))
    out = workdir / "hits.tsv"
    argv = ["search", "--index", str(workdir / "data.emb1"),
            "--query", str(workdir / "q.emb1"), "--top", "3"]
    assert run(argv) == 0
    assert capsys.readouterr().out == ""
    assert run(argv + ["--out", str(out)]) == 0
    assert out.read_bytes() == b""


def test_search_matches_library_batch(workdir, capsys):
    rng = np.random.default_rng(5)
    queries = np.concatenate([rng.standard_normal((70, 4)), fileio.read_emb1(workdir / "data.emb1")[:60]])
    fileio.write_emb1(workdir / "q.emb1", queries)
    assert run(["search", "--index", str(workdir / "data.emb1"),
                "--query", str(workdir / "q.emb1"), "--top", "4"]) == 0
    index = retrieval.build_index(fileio.read_emb1(workdir / "data.emb1"))
    expected = search_tsv(*retrieval.top_k_batch(index, queries, 4))
    assert capsys.readouterr().out == expected


LATE_ZERO_QUERY = np.ones((2 * retrieval.QUERY_TILE + 3, 4))
LATE_ZERO_QUERY[-2] = 0.0  # in the last tile, after two tiles that would be answered


@pytest.mark.parametrize(
    "query, code",
    [(np.zeros((2, 4)), "ZeroVector"), (np.ones((2, 3)), "DimensionMismatch"),
     (LATE_ZERO_QUERY, "ZeroVector")],
)
def test_search_bad_queries_are_runtime_errors(workdir, query, code, capsys):
    """Every query is checked before the first hit is written: no output at all."""
    fileio.write_emb1(workdir / "q.emb1", query)
    argv = ["search", "--index", str(workdir / "data.emb1"), "--query", str(workdir / "q.emb1")]
    assert run(argv) == 1
    out, err = capsys.readouterr()
    assert err.startswith(f"{code}:") and out == ""
    assert run(argv + ["--out", str(workdir / "hits.tsv")]) == 1
    assert not (workdir / "hits.tsv").exists()


def test_bench_json(workdir, capsys):
    fileio.write_emb1(workdir / "q.emb1", np.eye(4))
    code = run(
        ["bench", "--index", str(workdir / "data.emb1"),
         "--query", str(workdir / "q.emb1"), "--top", "2", "--reps", "3"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["bytes_per_vector"] == 16
    assert doc["queries_per_second"] > 0


def test_bench_reps_below_minimum_is_usage_error(tmp_path, capsys):
    # The files do not exist: a check made after any I/O would exit 1.
    with pytest.raises(SystemExit) as exc:
        run(["bench", "--index", str(tmp_path / "none.emb1"), "--query",
             str(tmp_path / "none.emb1"), "--reps", str(retrieval.MIN_REPETITIONS - 1)])
    assert exc.value.code == 2
    assert "--reps" in capsys.readouterr().err


@pytest.mark.parametrize("ks", [",", "", " , "])
def test_sweep_empty_ks_is_usage_error(workdir, ks, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["sweep", "--left", str(workdir / "left.emb1"),
             "--right", str(workdir / "right.emb1"),
             "--gold", str(workdir / "gold.txt"), "--ks", ks])
    assert exc.value.code == 2
    assert "--ks" in capsys.readouterr().err


def test_docs_name_every_flag_and_no_other():
    """docs/cli.md and the parser agree on the --flags of each subcommand.

    A subcommand's section may leave out a flag the preamble describes
    for all commands (``--out``).
    """
    doc = (Path(__file__).parents[1] / "docs" / "cli.md").read_text(encoding="utf-8")

    def flags(text):
        return set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", text))

    preamble, *parts = re.split(r"^## (\S+)[^\n]*$", doc, flags=re.M)
    sections = dict(zip(parts[::2], map(flags, parts[1::2])))
    sub = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    defined = {
        name: {
            flag
            for action in parser._actions
            for flag in action.option_strings
            if flag.startswith("--") and flag != "--help"
        }
        for name, parser in sub.choices.items()
    }
    assert flags(doc) == set().union(*defined.values())
    for name, own in defined.items():
        assert sections[name] <= own, name
        assert own <= sections[name] | flags(preamble), name


@pytest.mark.parametrize("eps", ["-1", "-1e-300", "nan", "inf", "abc"])
def test_fit_invalid_eps_is_usage_error(workdir, eps, capsys):
    with pytest.raises(SystemExit) as exc:
        run(
            ["fit", "--input", str(workdir / "data.emb1"), "--k", "full",
             f"--eps={eps}", "--out", str(workdir / "w.json")]
        )
    assert exc.value.code == 2
    assert "--eps" in capsys.readouterr().err
    assert not (workdir / "w.json").exists()


@pytest.mark.parametrize(
    "key, value",
    [
        ("fit_count", "abc"),
        ("fit_count", 0),
        ("fit_count", -3),
        ("fit_count", 1.5),
        ("fit_count", True),
        ("input_dim", True),
        ("output_dim", True),
        ("eps", -1.0),
        ("eps", True),
    ],
)
def test_transform_rejects_bad_transform_fields(workdir, key, value, capsys):
    wpath = workdir / "w.json"
    run(["fit", "--input", str(workdir / "data.emb1"), "--k", "1", "--out", str(wpath)])
    doc = json.loads(wpath.read_text())
    doc[key] = value
    wpath.write_text(json.dumps(doc))
    capsys.readouterr()
    code = run(
        ["transform", "--input", str(workdir / "data.emb1"),
         "--transform", str(wpath), "--out", str(workdir / "out.emb1")]
    )
    assert code == 1
    assert capsys.readouterr().err.startswith("SchemaMismatch:")


def test_transform_rejects_non_utf8_json(workdir, capsys):
    wpath = workdir / "w.json"
    wpath.write_bytes(b"\xff\xfe{}")
    code = run(
        ["transform", "--input", str(workdir / "data.emb1"),
         "--transform", str(wpath), "--out", str(workdir / "out.emb1")]
    )
    assert code == 1
    assert capsys.readouterr().err.startswith("SchemaMismatch:")


def test_eval_non_utf8_gold_is_parse_error(workdir, capsys):
    (workdir / "gold.txt").write_bytes(b"0.5\n\xff\xfe\n")
    code = run(
        ["eval", "--left", str(workdir / "left.emb1"),
         "--right", str(workdir / "right.emb1"), "--gold", str(workdir / "gold.txt")]
    )
    assert code == 1
    assert capsys.readouterr().err.startswith("ParseError: line 2:")


def test_fit_streams_without_bulk_read(workdir, monkeypatch):
    def refuse(path):
        raise AssertionError("fit must stream the file, not load it whole")

    monkeypatch.setattr(fileio, "read_emb1", refuse)
    wpath = workdir / "w.json"
    code = run(["fit", "--input", str(workdir / "data.emb1"), "--k", "full",
                "--out", str(wpath)])
    assert code == 0
    monkeypatch.undo()
    t = fileio.load_transform(wpath)
    ref = whitening.fit(fileio.read_emb1(workdir / "data.emb1"), k="full")
    assert np.max(np.abs(t.matrix - ref.matrix)) <= 1e-10
    assert np.max(np.abs(t.mean - ref.mean)) <= 1e-12


def test_fit_multi_block_file_matches_library(tmp_path):
    rng = np.random.default_rng(3)
    data = rng.standard_normal((9000, 6)) @ rng.standard_normal((6, 6)) + 1.5
    fileio.write_emb1(tmp_path / "big.emb1", data)
    wpath = tmp_path / "w.json"
    assert run(["fit", "--input", str(tmp_path / "big.emb1"), "--k", "4",
                "--out", str(wpath)]) == 0
    t = fileio.load_transform(wpath)
    ref = whitening.fit(data, k=4)
    assert t.fit_count == 9000
    assert np.max(np.abs(t.matrix - ref.matrix)) <= 1e-10
    assert np.max(np.abs(t.mean - ref.mean)) <= 1e-12


def test_fit_is_library_fit_bit_for_bit(tmp_path):
    """Three full blocks and a ragged tail: the library folds the rows as the CLI does."""
    rng = np.random.default_rng(12)
    n = 3 * streaming.BLOCK_ROWS + 17
    data = rng.standard_normal((n, 48)) @ rng.standard_normal((48, 48)) + 3.0
    fileio.write_emb1(tmp_path / "big.emb1", data)
    wpath = tmp_path / "w.json"
    assert run(["fit", "--input", str(tmp_path / "big.emb1"), "--k", "full",
                "--out", str(wpath)]) == 0
    t = fileio.load_transform(wpath)
    ref = whitening.fit(fileio.read_emb1(tmp_path / "big.emb1"), k="full")
    assert t.fit_count == n
    assert np.array_equal(t.matrix, ref.matrix) and np.array_equal(t.mean, ref.mean)


def test_fit_zero_eps_collinear_keeps_numerical_rank(tmp_path, capsys):
    rng = np.random.default_rng(0)
    base = rng.standard_normal((2000, 3))
    data = np.column_stack([base, base[:, 0] + base[:, 1], 2.0 * base[:, 2] - base[:, 0]])
    fileio.write_emb1(tmp_path / "col.emb1", data)
    wpath, white = tmp_path / "w.json", tmp_path / "white.emb1"
    assert run(["fit", "--input", str(tmp_path / "col.emb1"), "--k", "full",
                "--eps", "0", "--out", str(wpath)]) == 0
    t = fileio.load_transform(wpath)
    assert t.output_dim == 3 and t.eps == 0.0
    assert run(["transform", "--input", str(tmp_path / "col.emb1"),
                "--transform", str(wpath), "--out", str(white)]) == 0
    y = fileio.read_emb1(white)
    assert np.max(np.abs(np.cov(y, rowvar=False, bias=True) - np.eye(3))) <= 1e-10


@pytest.mark.parametrize("command", ["stats", "fit"])
def test_trailing_bytes_rejected(workdir, command, capsys):
    path = workdir / "trail.emb1"
    path.write_bytes((workdir / "data.emb1").read_bytes() + b"\x00" * 8)
    argv = [command, "--input", str(path)]
    if command == "fit":
        argv += ["--k", "2", "--out", str(workdir / "w.json")]
    assert run(argv) == 1
    assert capsys.readouterr().err.startswith("TruncatedPayload:")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["stats", "fit"])
def test_overflowing_moments_are_runtime_errors(tmp_path, command, capsys):
    path = tmp_path / "huge.emb1"
    fileio.write_emb1(path, np.array([[1e300, -1e300], [-1e300, 1e300], [1e300, 1e300]]))
    argv = [command, "--input", str(path)]
    if command == "fit":
        argv += ["--k", "full", "--out", str(tmp_path / "w.json")]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("NonFinite:") and "overflows float64" in err
    assert not (tmp_path / "w.json").exists()


@pytest.mark.filterwarnings("error")
def test_stats_and_fit_report_one_moments_overflow_line(tmp_path, capsys):
    """``stats`` folds row by row and ``fit`` in blocks; one check, so one error line."""
    path = tmp_path / "huge.emb1"
    fileio.write_emb1(path, np.random.default_rng(0).standard_normal((7, 4)) * 1e154)
    lines = []
    for argv in (["stats"], ["fit", "--k", "full", "--out", str(tmp_path / "w.json")]):
        assert run([argv[0], "--input", str(path), *argv[1:]]) == 1
        lines.append(capsys.readouterr().err)
    assert lines[0] == lines[1] == (
        "NonFinite: rows contain NaN or Inf, or their mean or covariance overflows float64\n"
    )
    assert not (tmp_path / "w.json").exists()


def test_stats_mean_norm_overflow_is_a_runtime_error(tmp_path, capsys):
    """The mean is finite, but its norm overflows float64: NonFinite, not inf."""
    path = tmp_path / "huge.emb1"
    fileio.write_emb1(path, np.full((3, 128), 1e200))
    assert run(["stats", "--input", str(path), "--out", str(tmp_path / "stats.tsv")]) == 1
    assert capsys.readouterr().err.startswith("NonFinite:")
    assert not (tmp_path / "stats.tsv").exists()


@pytest.mark.filterwarnings("error")
def test_stats_trace_overflow_is_a_runtime_error(tmp_path, capsys):
    """Every covariance entry is finite, but the trace overflows: NonFinite, not inf.

    ``fit`` on the same rows still succeeds, through ``default_eps``'s fallback.
    """
    rng = np.random.default_rng(0)
    x = rng.standard_normal((10, 40))
    x -= x.mean(axis=0)  # centred, so rank 9
    x *= np.sqrt(6e307 / np.sum(x * x, axis=0))  # each column's scatter is 6e307
    path = tmp_path / "huge.emb1"
    fileio.write_emb1(path, x)
    assert run(["stats", "--input", str(path), "--out", str(tmp_path / "stats.tsv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("NonFinite:") and "trace" in err
    assert not (tmp_path / "stats.tsv").exists()
    assert run(["fit", "--input", str(path), "--k", "full", "--out", str(tmp_path / "w.json")]) == 0
    assert fileio.load_transform(tmp_path / "w.json").output_dim == 9


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("huge", ["index", "query"])
@pytest.mark.parametrize("command", ["search", "bench"])
def test_overflowing_norms_are_runtime_errors(workdir, huge, command, capsys):
    """A finite row whose squared norm overflows fails instead of scoring 0."""
    rows = {"index": fileio.read_emb1(workdir / "data.emb1"), "query": np.ones((3, 4))}
    rows[huge][1] = 1e200
    for name, data in rows.items():
        fileio.write_emb1(workdir / f"{name}.emb1", data)
    assert run([command, "--index", str(workdir / "index.emb1"),
                "--query", str(workdir / "query.emb1"), "--out", str(workdir / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("NonFinite:") and "overflows float64" in err
    assert not (workdir / "out").exists()


@pytest.mark.filterwarnings("error")
def test_transform_overflow_keeps_old_output(workdir, capsys):
    """A finite row that the transform's arithmetic overflows fails before anything is written."""
    wpath, src, out = workdir / "w.json", workdir / "in.emb1", workdir / "out.emb1"
    t = whitening.WhiteningTransform(
        mean=np.array([-1.5e308, 0.0]), matrix=np.eye(2), fit_count=2, eps=0.0
    )
    fileio.save_transform(wpath, t)
    fileio.write_emb1(src, np.array([[1.0, 2.0], [1.5e308, 0.0]]))
    out.write_bytes(b"previous contents\n")
    assert run(["transform", "--input", str(src), "--transform", str(wpath),
                "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("NonFinite:") and "overflows float64" in err
    assert out.read_bytes() == b"previous contents\n"


def refuse_block_reads(monkeypatch, path):
    """Make reading any block of ``path`` through fileio.iter_emb1 fail."""
    real = fileio.iter_emb1

    def iter_emb1(p):
        if Path(p) == Path(path):
            raise AssertionError(f"a block of {path} was read")
        yield from real(p)

    monkeypatch.setattr(fileio, "iter_emb1", iter_emb1)


@pytest.mark.parametrize("with_transform", [False, True])
@pytest.mark.parametrize("command", ["search", "bench"])
def test_query_width_checked_before_index_is_built(
    workdir, fitted, monkeypatch, capsys, command, with_transform
):
    def build(*args):
        raise AssertionError("the index was built before the query header was checked")

    monkeypatch.setattr(retrieval, "build_index_blocks", build)
    monkeypatch.setattr(retrieval, "search_blocks", build)
    refuse_block_reads(monkeypatch, workdir / "data.emb1")
    fileio.write_emb1(workdir / "q.emb1", np.ones((2, 3)))
    argv = [command, "--index", str(workdir / "data.emb1"), "--query", str(workdir / "q.emb1")]
    if with_transform:
        argv += ["--transform", str(fitted)]
    assert run(argv) == 1
    assert capsys.readouterr().err.startswith("DimensionMismatch: " + str(workdir / "q.emb1"))


def refuse_bulk_read(monkeypatch, bulk):
    """Make fileio.read_emb1 fail on ``bulk``, which must be streamed."""
    real = fileio.read_emb1

    def read(path):
        if Path(path) == Path(bulk):
            raise AssertionError(f"{bulk} must be streamed, not loaded whole")
        return real(path)

    monkeypatch.setattr(fileio, "read_emb1", read)


@pytest.fixture
def fitted(workdir):
    wpath = workdir / "w.json"
    assert run(["fit", "--input", str(workdir / "data.emb1"), "--k", "3",
                "--out", str(wpath)]) == 0
    return wpath


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("n", [0, 4095, 4096, 4097, 8193])
def test_transform_streams_blocks_byte_identical(workdir, fitted, monkeypatch, n, dtype):
    src, out, ref = workdir / "in.emb1", workdir / "out.emb1", workdir / "ref.emb1"
    rng = np.random.default_rng(n)
    fileio.write_emb1(src, rng.standard_normal((n, 4)) * 5.0 + 2.0, dtype="float32")
    t = fileio.load_transform(fitted)
    fileio.write_emb1(ref, whitening.apply_batch(t, fileio.read_emb1(src)), dtype=dtype)
    refuse_bulk_read(monkeypatch, src)
    assert run(["transform", "--input", str(src), "--transform", str(fitted),
                "--out", str(out), "--dtype", dtype]) == 0
    assert out.read_bytes() == ref.read_bytes()


def test_transform_zero_rows_of_wrong_dim(workdir, fitted, capsys):
    src, out = workdir / "in.emb1", workdir / "out.emb1"
    fileio.write_emb1(src, np.empty((0, 3)))
    assert run(["transform", "--input", str(src), "--transform", str(fitted),
                "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("DimensionMismatch:")
    assert not out.exists()


def test_transform_nan_in_late_block_keeps_old_output(workdir, fitted, capsys):
    src, out = workdir / "in.emb1", workdir / "out.emb1"
    fileio.write_emb1(src, np.ones((3 * streaming.BLOCK_ROWS + 5, 4)))
    raw = bytearray(src.read_bytes())
    raw[-8:] = np.array([np.nan]).tobytes()
    src.write_bytes(bytes(raw))
    out.write_bytes(b"previous contents\n")
    before = sorted(os.listdir(workdir))
    assert run(["transform", "--input", str(src), "--transform", str(fitted),
                "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("NonFinite:")
    assert out.read_bytes() == b"previous contents\n"
    assert sorted(os.listdir(workdir)) == before


@pytest.mark.parametrize("with_transform", [False, True])
def test_search_streams_index(workdir, fitted, monkeypatch, capsys, with_transform):
    """A multi-block index with zero rows on both sides of a block edge."""
    rng = np.random.default_rng(8)
    base = rng.standard_normal((streaming.BLOCK_ROWS + 50, 4)) @ rng.standard_normal((4, 4)) + 3.0
    if with_transform:
        t = fileio.load_transform(fitted)
        base[streaming.BLOCK_ROWS - 1 : streaming.BLOCK_ROWS + 1] = t.mean  # whitened to zero
    else:
        base[streaming.BLOCK_ROWS - 1 : streaming.BLOCK_ROWS + 1] = 0.0
    queries = rng.standard_normal((30, 4)) + 3.0
    fileio.write_emb1(workdir / "base.emb1", base)
    fileio.write_emb1(workdir / "q.emb1", queries)
    argv = ["search", "--index", str(workdir / "base.emb1"),
            "--query", str(workdir / "q.emb1"), "--top", "5"]
    base, queries = fileio.read_emb1(workdir / "base.emb1"), fileio.read_emb1(workdir / "q.emb1")
    if with_transform:
        argv += ["--transform", str(fitted)]
        base, queries = whitening.apply_batch(t, base), whitening.apply_batch(t, queries)
    index = retrieval.build_index(base)
    assert index.norms_dropped == 2
    expected = search_tsv(*retrieval.top_k_batch(index, queries, 5))
    refuse_bulk_read(monkeypatch, workdir / "base.emb1")
    assert run(argv) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("with_transform", [False, True])
def test_search_queries_span_blocks(workdir, fitted, monkeypatch, capsys, with_transform):
    """float32 queries over more than one block are streamed, whitened like `transform` input."""
    rng = np.random.default_rng(9)
    queries = rng.standard_normal((streaming.BLOCK_ROWS + 37, 4)) + 3.0
    fileio.write_emb1(workdir / "q.emb1", queries, dtype="float32")
    argv = ["search", "--index", str(workdir / "data.emb1"),
            "--query", str(workdir / "q.emb1"), "--top", "3"]
    base, queries = fileio.read_emb1(workdir / "data.emb1"), fileio.read_emb1(workdir / "q.emb1")
    if with_transform:
        t = fileio.load_transform(fitted)
        argv += ["--transform", str(fitted)]
        base, queries = whitening.apply_batch(t, base), whitening.apply_batch(t, queries)
    expected = search_tsv(*retrieval.top_k_batch(retrieval.build_index(base), queries, 3))
    refuse_bulk_read(monkeypatch, workdir / "q.emb1")
    assert run(argv) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_search_holds_queries_as_unit_float32(workdir, monkeypatch, dtype):
    """Reading the search inputs reads no block of either file; the search then
    holds the queries once, as the unit float32 rows top_k_batch makes."""
    rows = np.random.default_rng(14).standard_normal((3, 4)) + 1.0
    fileio.write_emb1(workdir / "q.emb1", rows, dtype=dtype)
    argv = ["search", "--index", str(workdir / "data.emb1"), "--query", str(workdir / "q.emb1")]
    with monkeypatch.context() as m:
        refuse_block_reads(m, workdir / "data.emb1")
        refuse_block_reads(m, workdir / "q.emb1")
        *_, count = cli._search_inputs(build_parser().parse_args(argv))
    assert count == 3
    held = []
    real = retrieval._top_k_chunks

    def loop(unit, chunks, k_results):
        held.append(unit)
        return real(unit, chunks, k_results)

    monkeypatch.setattr(retrieval, "_top_k_chunks", loop)
    assert run(argv) == 0
    (unit,) = held
    queries = fileio.read_emb1(workdir / "q.emb1")
    norms, _ = retrieval.row_norms(queries)
    assert unit.dtype == np.float32 and unit.shape == (3, 4)
    assert np.array_equal(unit, (queries.astype(np.float64) / norms[:, np.newaxis]).astype(np.float32))


@pytest.mark.parametrize("with_transform", [False, True])
@pytest.mark.parametrize("m", [1, 2 * 4 + 3])  # one query; three tiles of 4
@pytest.mark.parametrize("layout", ["edge", "zero_chunk", "trailing", "all_zero"])
def test_search_streams_chunks_as_the_built_index_answers(
    workdir, fitted, monkeypatch, capsys, layout, m, with_transform
):
    """`search` prints top_k_batch of build_index_blocks, over small chunks and blocks.

    Zero-norm rows (whitened to zero with --transform) sit on both sides
    of a chunk edge, fill more than a chunk, trail two full chunks, or
    make up the whole index, whose answer is then empty. --top runs from
    1 to past the kept rows, through a --top wider than SCORE_FLOATS // m.
    """
    monkeypatch.setattr(retrieval, "QUERY_TILE", 4)
    monkeypatch.setattr(retrieval, "SELECT_CLASSES", 2)
    monkeypatch.setattr(retrieval, "SCORE_FLOATS", 24)
    monkeypatch.setattr(fileio, "BLOCK_ROWS", 5)
    rows = retrieval._chunk_rows(m, 1)
    rng = np.random.default_rng(m)
    base = zero_layout(layout, rows, rng, d=4) * 3.0
    zero = np.all(base == 0.0, axis=1)
    base[~zero] += 1.0
    argv = ["search", "--index", str(workdir / "base.emb1"), "--query", str(workdir / "q.emb1")]
    t = None
    if with_transform:
        t = fileio.load_transform(fitted)
        base[zero] = t.mean  # whitened to exactly zero
        argv += ["--transform", str(fitted)]
    fileio.write_emb1(workdir / "base.emb1", base)
    fileio.write_emb1(workdir / "q.emb1", rng.standard_normal((m, 4)) + 3.0)
    queries, _, _ = cli._emb1_blocks(workdir / "q.emb1", t, None)
    queries = np.concatenate(list(queries))
    for top in (1, 3, rows + 2, base.shape[0] + 5):
        index = retrieval.build_index_blocks(*cli._emb1_blocks(workdir / "base.emb1", t, None))
        assert index.norms_dropped == zero.sum()
        expected = search_tsv(*retrieval.top_k_batch(index, queries, top))
        assert (expected == "") == (layout == "all_zero")
        assert run([*argv, "--top", str(top)]) == 0
        assert capsys.readouterr().out == expected


def write_with_last_value_nan(path, rows):
    """Write float64 ``rows`` as EMB1, then overwrite the payload's last value with NaN."""
    fileio.write_emb1(path, rows)
    raw = bytearray(path.read_bytes())
    raw[-8:] = np.array([np.nan]).tobytes()
    path.write_bytes(bytes(raw))


@pytest.mark.parametrize("with_transform", [False, True])
def test_search_without_queries_still_checks_the_whole_index(
    workdir, fitted, capsys, with_transform
):
    """No query needs the index, but a NaN in its last block still fails the command."""
    write_with_last_value_nan(workdir / "base.emb1", np.ones((2 * streaming.BLOCK_ROWS + 3, 4)))
    fileio.write_emb1(workdir / "q.emb1", np.empty((0, 4)))
    out = workdir / "hits.tsv"
    argv = ["search", "--index", str(workdir / "base.emb1"), "--query", str(workdir / "q.emb1"),
            "--out", str(out)]
    if with_transform:
        argv += ["--transform", str(fitted)]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("NonFinite:") and captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("index", ["nan", "no_rows"])
@pytest.mark.parametrize("command", ["search", "bench"])
def test_bad_queries_fail_before_any_index_block_is_read(
    workdir, monkeypatch, capsys, command, index
):
    """With a NaN in the query file, its error wins over a NaN in the index
    or an index of no rows (EmptyInput): the queries are read first."""
    if index == "nan":
        write_with_last_value_nan(workdir / "base.emb1", np.ones((3, 4)))
    else:
        fileio.write_emb1(workdir / "base.emb1", np.empty((0, 4)))
    write_with_last_value_nan(workdir / "q.emb1", np.ones((2, 4)))
    refuse_block_reads(monkeypatch, workdir / "base.emb1")
    out = workdir / "hits.out"
    assert run([command, "--index", str(workdir / "base.emb1"),
                "--query", str(workdir / "q.emb1"), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("NonFinite: embedding payload") and captured.out == ""
    assert not out.exists()


def query_argv(workdir, fitted, with_transform):
    """``search`` of q.emb1 over data.emb1, and the query row whitened to zero."""
    argv = ["search", "--index", str(workdir / "data.emb1"), "--query", str(workdir / "q.emb1")]
    if with_transform:
        return [*argv, "--transform", str(fitted)], fileio.load_transform(fitted).mean
    return argv, 0.0


@pytest.mark.parametrize("with_transform", [False, True])
def test_zero_query_is_reported_by_its_file_row(workdir, fitted, monkeypatch, capsys, with_transform):
    """A zero-norm query in the second block is named by its row in the file,
    before any index block is read."""
    argv, zero = query_argv(workdir, fitted, with_transform)
    queries = np.random.default_rng(15).standard_normal((2 * streaming.BLOCK_ROWS, 4)) + 3.0
    queries[streaming.BLOCK_ROWS + 5] = zero
    fileio.write_emb1(workdir / "q.emb1", queries)
    refuse_block_reads(monkeypatch, workdir / "data.emb1")
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"ZeroVector: zero-norm query at row {streaming.BLOCK_ROWS + 5}\n"
    assert captured.out == ""


@pytest.mark.parametrize("with_transform", [False, True])
def test_nan_in_a_later_query_block_is_reported_before_a_zero_query(
    workdir, fitted, monkeypatch, capsys, with_transform
):
    """A zero row in the first query block and NaN in the third: the reader's
    NonFinite is reported, as for queries read whole, before any index block is read."""
    argv, zero = query_argv(workdir, fitted, with_transform)
    queries = np.random.default_rng(16).standard_normal((2 * streaming.BLOCK_ROWS + 3, 4)) + 3.0
    queries[1] = zero
    write_with_last_value_nan(workdir / "q.emb1", queries)
    refuse_block_reads(monkeypatch, workdir / "data.emb1")
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("NonFinite: embedding payload") and captured.out == ""


def test_search_index_of_wrong_dim_for_transform(workdir, fitted, capsys):
    fileio.write_emb1(workdir / "base.emb1", np.empty((0, 3)))
    fileio.write_emb1(workdir / "q.emb1", np.ones((1, 4)))
    assert run(["search", "--index", str(workdir / "base.emb1"), "--transform", str(fitted),
                "--query", str(workdir / "q.emb1")]) == 1
    assert capsys.readouterr().err.startswith("DimensionMismatch:")


def test_eval_fit_file_streams(workdir, monkeypatch, capsys):
    data = evaluation.PairedDataset(
        left=fileio.read_emb1(workdir / "left.emb1"),
        right=fileio.read_emb1(workdir / "right.emb1"),
        gold=fileio.read_gold(workdir / "gold.txt"),
    )
    t = whitening.fit(fileio.read_emb1(workdir / "data.emb1"), k=3)
    expected = evaluation.evaluate(data, t).rho_x100
    refuse_bulk_read(monkeypatch, workdir / "data.emb1")
    assert run(["eval", "--left", str(workdir / "left.emb1"),
                "--right", str(workdir / "right.emb1"), "--gold", str(workdir / "gold.txt"),
                "--fit", str(workdir / "data.emb1"), "--k", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["spearman_rho_x100"] == round(expected, 5)


def write_pairs(workdir, n_left, n_right=None, n_gold=None, dim_right=4, nan_side=None):
    """Pair files of width 4 and gold scores; a NaN in the last row of ``nan_side``."""
    rng = np.random.default_rng(n_left)
    paths = {side: workdir / f"{side}.emb1" for side in ("left", "right")}
    fileio.write_emb1(paths["left"], rng.standard_normal((n_left, 4)) + 1.0)
    fileio.write_emb1(paths["right"], rng.standard_normal((n_right or n_left, dim_right)) + 1.0)
    if nan_side:
        raw = bytearray(paths[nan_side].read_bytes())
        raw[-8:] = np.array([np.nan]).tobytes()
        paths[nan_side].write_bytes(bytes(raw))
    (workdir / "gold.txt").write_text("".join(f"{g}\n" for g in rng.uniform(0, 5, n_gold or n_left)))
    return ["--left", str(paths["left"]), "--right", str(paths["right"]),
            "--gold", str(workdir / "gold.txt")]


def refuse_payload_reads(monkeypatch):
    def refuse(path):
        raise AssertionError(f"{path}: payload read before the inputs were checked")

    monkeypatch.setattr(fileio, "iter_emb1", refuse)
    monkeypatch.setattr(fileio, "read_emb1", refuse)


EVAL_COMMANDS = [["eval"], ["eval", "--k", "2"], ["sweep", "--ks", "1,full"]]
N_PAIRS = streaming.BLOCK_ROWS + 10


@pytest.mark.parametrize("command", EVAL_COMMANDS)
@pytest.mark.parametrize(
    "shapes",
    [dict(n_right=N_PAIRS - 1), dict(n_gold=N_PAIRS - 1), dict(dim_right=3)],
    ids=["right", "gold", "width"],
)
def test_pair_shapes_checked_before_any_payload(workdir, monkeypatch, capsys, command, shapes):
    """A mismatch wins even over a NaN in a late block of --left."""
    pairs = write_pairs(workdir, N_PAIRS, nan_side="left", **shapes)
    refuse_payload_reads(monkeypatch)
    assert run([*command, *pairs]) == 1
    assert capsys.readouterr().err.startswith("DimensionMismatch: inconsistent shapes")


@pytest.mark.parametrize("command", EVAL_COMMANDS)
def test_pair_nan_in_late_right_block_keeps_old_output(workdir, capsys, command):
    pairs = write_pairs(workdir, N_PAIRS, nan_side="right")
    out = workdir / "report.txt"
    out.write_bytes(b"previous contents\n")
    before = sorted(os.listdir(workdir))
    assert run([*command, *pairs, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("NonFinite:")
    assert out.read_bytes() == b"previous contents\n"
    assert sorted(os.listdir(workdir)) == before


@pytest.mark.parametrize("command", EVAL_COMMANDS[1:])
def test_fit_file_of_wrong_width(workdir, monkeypatch, capsys, command):
    pairs = write_pairs(workdir, 50)
    fileio.write_emb1(workdir / "narrow.emb1", np.ones((10, 3)))
    refuse_payload_reads(monkeypatch)
    assert run([*command, *pairs, "--fit", str(workdir / "narrow.emb1")]) == 1
    assert capsys.readouterr().err.startswith("DimensionMismatch:")


@pytest.mark.parametrize("fit", ["target", "data.emb1"])
def test_sweep_scores_every_k_in_one_pass(workdir, monkeypatch, capsys, fit):
    """Each pair file is streamed once for scoring, whatever the number of ks."""
    pairs = write_pairs(workdir, N_PAIRS)
    fit_arg = fit if fit == "target" else str(workdir / fit)
    data = evaluation.PairedDataset(
        left=fileio.read_emb1(workdir / "left.emb1"),
        right=fileio.read_emb1(workdir / "right.emb1"),
        gold=fileio.read_gold(workdir / "gold.txt"),
    )
    moments = None
    if fit != "target":
        moments = streaming.MomentState()
        moments.update(fileio.read_emb1(workdir / fit))
    expected = "k\trho\n" + "".join(
        f"{k}\t{rho:.6f}\n" for k, rho in evaluation.sweep_k(data, [1, 2, 3, "full"], moments)
    )
    opened = []
    real = fileio.iter_emb1

    def counting(path):
        opened.append(Path(path).name)
        return real(path)

    monkeypatch.setattr(fileio, "iter_emb1", counting)
    refuse_bulk_read(monkeypatch, workdir / "left.emb1")
    assert run(["sweep", *pairs, "--ks", "1,2,3,full", "--fit", fit_arg]) == 0
    assert capsys.readouterr().out == expected
    reads = 2 if fit == "target" else 1
    assert sorted(opened) == sorted(["left.emb1", "right.emb1"] * reads + [fit] * (reads == 1))


@pytest.mark.parametrize("ks", ["2, full", "2,full ", " 2 ,\tfull"])
def test_ks_tokens_may_be_padded(workdir, capsys, ks):
    pairs = ["--left", str(workdir / "left.emb1"), "--right", str(workdir / "right.emb1"),
             "--gold", str(workdir / "gold.txt")]
    assert run(["sweep", *pairs, "--ks", "2,full"]) == 0
    expected = capsys.readouterr().out
    assert run(["sweep", *pairs, "--ks", ks]) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("command", [["fit", "--k", "1", "--out", "w.json"], ["stats"]])
def test_memory_error_is_one_line(tmp_path, command):
    """A 1.6 MB file of 2 x 200 000 rows asks for 298 GiB of d x d moments.

    The child's address space is capped at 4 GiB (RLIMIT_AS, set in the
    child only), so the allocation fails there whatever the machine has.
    """
    fileio.write_emb1(tmp_path / "wide.emb1", np.ones((2, 200_000)), dtype="float32")

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))

    env = dict(os.environ, PYTHONPATH=str(Path(fileio.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "whitevec.cli", command[0], "--input", "wide.emb1", *command[1:]],
        cwd=tmp_path, env=env, preexec_fn=cap_address_space, capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("MemoryError: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr
    assert proc.stdout == "" and not (tmp_path / "w.json").exists()
