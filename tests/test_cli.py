import json

import numpy as np
import pytest

from whitevec import fileio, whitening
from whitevec.cli import run
from whitevec.evaluation import cosine_similarity


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


def test_fit_happy_path(workdir):
    out = workdir / "w.json"
    code = run(
        ["fit", "--input", str(workdir / "data.emb1"), "--k", "2", "--out", str(out)]
    )
    assert code == 0
    t = fileio.load_transform(out)
    assert t.output_dim == 2 and t.input_dim == 4 and t.fit_count == 120


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


def test_stats(workdir, capsys):
    code = run(["stats", "--input", str(workdir / "data.emb1"), "--batch", "16"])
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
    assert doc["threads"] == 1


def test_threads_env_default(workdir, monkeypatch):
    monkeypatch.setenv("WHITEVEC_THREADS", "3")
    from whitevec.cli import build_parser

    args = build_parser().parse_args(
        ["bench", "--index", "a", "--query", "b"]
    )
    assert args.threads == 3


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
