"""Acceptance suite: one test per criterion, each printing a PASS line
with the measured figure once its assertions hold (visible with -s or in
captured output on failure)."""

import struct
import time

import numpy as np
import pytest
import scipy.stats

from whitevec import (
    errors,
    evaluation,
    fileio,
    linalg,
    retrieval,
    streaming,
    whitening,
)
from whitevec.evaluation import PairedDataset

from test_linalg import char_poly_roots


def test_c1_whiteness_gaussian_spd():
    rng = np.random.default_rng(42)
    d, n = 64, 5000
    basis = rng.standard_normal((d, d))
    spd_factor = basis @ np.diag(rng.uniform(0.1, 10.0, d)) ** 0.5
    data = rng.standard_normal((n, d)) @ spd_factor.T + rng.standard_normal(d) * 4

    start = time.perf_counter()
    t = whitening.fit(data, k="full")
    out = whitening.apply_batch(t, data)
    elapsed = time.perf_counter() - start

    mean_inf = np.max(np.abs(out.mean(axis=0)))
    cov = np.cov(out, rowvar=False, bias=True)
    cov_err = np.max(np.abs(cov - np.eye(t.output_dim)))
    assert mean_inf <= 1e-8
    assert cov_err <= 1e-6
    assert elapsed < 5.0
    print(
        f"PASS criterion 1: whiteness mean_inf={mean_inf:.2e} "
        f"cov_err={cov_err:.2e} in {elapsed:.2f}s"
    )


def test_c2_four_point_hand_oracle():
    data = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 2.0], [0.0, -2.0]])
    t = whitening.fit(data, k="full")
    expected = np.array([[0.0, np.sqrt(2.0)], [1 / np.sqrt(2.0), 0.0]])
    for j in range(2):
        col = t.matrix[:, j]
        ref = expected[:, j]
        assert np.allclose(col, ref, atol=1e-12) or np.allclose(col, -ref, atol=1e-12)
    out = whitening.apply(t, np.array([1.0, 0.0]))
    assert np.max(np.abs(out - [0.0, np.sqrt(2.0)])) <= 1e-12
    print("PASS criterion 2: hand-derived transform and apply reproduced")


def test_c3_streaming_equals_batch():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 2001))
        d = int(rng.integers(1, 33))
        x = rng.standard_normal((n, d)) * rng.uniform(0.1, 10) + rng.standard_normal(d)

        state = streaming.MomentState()
        for row in x:
            state.update(row)
        mean, cov = streaming.finalize(state)
        batch_mean = x.mean(axis=0)
        batch_cov = np.cov(x, rowvar=False, bias=True)
        err = max(
            np.max(np.abs(mean - batch_mean)), np.max(np.abs(cov - batch_cov))
        )
        assert err <= 1e-10

        cut = int(rng.integers(0, n + 1))
        a = streaming.MomentState()
        for row in x[:cut]:
            a.update(row)
        b = streaming.MomentState()
        for row in x[cut:]:
            b.update(row)
        m_mean, m_cov = streaming.finalize(streaming.merge(a, b))
        merr = max(
            np.max(np.abs(m_mean - batch_mean)), np.max(np.abs(m_cov - batch_cov))
        )
        assert merr <= 1e-10
        worst = max(worst, err, merr)
    print(f"PASS criterion 3: streaming==batch over 100 streams, worst err {worst:.2e}")


def test_c4_eigensolver_correctness():
    rng = np.random.default_rng(11)
    worst_root = 0.0
    for d in (2, 3):
        for _ in range(200):
            a = rng.standard_normal((d, d)) * rng.uniform(0.1, 10)
            a = (a + a.T) / 2
            e = linalg.sym_eig(a)
            err = np.max(np.abs(e.eigenvalues - char_poly_roots(a)))
            assert err <= 1e-10
            worst_root = max(worst_root, err)

    x = rng.standard_normal((200, 64))
    psd = x.T @ x / 200
    e = linalg.sym_eig(psd)
    rec = e.eigenvectors @ np.diag(e.eigenvalues) @ e.eigenvectors.T
    rec_err = np.max(np.abs(rec - psd))
    assert rec_err <= 1e-8
    print(
        f"PASS criterion 4: char-poly err {worst_root:.2e}, "
        f"PSD d=64 reconstruction err {rec_err:.2e}"
    )


def test_c5_spearman_oracle():
    rho = evaluation.spearman(
        np.array([1.0, 2.0, 3.0, 4.0]), np.array([2.0, 1.0, 4.0, 3.0])
    )
    assert abs(rho - 0.6) <= 1e-15

    rng = np.random.default_rng(13)
    worst = 0.0
    checked = 0
    for _ in range(1000):
        n = int(rng.integers(4, 80))
        pred = rng.integers(0, 6, size=n).astype(np.float64)  # heavy ties
        gold = np.round(rng.uniform(0, 5, size=n) * 2) / 2
        if np.all(pred == pred[0]) or np.all(gold == gold[0]):
            continue
        rp = scipy.stats.rankdata(pred, method="average")
        rg = scipy.stats.rankdata(gold, method="average")
        oracle = np.corrcoef(rp, rg)[0, 1]
        err = abs(evaluation.spearman(pred, gold) - oracle)
        assert err <= 1e-12
        worst = max(worst, err)
        checked += 1
    assert checked >= 900
    print(f"PASS criterion 5: spearman vs oracle on {checked} vectors, worst {worst:.2e}")


def test_c6_synthetic_anisotropy_recovery():
    rng = np.random.default_rng(17)
    n, latent, d = 1500, 8, 128

    z_left = rng.standard_normal((n, latent))
    z_right = rng.standard_normal((n, latent))
    gold = np.einsum("ij,ij->i", z_left, z_right) / (
        np.linalg.norm(z_left, axis=1) * np.linalg.norm(z_right, axis=1)
    )

    # ill-conditioned mixing into d dims plus a large shared offset
    scales = np.logspace(1.5, -0.5, latent)
    mixing = rng.standard_normal((latent, d))
    mixing /= np.linalg.norm(mixing, axis=1, keepdims=True)
    mixing *= scales[:, np.newaxis]
    offset = rng.standard_normal(d) * 30.0

    def embed(z):
        return z @ mixing + offset + rng.standard_normal((n, d)) * 0.05

    data = PairedDataset(left=embed(z_left), right=embed(z_right), gold=gold)
    rho_raw = evaluation.evaluate(data).spearman_rho
    t = whitening.fit_from_moments(evaluation.fit_corpus(data), k=latent)
    rho_white = evaluation.evaluate(data, t).spearman_rho
    assert rho_white - rho_raw >= 0.10
    print(
        f"PASS criterion 6: rho raw {rho_raw:.4f} -> whitened k=8 {rho_white:.4f} "
        f"(gain {rho_white - rho_raw:.3f})"
    )


def test_c7_retrieval_scaling():
    rng = np.random.default_rng(19)
    n, n_queries, k = 100_000, 32, 10
    start = time.perf_counter()
    qps = {}
    for d in (256, 768):
        vectors = rng.standard_normal((n, d))
        index = retrieval.build_index(vectors)
        report = retrieval.benchmark(
            index, rng.standard_normal((n_queries, d)), k, repetitions=3
        )
        assert report.bytes_per_vector == d * 4
        qps[d] = report.queries_per_second
    elapsed = time.perf_counter() - start
    ratio = qps[256] / qps[768]
    assert ratio >= 2.0
    assert elapsed < 60.0
    print(
        f"PASS criterion 7: qps256/qps768 = {ratio:.2f} "
        f"(1024 vs 3072 bytes/vector) in {elapsed:.1f}s"
    )


def test_c8_truncation_consistency():
    rng = np.random.default_rng(23)
    x = rng.standard_normal((500, 48)) @ rng.standard_normal((48, 48))
    full = whitening.fit(x, k="full")
    part = whitening.fit(x, k=32)
    assert np.array_equal(part.matrix, full.matrix[:, :32])
    assert np.array_equal(part.mean, full.mean)

    left = rng.standard_normal((80, 12))
    right = rng.standard_normal((80, 12))
    gold = rng.uniform(0, 5, 80)
    data = PairedDataset(left=left, right=right, gold=gold)
    sweep = evaluation.sweep_k(data, ["full"])
    t = whitening.fit_from_moments(evaluation.fit_corpus(data), k="full")
    direct = evaluation.evaluate(data, t).spearman_rho
    assert sweep[0][1] == direct
    print("PASS criterion 8: k-truncation and sweep==evaluate are bit-exact")


def test_c9_io_roundtrips(tmp_path):
    rng = np.random.default_rng(29)
    for i in range(100):
        n = int(rng.integers(0, 40))
        d = int(rng.integers(1, 24))
        data = rng.standard_normal((n, d)) * rng.uniform(1e-8, 1e8)
        path = tmp_path / f"m{i}.emb1"
        fileio.write_emb1(path, data)
        assert np.array_equal(fileio.read_emb1(path), data)

    for i in range(100):
        d = int(rng.integers(2, 12))
        n = int(rng.integers(d + 2, 50))
        k = int(rng.integers(1, d))
        t = whitening.fit(rng.standard_normal((n, d)), k=k)
        path = tmp_path / f"t{i}.json"
        fileio.save_transform(path, t)
        back = fileio.load_transform(path)
        assert np.array_equal(back.mean, t.mean)
        assert np.array_equal(back.matrix, t.matrix)

    bad = tmp_path / "bad.emb1"
    bad.write_bytes(b"EMB0" + b"\x00" * 28)
    with pytest.raises(errors.BadMagic):
        fileio.read_emb1(bad)
    v2 = tmp_path / "v2.emb1"
    v2.write_bytes(struct.pack("<4sIQIB11s", b"EMB1", 9, 0, 0, 1, b"\x00" * 11))
    with pytest.raises(errors.UnsupportedVersion):
        fileio.read_emb1(v2)
    short = tmp_path / "short.emb1"
    short.write_bytes(
        struct.pack("<4sIQIB11s", b"EMB1", 1, 10, 10, 1, b"\x00" * 11) + b"\x00" * 16
    )
    with pytest.raises(errors.TruncatedPayload):
        fileio.read_emb1(short)
    print("PASS criterion 9: 200 bit-exact round-trips, malformed inputs typed")
