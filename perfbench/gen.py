"""Seeded synthetic inputs for the three workloads.

Every generator takes the workload seed and writes files into a
directory; the same seed always gives byte-identical files. Large
inputs are written in blocks so the generator stays small in memory.
"""

from pathlib import Path

import numpy as np

from formats import EmbWriter, write_emb1

BLOCK = 10_000

# corpus384: an anisotropic sentence-embedding corpus, reduced to a third
# of its dimension as in the paper (768 -> 256 there). d=384 rather than
# BERT-base's 768 because one d=768 fit takes ~2 minutes with today's
# eigensolver, too long to repeat in every run.
CORPUS_N, CORPUS_D, CORPUS_RANK, CORPUS_K = 100_000, 384, 96, 128

# search256: an index the size of the whitened corpus, plus queries.
INDEX_N, INDEX_D, INDEX_CLUSTERS = 100_000, 256, 256
N_ZERO_ROWS = 16
DUP_GROUP_SIZES = (2, 3, 4, 5, 8, 12, 16)  # > 10 puts ties on the top-10 boundary
DUP_GROUPS_PER_SIZE = 12
N_QUERIES, N_EXACT_QUERIES, TOP = 2000, 500, 10

# sts128: STS-style pairs. Eight gold latents as in the C6 acceptance test,
# then nuisance tiers whose variances leave clear eigengaps at 16, 32 and 64,
# so every swept k cuts the spectrum at a well-defined subspace.
STS_N, STS_D, STS_LATENT = 20_000, 128, 8
STS_TIERS = ((8, 0.20), (16, 0.12), (32, 0.08))
STS_KS = (8, 16, 32, 64, "full")
NOISE = 0.05
OFFSET = 30.0


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag])


def _unit_rows(rng, n, d) -> np.ndarray:
    m = rng.standard_normal((n, d))
    return m / np.linalg.norm(m, axis=1, keepdims=True)


def corpus384(out: Path, seed: int) -> None:
    """Low-rank signal with decaying scales, a large shared offset, small noise."""
    rng = _rng(seed, 384)
    mixing = _unit_rows(rng, CORPUS_RANK, CORPUS_D)
    mixing *= np.logspace(1.5, -0.5, CORPUS_RANK)[:, np.newaxis]
    offset = rng.standard_normal(CORPUS_D) * OFFSET
    w = EmbWriter(out / "corpus.emb1", CORPUS_N, CORPUS_D, "float32")
    try:
        for start in range(0, CORPUS_N, BLOCK):
            n = min(BLOCK, CORPUS_N - start)
            z = rng.standard_normal((n, CORPUS_RANK))
            w.write(z @ mixing + offset + rng.standard_normal((n, CORPUS_D)) * NOISE)
    finally:
        w.close()


def search256(out: Path, seed: int) -> None:
    """Clustered rows with exact-duplicate groups and a few all-zero rows."""
    rng = _rng(seed, 256)
    centers = rng.standard_normal((INDEX_CLUSTERS, INDEX_D))
    data = centers[rng.integers(0, INDEX_CLUSTERS, INDEX_N)]
    data += rng.standard_normal((INDEX_N, INDEX_D)) * 0.5
    data = data.astype(np.float32)

    # Duplicate groups and zero rows sit at distinct random positions.
    n_dup = sum(DUP_GROUP_SIZES) * DUP_GROUPS_PER_SIZE
    slots = rng.permutation(INDEX_N)[: n_dup + N_ZERO_ROWS]
    groups, pos = [], 0
    for size in DUP_GROUP_SIZES:
        for _ in range(DUP_GROUPS_PER_SIZE):
            ids = np.sort(slots[pos : pos + size])
            data[ids[1:]] = data[ids[0]]
            groups.append(ids)
            pos += size
    zero_ids = np.sort(slots[pos:])
    data[zero_ids] = 0.0
    write_emb1(out / "index.emb1", data, "float32")

    # Perturbed copies of random nonzero rows, then exact copies of
    # duplicated rows, whose hits tie and must be ordered by id.
    nonzero = np.setdiff1d(np.arange(INDEX_N), zero_ids)
    src = rng.choice(nonzero, N_QUERIES - N_EXACT_QUERIES, replace=False)
    perturbed = data[src] + rng.standard_normal((src.size, INDEX_D)).astype(np.float32) * 0.3
    exact = data[[groups[i][0] for i in rng.integers(0, len(groups), N_EXACT_QUERIES)]]
    write_emb1(out / "query.emb1", np.vstack([perturbed, exact]), "float32")


def sts128(out: Path, seed: int) -> None:
    """Pairs whose gold score is the latent cosine, mapped to 0-5 in 0.2 steps."""
    rng = _rng(seed, 128)
    z_left = rng.standard_normal((STS_N, STS_LATENT))
    t = rng.uniform(-1.0, 1.0, (STS_N, 1))
    z_right = t * z_left + np.sqrt(1.0 - t * t) * rng.standard_normal((STS_N, STS_LATENT))
    cos = np.einsum("ij,ij->i", z_left, z_right) / (
        np.linalg.norm(z_left, axis=1) * np.linalg.norm(z_right, axis=1)
    )
    gold = np.round((cos + 1.0) * 2.5 / 0.2) * 0.2

    scales = [np.logspace(1.5, -0.5, STS_LATENT)]
    scales += [np.full(n, s) for n, s in STS_TIERS]
    scales = np.concatenate(scales)
    mixing = _unit_rows(rng, scales.size, STS_D) * scales[:, np.newaxis]
    offset = rng.standard_normal(STS_D) * OFFSET

    def embed(z):
        nuisance = rng.standard_normal((STS_N, scales.size - STS_LATENT))
        return (
            np.hstack([z, nuisance]) @ mixing
            + offset
            + rng.standard_normal((STS_N, STS_D)) * NOISE
        )

    write_emb1(out / "left.emb1", embed(z_left), "float64")
    write_emb1(out / "right.emb1", embed(z_right), "float64")
    (out / "gold.txt").write_text("".join(f"{g:.1f}\n" for g in gold), encoding="utf-8")


GENERATORS = {"corpus384": corpus384, "search256": search256, "sts128": sts128}
