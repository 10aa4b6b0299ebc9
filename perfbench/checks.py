"""Reference checks on the program's outputs.

Each reference is computed here with numpy/scipy from the generated
inputs, never by whitevec and never from a stored copy of an earlier
output. Each ``check_*`` returns a list of failure messages; an empty
list means the output is correct.
"""

import json
from dataclasses import dataclass

import numpy as np
from scipy.stats import spearmanr

from formats import open_emb1, read_transform

CHUNK = 10_000

# Eigenvalues: the program and the reference build the covariance in a
# different summation order, so they agree to a few ulps of the largest
# eigenvalue, not of each one.
EIG_RTOL, EIG_ATOL_REL = 1e-8, 1e-10
# Whitened float32 output: column means ~ 0 and covariance ~ I.
WHITE_TOL = 1e-4
# Search scores are float32 dot products of unit vectors, printed to 6 decimals.
SCORE_TOL = 2e-5
C6_GAIN = 0.10


def _moments(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Float64 mean and biased covariance, two passes over row chunks."""
    n, d = x.shape
    total = np.zeros(d)
    for s in range(0, n, CHUNK):
        total += np.asarray(x[s : s + CHUNK], dtype=np.float64).sum(axis=0)
    mean = total / n
    cov = np.zeros((d, d))
    for s in range(0, n, CHUNK):
        c = np.asarray(x[s : s + CHUNK], dtype=np.float64) - mean
        cov += c.T @ c
    cov /= n
    return mean, (cov + cov.T) / 2.0


def _eig_mismatch(got: np.ndarray, want: np.ndarray) -> np.ndarray:
    tol = EIG_RTOL * np.abs(want) + EIG_ATOL_REL * abs(want[0])
    return np.flatnonzero(np.abs(got - want) > tol)


# --- corpus384: fit --k K, then transform --dtype float32 --------------------


@dataclass
class CorpusRef:
    rows: int
    mean: np.ndarray
    eigenvalues: np.ndarray  # descending


def corpus_reference(corpus_path) -> CorpusRef:
    x = open_emb1(corpus_path)
    mean, cov = _moments(x)
    return CorpusRef(x.shape[0], mean, np.linalg.eigvalsh(cov)[::-1])


def check_fit(ref: CorpusRef, transform_path, k: int) -> list[str]:
    mean, w = read_transform(transform_path)
    if w.shape != (ref.mean.size, k):
        return [f"fit: matrix shape {w.shape}, expected {(ref.mean.size, k)}"]
    errors = []
    scale = np.max(np.abs(ref.mean))
    if np.max(np.abs(mean - ref.mean)) > 1e-9 * scale:
        errors.append(f"fit: mean differs from the float64 mean by {np.max(np.abs(mean - ref.mean)):.3e}")
    # Column j of W is u_j / sqrt(lam_j), so |W_j|^-2 is the j-th eigenvalue.
    lam = 1.0 / np.einsum("ij,ij->j", w, w)
    bad = _eig_mismatch(lam, ref.eigenvalues[:k])
    if bad.size:
        j = bad[0]
        errors.append(
            f"fit: |W_{j}|^-2 = {lam[j]:.12g} but eigenvalue {j} is {ref.eigenvalues[j]:.12g} "
            f"({bad.size} columns differ)"
        )
    return errors


def check_white(ref: CorpusRef, white_path, k: int) -> list[str]:
    y = open_emb1(white_path)
    if y.shape != (ref.rows, k) or y.dtype != np.float32:
        return [f"transform: output is {y.shape} {y.dtype}, expected ({ref.rows}, {k}) float32"]
    mean, cov = _moments(y)
    errors = []
    if np.max(np.abs(mean)) > WHITE_TOL:
        errors.append(f"transform: column mean up to {np.max(np.abs(mean)):.3e}, expected 0")
    resid = np.max(np.abs(cov - np.eye(k)))
    if resid > WHITE_TOL:
        errors.append(f"transform: max|cov - I| = {resid:.3e}, expected <= {WHITE_TOL}")
    return errors


# --- search256: search --top TOP ---------------------------------------------


@dataclass
class SearchRef:
    cand_ids: np.ndarray  # queries x KEEP best index rows by float64 cosine
    cand_scores: np.ndarray
    zero_ids: np.ndarray
    group: np.ndarray  # rows with identical bytes share a group number
    top: int

    def kth(self, qi: int) -> float:
        return float(np.sort(self.cand_scores[qi])[-self.top])


# Candidates kept per query: the top-k plus every near-tie, with room to spare.
KEEP = 64


def search_reference(index_path, query_path, top: int) -> SearchRef:
    """Float64 brute-force cosine top-KEEP of every query, over index chunks."""
    x = open_emb1(index_path)
    q = np.asarray(open_emb1(query_path), dtype=np.float64)
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    nq = q.shape[0]
    best_s, best_i = np.empty((nq, 0)), np.empty((nq, 0), dtype=np.int64)
    zero = []
    for s in range(0, x.shape[0], CHUNK):
        block = np.asarray(x[s : s + CHUNK], dtype=np.float64)
        norms = np.linalg.norm(block, axis=1)
        zero.append(s + np.flatnonzero(norms == 0.0))
        with np.errstate(invalid="ignore", divide="ignore"):
            scores = q @ (block / norms[:, np.newaxis]).T
        scores[:, norms == 0.0] = -np.inf
        ids = np.broadcast_to(np.arange(s, s + block.shape[0]), scores.shape)
        best_s, best_i = np.hstack([best_s, scores]), np.hstack([best_i, ids])
        if best_s.shape[1] > KEEP:
            part = np.argpartition(-best_s, KEEP - 1, axis=1)[:, :KEEP]
            best_s = np.take_along_axis(best_s, part, axis=1)
            best_i = np.take_along_axis(best_i, part, axis=1)
    ref = SearchRef(best_i, best_s, np.concatenate(zero), None, top)
    for qi in range(nq):
        if best_s[qi].min() >= ref.kth(qi) - SCORE_TOL:
            raise ValueError(f"query {qi}: more than {KEEP} rows tie with its top-{top}")
    rows = np.ascontiguousarray(x).view(np.dtype((np.void, x.shape[1] * x.itemsize)))[:, 0]
    ref.group = np.unique(rows, return_inverse=True)[1].ravel()
    return ref


def parse_hits(path) -> list[list[tuple[int, int, float]]]:
    """Per query row: (rank, id, score) in file order."""
    per_query: dict[int, list] = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            row, rank, vec_id, score = line.rstrip("\n").split("\t")
            per_query.setdefault(int(row), []).append((int(rank), int(vec_id), float(score)))
    return [per_query.get(i, []) for i in range(max(per_query, default=-1) + 1)]


def check_search(ref: SearchRef, hits_path) -> list[str]:
    hits = parse_hits(hits_path)
    nq = ref.cand_ids.shape[0]
    if len(hits) != nq:
        return [f"search: hits for {len(hits)} queries, expected {nq}"]
    zero = set(ref.zero_ids.tolist())
    errors = []
    for qi, qhits in enumerate(hits):
        ranks = [h[0] for h in qhits]
        ids = np.array([h[1] for h in qhits])
        printed = np.array([h[2] for h in qhits])
        if ranks != list(range(1, ref.top + 1)):
            errors.append(f"search: query {qi} ranks {ranks}")
            continue
        if zero.intersection(ids.tolist()):
            errors.append(f"search: query {qi} returned an all-zero row")
            continue
        if len(set(ids.tolist())) != ids.size:
            errors.append(f"search: query {qi} repeats an id")
            continue
        if np.any(np.diff(printed) > 0):
            errors.append(f"search: query {qi} scores increase")
        # Set equality with the float64 top-k, except within round-off of the k-th score.
        kth = ref.kth(qi)
        cand = dict(zip(ref.cand_ids[qi].tolist(), ref.cand_scores[qi].tolist()))
        if any(i not in cand or cand[i] < kth - SCORE_TOL for i in ids.tolist()):
            errors.append(f"search: query {qi} returned an id below the top {ref.top}")
            continue
        if np.max(np.abs(printed - [cand[i] for i in ids.tolist()])) > SCORE_TOL:
            errors.append(f"search: query {qi} printed scores differ from the float64 cosine")
        missing = sorted(set(i for i, s in cand.items() if s > kth + SCORE_TOL) - set(ids.tolist()))
        if missing:
            errors.append(f"search: query {qi} missed id {missing[0]}")
        # Identical rows score identically, so they tie and must come out as
        # the smallest ids of their group, in ascending order.
        for g in np.unique(ref.group[ids]):
            got = ids[ref.group[ids] == g]
            members = np.flatnonzero(ref.group == g)
            if not np.array_equal(got, members[: got.size]):
                errors.append(f"search: query {qi} tied ids {got.tolist()} not the lowest in order")
                break
    return errors


# --- sts128: stats, eval --k 8 --fit target, sweep ---------------------------


@dataclass
class StsRef:
    n: int
    mean_norm: float
    trace: float
    top_eigenvalues: np.ndarray
    rho_raw: float
    rho: dict  # k -> whitened Spearman rho; "full" maps to the numerical rank


def _rho(left, right, gold) -> float:
    cos = np.einsum("ij,ij->i", left, right) / (
        np.linalg.norm(left, axis=1) * np.linalg.norm(right, axis=1)
    )
    return float(spearmanr(cos, gold).statistic)


def sts_reference(left_path, right_path, gold_path, ks) -> StsRef:
    left = np.array(open_emb1(left_path), dtype=np.float64)
    right = np.array(open_emb1(right_path), dtype=np.float64)
    gold = np.loadtxt(gold_path, dtype=np.float64)
    mean, cov = _moments(left)
    # Whitening fitted on both sides of the pairs (--fit target), by eigh.
    union_mean, union_cov = _moments(np.vstack([left, right]))
    lam, u = np.linalg.eigh(union_cov)
    lam, u = lam[::-1], u[:, ::-1]
    rank = int(np.sum(lam > 1e-12 * np.trace(union_cov) / lam.size))
    rho = {}
    for k in ks:
        kk = rank if k == "full" else k
        w = u[:, :kk] / np.sqrt(lam[:kk])
        rho[kk] = _rho((left - union_mean) @ w, (right - union_mean) @ w, gold)
    return StsRef(
        n=left.shape[0],
        mean_norm=float(np.linalg.norm(mean)),
        trace=float(np.trace(cov)),
        top_eigenvalues=np.linalg.eigvalsh(cov)[::-1][:10],
        rho_raw=_rho(left, right, gold),
        rho=rho,
    )


def check_stats(ref: StsRef, path) -> list[str]:
    fields = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            key, _, value = line.rstrip("\n").partition("\t")
            fields[key] = value
    try:
        n = int(fields["n"])
        mean_norm = float(fields["mean_norm"])
        trace = float(fields["trace"])
        top = np.array([float(v) for v in fields["top_eigenvalues"].split()])
    except (KeyError, ValueError) as e:
        return [f"stats: malformed output ({e})"]
    errors = []
    if n != ref.n:
        errors.append(f"stats: n = {n}, expected {ref.n}")
    if abs(mean_norm - ref.mean_norm) > 1e-10 * ref.mean_norm:
        errors.append(f"stats: mean_norm {mean_norm!r}, numpy gives {ref.mean_norm!r}")
    if abs(trace - ref.trace) > 1e-10 * ref.trace:
        errors.append(f"stats: trace {trace!r}, numpy gives {ref.trace!r}")
    if top.shape != ref.top_eigenvalues.shape or _eig_mismatch(top, ref.top_eigenvalues).size:
        errors.append(f"stats: top eigenvalues {top.tolist()}, eigvalsh gives {ref.top_eigenvalues.tolist()}")
    return errors


def check_eval(ref: StsRef, path, k: int) -> list[str]:
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    errors = []
    if (doc.get("k"), doc.get("n_pairs"), doc.get("skipped")) != (k, ref.n, 0):
        errors.append(f"eval: k/n_pairs/skipped are {doc.get('k')}/{doc.get('n_pairs')}/{doc.get('skipped')}")
    got = doc.get("spearman_rho_x100")
    want = 100.0 * ref.rho[k]
    if not isinstance(got, (int, float)) or abs(got - want) > 1e-5:
        errors.append(f"eval: rho x100 = {got}, eigh + spearmanr gives {want:.5f}")
    elif got / 100.0 < ref.rho_raw + C6_GAIN:
        errors.append(f"eval: whitened rho {got / 100:.4f} is not {C6_GAIN} above raw {ref.rho_raw:.4f}")
    return errors


def check_sweep(ref: StsRef, path) -> list[str]:
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    if not lines or lines[0] != "k\trho":
        return ["sweep: missing 'k\\trho' header"]
    try:
        rows = [(int(k), float(r)) for k, r in (line.split("\t") for line in lines[1:])]
    except ValueError as e:
        return [f"sweep: malformed row ({e})"]
    if [k for k, _ in rows] != list(ref.rho):
        return [f"sweep: ks {[k for k, _ in rows]}, expected {list(ref.rho)}"]
    return [
        f"sweep: k={k} rho {r}, eigh + spearmanr gives {ref.rho[k]:.6f}"
        for k, r in rows
        if abs(r - ref.rho[k]) > 1e-6
    ]
