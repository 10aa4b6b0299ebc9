"""Semantic-similarity evaluation: per-pair cosine vs gold scores, ranked
by Spearman correlation, with optional whitening and a dimensionality sweep.
"""

from dataclasses import dataclass

import numpy as np

from . import whitening
from .errors import DegenerateInput, DimensionMismatch, NonFinite, ZeroVector
from .retrieval import ZERO_NORM
from .streaming import MomentState
from .whitening import BLOCK_ROWS, FULL, WhiteningTransform


@dataclass(frozen=True)
class PairedDataset:
    """N embedding pairs plus a gold similarity score per pair."""

    left: np.ndarray
    right: np.ndarray
    gold: np.ndarray
    name: str = "dataset"

    def __post_init__(self):
        left = np.asarray(self.left, dtype=np.float64)
        right = np.asarray(self.right, dtype=np.float64)
        gold = np.asarray(self.gold, dtype=np.float64)
        if left.ndim != 2 or right.ndim != 2 or gold.ndim != 1:
            raise DimensionMismatch("expected two N x d matrices and a length-N vector")
        if left.shape != right.shape or left.shape[0] != gold.shape[0]:
            raise DimensionMismatch(
                f"inconsistent shapes: left {left.shape}, right {right.shape}, "
                f"gold {gold.shape}"
            )
        if not (
            np.all(np.isfinite(left))
            and np.all(np.isfinite(right))
            and np.all(np.isfinite(gold))
        ):
            raise NonFinite("dataset contains NaN or Inf")
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "gold", gold)

    @property
    def n_pairs(self) -> int:
        return self.left.shape[0]

    @property
    def dim(self) -> int:
        return self.left.shape[1]


@dataclass(frozen=True)
class EvalReport:
    dataset: str
    spearman_rho: float
    n_pairs: int
    skipped: int
    dim_used: int

    @property
    def rho_x100(self) -> float:
        return self.spearman_rho * 100.0


def cosine_similarity(x: np.ndarray, y: np.ndarray) -> float:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise DimensionMismatch(f"shapes {x.shape} and {y.shape} do not match")
    cosines, valid = _pair_cosines(x[np.newaxis], y[np.newaxis])
    if not valid[0]:
        raise ZeroVector("cosine similarity of a (near-)zero vector is undefined")
    return float(cosines[0])


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """Fractional ranks (1-based); tied values share the average rank."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]


def spearman(pred: np.ndarray, gold: np.ndarray) -> float:
    """Spearman rank correlation: Pearson correlation of average ranks."""
    pred = np.asarray(pred, dtype=np.float64)
    gold = np.asarray(gold, dtype=np.float64)
    if pred.shape != gold.shape or pred.ndim != 1:
        raise DimensionMismatch(f"shapes {pred.shape} and {gold.shape} do not match")
    if pred.shape[0] < 2:
        raise DegenerateInput("need at least 2 observations")
    if not (np.all(np.isfinite(pred)) and np.all(np.isfinite(gold))):
        raise NonFinite("inputs contain NaN or Inf")
    if np.all(pred == pred[0]) or np.all(gold == gold[0]):
        raise DegenerateInput("correlation is undefined for a constant sequence")
    rp = _average_ranks(pred)
    rg = _average_ranks(gold)
    rp = rp - rp.mean()
    rg = rg - rg.mean()
    return float(np.dot(rp, rg) / np.sqrt(np.dot(rp, rp) * np.dot(rg, rg)))


def _pair_cosines(left: np.ndarray, right: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise cosines plus a validity mask (False where a side is ~zero)."""
    dots = np.einsum("ij,ij->i", left, right)
    nl = np.sqrt(np.einsum("ij,ij->i", left, left))
    nr = np.sqrt(np.einsum("ij,ij->i", right, right))
    valid = (nl >= ZERO_NORM) & (nr >= ZERO_NORM)
    cosines = np.zeros_like(dots)
    np.divide(dots, nl * nr, out=cosines, where=valid)
    return cosines, valid


def evaluate(
    data: PairedDataset, transform: WhiteningTransform | None = None
) -> EvalReport:
    """Spearman correlation of per-pair cosine similarity against gold.

    Pairs where either (transformed) side has near-zero norm are skipped
    and counted rather than scored as 0. Pairs are whitened and scored
    in BLOCK_ROWS-row blocks (every step is row-local, so the scores do
    not depend on the block size): a transform adds O(BLOCK_ROWS * k)
    memory, not two N x k copies.
    """
    if transform is not None:
        if transform.input_dim != data.dim:
            raise DimensionMismatch(
                f"dataset dim {data.dim} != transform input dim {transform.input_dim}"
            )
        dim_used = transform.output_dim
    else:
        dim_used = data.dim
    cosines = np.empty(data.n_pairs)
    valid = np.empty(data.n_pairs, dtype=bool)
    for start in range(0, data.n_pairs, BLOCK_ROWS):
        rows = slice(start, start + BLOCK_ROWS)
        left, right = data.left[rows], data.right[rows]
        if transform is not None:
            left = whitening.apply_batch(transform, left)
            right = whitening.apply_batch(transform, right)
        cosines[rows], valid[rows] = _pair_cosines(left, right)
    rho = spearman(cosines[valid], data.gold[valid])
    return EvalReport(
        dataset=data.name,
        spearman_rho=rho,
        n_pairs=data.n_pairs,
        skipped=int(np.sum(~valid)),
        dim_used=dim_used,
    )


def fit_corpus(data: PairedDataset) -> MomentState:
    """Default fitting corpus: the moments of both sides of the pairs.

    Left then right rows are folded in BLOCK_ROWS-row blocks, so beyond
    the dataset this holds one block's temporaries, not a 2N x d stack.
    """
    state = MomentState()
    for side in (data.left, data.right):
        for start in range(0, data.n_pairs, BLOCK_ROWS):
            state.update(side[start : start + BLOCK_ROWS])
    return state


def sweep_k(
    data: PairedDataset,
    ks,
    fit_data: MomentState | None = None,
    eps: float | None = None,
) -> list[tuple[int, float]]:
    """Evaluate across output dimensionalities using one full-rank fit.

    ``fit_data`` holds the moments of the fitting corpus (default:
    ``fit_corpus(data)``). ``ks`` may contain ints and the string
    "full". Entries above the numerical rank are skipped. Truncation
    consistency guarantees each entry matches a separately fitted
    transform of the same k.
    """
    if fit_data is None:
        fit_data = fit_corpus(data)
    full = whitening.fit_from_moments(fit_data, k=FULL, eps=eps)
    results: list[tuple[int, float]] = []
    for k in ks:
        k = full.output_dim if k == FULL else int(k)
        if not 1 <= k <= full.output_dim:
            continue
        report = evaluate(data, whitening.truncate(full, k))
        results.append((k, report.spearman_rho))
    return results
