"""Semantic-similarity evaluation: per-pair cosine vs gold scores, ranked
by Spearman correlation, with optional whitening and a dimensionality sweep.
"""

from dataclasses import dataclass
from itertools import chain, zip_longest

import numpy as np

from . import whitening
from .errors import DegenerateInput, DimensionMismatch, NonFinite, ZeroVector
from .retrieval import row_norms
from .streaming import MomentState, as_real, as_rows, checked_blocks, fold, row_blocks
from .whitening import FULL, WhiteningTransform, require_k


@dataclass(frozen=True)
class PairedDataset:
    """N embedding pairs plus a gold similarity score per pair.

    Sides stay as ``as_rows`` gives them (float32 kept, float64 not
    copied). Shapes are checked here, values where they are read.
    """

    left: np.ndarray
    right: np.ndarray
    gold: np.ndarray

    def __post_init__(self):
        left = as_rows(self.left, None, "left")
        right = as_rows(self.right, left.shape[1], "right")
        gold = np.asarray(as_real(self.gold, "gold"), dtype=np.float64)
        if left.shape != right.shape or gold.shape != left.shape[:1]:
            raise DimensionMismatch(f"unpaired shapes {left.shape}, {right.shape}, {gold.shape}")
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
    spearman_rho: float
    n_pairs: int
    skipped: int
    dim_used: int

    @property
    def rho_x100(self) -> float:
        return self.spearman_rho * 100.0


def cosine_similarity(x: np.ndarray, y: np.ndarray) -> float:
    x = as_real(x, "x")
    y = as_real(y, "y")
    if x.shape != y.shape or x.ndim != 1:
        raise DimensionMismatch(f"shapes {x.shape} and {y.shape} do not match")
    cosines, valid = _pair_cosines(x[np.newaxis], y[np.newaxis])
    if not valid[0]:
        raise ZeroVector("cosine similarity of a (near-)zero vector is undefined")
    return float(cosines[0])


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """Fractional ranks (1-based); tied values share the average rank.

    One argsort; each run of equal sorted values starting at 0-based
    position ``start`` with ``count`` members gets ``start + (count + 1) / 2``,
    the mean of its 1-based positions, which is exact in float64.
    """
    order = np.argsort(values)
    ordered = values[order]
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    del ordered
    counts = np.diff(starts, append=values.shape[0])
    ranks = np.empty(values.shape[0])
    ranks[order] = np.repeat(starts + (counts + 1) / 2.0, counts)
    return ranks


def spearman(pred: np.ndarray, gold: np.ndarray) -> float:
    """Spearman rank correlation: Pearson correlation of average ranks."""
    pred = np.asarray(as_real(pred, "pred"), dtype=np.float64)
    gold = np.asarray(as_real(gold, "gold"), dtype=np.float64)
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
    rp -= rp.mean()
    rg -= rg.mean()
    return float(np.dot(rp, rg) / np.sqrt(np.dot(rp, rp) * np.dot(rg, rg)))


def _pair_cosines(left: np.ndarray, right: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise cosines plus a validity mask (False where a side is ~zero); see ``row_norms``.

    float32 sides are upcast once, here, for both the norms and the dot products.
    """
    left = np.asarray(left, dtype=np.float64)
    right = np.asarray(right, dtype=np.float64)
    nl, left_ok = row_norms(left)
    nr, right_ok = row_norms(right)
    valid = left_ok & right_ok
    cosines = np.zeros(left.shape[0])
    np.divide(np.vecdot(left, right), nl * nr, out=cosines, where=valid)
    return cosines, valid


def evaluate(
    data: PairedDataset, transform: WhiteningTransform | None = None
) -> EvalReport:
    """Spearman correlation of per-pair cosine similarity against gold.

    The one-transform matrix form of ``evaluate_blocks``: each side goes
    in as ``row_blocks`` slices, so a transform adds O(BLOCK_ROWS * k)
    memory, not two N x k copies.
    """
    return evaluate_blocks(row_blocks(data.left), row_blocks(data.right), data.gold, [transform])[0]


def evaluate_blocks(lefts, rights, gold: np.ndarray, transforms) -> list[EvalReport]:
    """Score two row-block streams, pair by pair, against ``gold`` under each transform.

    ``transforms`` lists WhiteningTransforms, with None for the raw
    embeddings; one EvalReport comes back per entry, in order. Each
    block pair is whitened by each transform in turn and reduced to its
    cosines, so beyond one block pair and its whitened copies the call
    holds N cosines per transform, then ranks them one transform at a
    time (O(N) temporaries). Pairs where either (transformed) side
    has near-zero norm are skipped and counted rather than scored as 0.
    Every step is row-local, so the scores do not depend on how the
    pairs are split into blocks. Each side must pass ``checked_blocks``
    for ``len(gold)`` rows, split like the other, with finite values that
    every transform takes (DimensionMismatch, NonFinite otherwise).
    ``gold`` is checked first, by ``_checked_gold``.
    """
    gold = _checked_gold(gold)
    transforms = list(transforms)
    cosines, valid, dim = _block_cosines(lefts, rights, gold.shape[0], transforms)
    reports = []
    for t, cos, ok in zip(transforms, cosines, valid):
        reports.append(
            EvalReport(
                spearman_rho=spearman(cos[ok], gold[ok]),
                n_pairs=gold.shape[0],
                skipped=int(np.sum(~ok)),
                dim_used=dim if t is None else t.output_dim,
            )
        )
    return reports


def _checked_gold(gold) -> np.ndarray:
    """``gold`` as a float64 vector: ``as_real``'s InvalidParameter for values that are not
    real numbers, DimensionMismatch unless 1-D, NonFinite unless finite."""
    gold = np.asarray(as_real(gold, "gold"), dtype=np.float64)
    if gold.ndim != 1:
        raise DimensionMismatch(f"gold has shape {gold.shape}, expected a vector")
    if not np.all(np.isfinite(gold)):
        raise NonFinite("gold scores contain NaN or Inf")
    return gold


def _block_cosines(lefts, rights, n: int, transforms):
    """(cosines, valid, dim): one row of n cosines and validity flags per transform.

    A function of its own, so the last block pair is freed before ranking.
    """
    cosines = np.empty((len(transforms), n))
    valid = np.empty((len(transforms), n), dtype=bool)
    seen, dim = 0, None
    pairs = zip_longest(checked_blocks(lefts, n, None), checked_blocks(rights, n, None))
    for left, right in pairs:
        # A side that has run out is None, whose shape () matches no block's.
        if np.shape(left) != np.shape(right):
            raise DimensionMismatch(f"block pair has shapes {np.shape(left)} and {np.shape(right)}")
        rows = slice(seen, seen + left.shape[0])
        seen, dim = rows.stop, left.shape[1]
        for i, t in enumerate(transforms):
            if t is None:
                cosines[i, rows], valid[i, rows] = _pair_cosines(left, right)
            else:
                cosines[i, rows], valid[i, rows] = _pair_cosines(
                    whitening.apply_batch(t, left), whitening.apply_batch(t, right)
                )
    return cosines, valid, dim


def fit_corpus(data: PairedDataset) -> MomentState:
    """Default fitting corpus: the moments of both sides of the pairs.

    Left then right rows are folded in ``row_blocks`` slices, as
    ``whitevec eval --fit target`` folds the two files, so beyond the
    dataset this holds one block's temporaries, not a 2N x d stack.
    """
    return fold(chain(row_blocks(data.left), row_blocks(data.right)))


def sweep_transforms(fit_data: MomentState, ks) -> list[WhiteningTransform]:
    """One full-rank fit of ``fit_data``, truncated to each entry of ``ks``.

    Every entry of ``ks`` must pass ``require_k`` before the fit. Integer
    entries above the numerical rank are left out; "full" keeps the whole
    fit. Truncation consistency guarantees each transform matches a
    separately fitted one of the same k.
    """
    ks = [require_k(k) for k in ks]
    full = whitening.fit_from_moments(fit_data, k=FULL)
    return [whitening.truncate(full, k) for k in ks if k == FULL or k <= full.output_dim]


def sweep_k(
    data: PairedDataset, ks, fit_data: MomentState | None = None
) -> list[tuple[int, float]]:
    """Evaluate across output dimensionalities using one full-rank fit.

    ``fit_data`` holds the moments of the fitting corpus (default:
    ``fit_corpus(data)``); ``ks`` is as for ``sweep_transforms``. Every
    k is scored in one pass over the pairs.
    """
    if fit_data is None:
        fit_data = fit_corpus(data)
    transforms = sweep_transforms(fit_data, ks)
    reports = evaluate_blocks(row_blocks(data.left), row_blocks(data.right), data.gold, transforms)
    return [(t.output_dim, r.spearman_rho) for t, r in zip(transforms, reports)]
