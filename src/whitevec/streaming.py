"""Incremental mean/covariance over a vector stream in O(d^2) space.

State holds (count, mean, scatter) where scatter is the *unscaled* sum of
centered outer products, so scatter/count reproduces the biased batch
covariance. Every change to the state is one Chan, Golub & LeVeque
combination of two (count, mean, scatter) triples:

    n = n_a + n_b,  delta = mean_b - mean_a
    mean    = mean_a + delta * n_b / n
    scatter = scatter_a + scatter_b + outer(delta, delta) * n_a * n_b / n

``update`` takes a row block's own mean and scatter (one GEMM) and folds
them in; ``merge`` folds in another state. A single vector is the
one-row block, whose scatter is zero. Storing the unscaled sum keeps the
combination free of catastrophic cancellation, and streaming, batch and
merged results agree up to round-off.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, EmptyInput, NonFinite

OVERFLOW = "mean or covariance overflows float64"


class MomentState:
    """Mergeable accumulator for streaming mean and covariance."""

    def __init__(self):
        self.count = 0
        self.mean = None
        self.scatter = None

    @property
    def dim(self) -> int | None:
        return None if self.mean is None else self.mean.shape[0]

    def update(self, x: np.ndarray) -> None:
        """Fold a vector or an (m, d) row block into the state (in place).

        A zero-row block leaves the state unchanged.
        """
        x = np.asarray(x, dtype=np.float64)
        block = x[np.newaxis, :] if x.ndim == 1 else x
        if block.ndim != 2:
            raise DimensionMismatch(
                f"expected a vector or a row block, got shape {x.shape}"
            )
        if self.mean is not None and block.shape[1] != self.dim:
            raise DimensionMismatch(
                f"rows have dim {block.shape[1]}, state has dim {self.dim}"
            )
        if not np.all(np.isfinite(block)):
            raise NonFinite("input rows contain NaN or Inf")
        m = block.shape[0]
        if m == 0:
            return
        if m == 1:
            mean, scatter = block[0], 0.0  # a single row's own scatter is zero
        else:
            with np.errstate(over="ignore", invalid="ignore"):
                mean = block.mean(axis=0)
                centered = block - mean
                scatter = centered.T @ centered
            # BLAS worker threads do not report overflow to numpy, so check.
            # A scatter is a sum of outer products: by Cauchy-Schwarz its
            # diagonal bounds every entry, so checking the diagonal suffices.
            diagonal = np.diagonal(scatter)
            if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(diagonal))):
                raise NonFinite(OVERFLOW)
        if self.mean is None:
            d = block.shape[1]
            if d < 1:
                raise DimensionMismatch(f"dimension must be >= 1, got {d}")
            self.mean = np.zeros(d)
            self.scatter = np.zeros((d, d))
        self._combine(m, mean, scatter)

    def _combine(self, count: int, mean: np.ndarray, scatter) -> None:
        """Chan combination with a partial state of ``count`` points.

        Raises NonFinite, leaving the state unchanged, if the result
        overflows float64.
        """
        total = self.count + count
        weight = self.count * count / total
        try:
            with np.errstate(over="raise", invalid="raise"):
                delta = mean - self.mean
                new_mean = self.mean + delta * (count / total)
                new_scatter = self.scatter + scatter
                if weight:  # zero while the state is empty
                    outer = np.outer(delta, delta)
                    outer *= weight
                    new_scatter += outer
        except FloatingPointError:
            raise NonFinite(OVERFLOW) from None
        self.mean, self.scatter, self.count = new_mean, new_scatter, total

    def copy(self) -> MomentState:
        out = MomentState()
        out.count = self.count
        if self.mean is not None:
            out.mean = self.mean.copy()
            out.scatter = self.scatter.copy()
        return out


def fold(blocks) -> MomentState:
    """Moments of a stream of row blocks: one ``update`` per block, in order."""
    state = MomentState()
    for block in blocks:
        state.update(block)
    return state


def merge(a: MomentState, b: MomentState) -> MomentState:
    """Combine two partial states as if their streams were concatenated."""
    if a.count == 0:
        return b.copy()
    if b.count == 0:
        return a.copy()
    if a.dim != b.dim:
        raise DimensionMismatch(f"state dims differ: {a.dim} vs {b.dim}")
    out = a.copy()
    out._combine(b.count, b.mean, b.scatter)
    return out


def finalize(state: MomentState) -> tuple[np.ndarray, np.ndarray]:
    """Return (mean, biased covariance). Requires at least one point."""
    if state.count == 0:
        raise EmptyInput("no points have been accumulated")
    return state.mean.copy(), state.scatter / state.count
