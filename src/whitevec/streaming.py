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
one-row block, whose scatter is zero and is not added. The combination
adds into the state's scatter in place, so its only d x d temporary is
the outer product. Storing the unscaled sum keeps the combination free
of catastrophic cancellation, and streaming, batch and merged results
agree up to round-off.

This module is also the one home of row input: ``as_real`` and
``as_rows`` check values and shapes, ``row_blocks`` slices a matrix held
in memory and ``checked_blocks`` counts a stream of blocks.
"""

from __future__ import annotations

import numbers

import numpy as np

from .errors import DimensionMismatch, EmptyInput, InvalidParameter, NonFinite

REAL = (numbers.Real, np.bool_)  # numpy registers its floats and integers, not its bool
# Rows per block wherever bulk rows are streamed: EMB1 decoding, moments,
# index building, pair scoring. A multiple of whitening.TILE_ROWS, so
# blocks split into whole apply tiles, and the smallest block whose
# scatter GEMM runs near full speed, so a block's float64 copies stay small.
BLOCK_ROWS = 1024


def require_int(value, name: str) -> int:
    """``value`` as an int: InvalidParameter unless it is an integer, not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidParameter(f"{name} must be an integer, got {value!r}")
    return int(value)


def as_real(x, name: str) -> np.ndarray:
    """``x`` as an array of real numbers: bool, integer or float, in its own dtype.

    The one rule for numeric input, of rows and transforms alike. An
    object array (Python integers beyond int64, say) is converted to
    float64 here if every element is a real number. Complex, string,
    bytes and None values, and anything numpy cannot convert (a ragged
    list, an integer beyond float64), raise InvalidParameter naming
    ``name``.
    """
    try:
        x = np.asarray(x)
        if x.dtype == object and all(isinstance(v, REAL) for v in x.flat):
            x = x.astype(np.float64)
    except (ValueError, TypeError, OverflowError) as e:
        raise InvalidParameter(f"{name} is not an array of real numbers: {e}") from None
    if x.dtype.kind not in "biuf":
        raise InvalidParameter(f"{name} holds {x.dtype} values, not real numbers")
    return x


def as_rows(x, dim: int | None, name: str) -> np.ndarray:
    """``x`` as a 2-D float32 or float64 matrix of width ``dim``, copied only to convert it.

    The one check of row input: ``as_real``'s InvalidParameter for values
    that are not real numbers, then DimensionMismatch, naming ``name``, for
    anything that is not 2-D or, unless ``dim`` is None, not ``dim`` wide.
    float32, the narrow EMB1 dtype, is kept as it is: every consumer of
    row blocks upcasts it to float64 in its first ufunc, which is exact,
    so no float64 copy of a block is made ahead of use. Anything else
    becomes float64.
    """
    x = as_real(x, name)
    if x.ndim != 2 or dim not in (None, x.shape[1]):
        width = "rows" if dim is None else f"{dim} columns"
        raise DimensionMismatch(f"{name} has shape {x.shape}, expects {width} in a 2-D matrix")
    return x if x.dtype == np.float32 else np.asarray(x, dtype=np.float64)


def row_blocks(data: np.ndarray):
    """The rows of an N x d matrix as BLOCK_ROWS-row slices, each ``as_rows`` on its own.

    A float32 matrix gives float32 views, as ``iter_emb1`` gives a float32
    file's blocks; any other dtype gives float64 copies, one slice at a
    time. The values (``as_real``) and the shape (DimensionMismatch) are
    checked at the call. An empty matrix gives one empty slice, so a
    consumer's width check still runs.
    """
    data = as_real(data, "data")
    if data.ndim != 2:
        raise DimensionMismatch(f"expected an N x d matrix, got shape {data.shape}")
    starts = range(0, max(data.shape[0], 1), BLOCK_ROWS)
    return (as_rows(data[i : i + BLOCK_ROWS], None, "data") for i in starts)


def checked_blocks(blocks, count: int, dim: int | None):
    """Yield ``blocks`` as float (m, dim) matrices (``as_rows``) that hold exactly ``count`` rows.

    ``dim=None`` takes the width of the first block. DimensionMismatch
    for another shape, for a row past ``count`` as soon as it arrives,
    and at the end for too few rows.
    """
    seen = 0
    for block in blocks:
        block = as_rows(block, dim, "block")
        dim = block.shape[1]
        seen += block.shape[0]
        if seen > count:
            raise DimensionMismatch(f"blocks hold more than the declared {count} rows")
        yield block
    if seen != count:
        raise DimensionMismatch(f"blocks hold {seen} rows, expected {count}")


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

        A zero-row block leaves the state unchanged. float32 rows are
        upcast as they are centred, into the one float64 buffer the
        scatter GEMM reads. NonFinite, leaving the state unchanged, for
        NaN or Inf in the rows and for a mean or covariance beyond
        float64: ``_combine`` checks the combined mean and scatter
        diagonal, for ``update`` and ``merge`` alike.
        """
        x = as_real(x, "rows")
        block = as_rows(x[np.newaxis] if x.ndim == 1 else x, self.dim, "rows")
        m, d = block.shape
        if m == 0:
            return
        if d < 1:
            raise DimensionMismatch(f"dimension must be >= 1, got {d}")
        if m == 1:  # a single row's own scatter is zero, and its mean is the row
            self._combine(1, block[0])
            return
        with np.errstate(over="ignore", invalid="ignore"):
            mean = block.mean(axis=0, dtype=np.float64)
            centered = np.subtract(block, mean, dtype=np.float64)
            scatter = centered.T @ centered
        self._combine(m, mean, scatter)

    def _combine(self, count: int, mean: np.ndarray, scatter: np.ndarray | None = None) -> None:
        """Chan combination, in place, with a partial state of ``count`` >= 1 points.

        ``scatter`` None is a zero scatter (a single point). The only change
        to the state and the only finiteness check on the moments: the
        combined mean and scatter diagonal are formed first, in O(d), and
        NonFinite, leaving the state unchanged, unless they are finite.
        numpy's column sums carry a NaN or Inf in the rows into the block
        mean and so into the combined mean; BLAS worker threads do not
        report overflow, so it is found in the result; and by
        Cauchy-Schwarz a scatter's diagonal bounds every entry. Only then
        are ``scatter`` and the scaled outer product added into the state's
        scatter, in that order: each entry is (own + scatter) + outer *
        n_a * n_b / n, with the bits of the out-of-place sum, and the outer
        product is the one d x d temporary. Leaving out a zero scatter changes no bit,
        because the state's scatter never holds -0.0: it starts as zeros +
        scatter, and a sum that is exactly zero rounds to +0.0. An empty
        state combines as zeros: 0 + (mean - 0) * 1.0.
        """
        d = mean.shape[0]
        own_mean = np.zeros(d) if self.mean is None else self.mean
        total = self.count + count
        cross = self.count * count / total
        with np.errstate(over="ignore", invalid="ignore"):
            delta = mean - own_mean
            new_mean = own_mean + delta * (count / total)
            diagonal = np.zeros(d) if self.scatter is None else self.scatter.diagonal().copy()
            if scatter is not None:
                diagonal += scatter.diagonal()
            if self.count:
                diagonal += delta * delta * cross
            if not (np.isfinite(new_mean).all() and np.isfinite(diagonal).all()):
                raise NonFinite("rows contain NaN or Inf, or their mean or covariance overflows float64")
            if self.scatter is None:
                self.scatter = np.zeros((d, d))
            if scatter is not None:
                self.scatter += scatter
            if self.count:
                outer = np.einsum("i,j->ij", delta, delta)
                outer *= cross
                self.scatter += outer
        self.mean, self.count = new_mean, total

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
    if a.count and b.count and a.dim != b.dim:
        raise DimensionMismatch(f"state dims differ: {a.dim} vs {b.dim}")
    out = a.copy()
    if b.count:
        out._combine(b.count, b.mean, b.scatter)
    return out


def finalize(state: MomentState) -> tuple[np.ndarray, np.ndarray]:
    """Return (mean, biased covariance). Requires at least one point."""
    if state.count == 0:
        raise EmptyInput("no points have been accumulated")
    return state.mean.copy(), state.scatter / state.count
