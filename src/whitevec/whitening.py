"""Fit and apply the whitening transform x -> (x - mean) @ W.

W = U diag(lam^{-1/2}) where (U, lam) come from the eigendecomposition
of the biased (divide-by-N) covariance. Keeping only the first k columns
of W gives the reduced-dimensionality variant: those columns correspond
to the k largest eigenvalues, so truncation is PCA-equivalent.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    DimensionMismatch,
    EmptyInput,
    InvalidParameter,
    NonFinite,
    RankDeficient,
)
from .streaming import MomentState, as_real, as_rows, finalize, fold

# Default rank tolerance is EPS_SCALE * trace(cov) / d, so it is unit-free.
EPS_SCALE = 1e-12

FULL = "full"

# Rows per BLAS call in apply_batch; a fixed shape keeps rows bit-exact.
TILE_ROWS = 256
# Rows per block wherever bulk rows are streamed: EMB1 decoding, index
# building, pair scoring. A multiple of TILE_ROWS, so blocks split into
# whole apply tiles.
BLOCK_ROWS = 16 * TILE_ROWS


@dataclass(frozen=True)
class WhiteningTransform:
    """Fitted transform: mean (length d), matrix (d x k), fit metadata.

    The one owner of what a transform is. Construction stores read-only,
    C-contiguous float64 copies of ``mean`` and ``matrix``, so a caller's
    later write cannot reach them, and the dims are read off the matrix,
    so they cannot disagree with it. Values that are not real numbers
    (``as_real``) raise InvalidParameter; a matrix that is not d x k with
    d, k >= 1, or a mean that is not one value per matrix row,
    DimensionMismatch; a NaN or Inf value, NonFinite. ``fit_count`` must
    be an integer >= 1 and ``eps`` pass ``valid_eps`` (InvalidParameter);
    they are stored as ``int`` and ``float``.
    """

    mean: np.ndarray
    matrix: np.ndarray
    fit_count: int
    eps: float

    def __post_init__(self):
        mean = np.array(as_real(self.mean, "mean"), dtype=np.float64)
        matrix = np.array(as_real(self.matrix, "matrix"), dtype=np.float64, order="C")
        if matrix.ndim != 2 or 0 in matrix.shape:
            raise DimensionMismatch(f"matrix has shape {matrix.shape}, expected d x k, d, k >= 1")
        if mean.shape != matrix.shape[:1]:
            raise DimensionMismatch(f"mean has shape {mean.shape}, expected ({matrix.shape[0]},)")
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(matrix))):
            raise NonFinite("transform contains NaN or Inf")
        fit_count = require_int(self.fit_count, "fit_count")
        if fit_count < 1:
            raise InvalidParameter(f"fit_count must be >= 1, got {fit_count}")
        if not valid_eps(self.eps):
            raise InvalidParameter(f"eps must be a finite number >= 0, got {self.eps!r}")
        mean.setflags(write=False)
        matrix.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "fit_count", fit_count)
        object.__setattr__(self, "eps", float(self.eps))

    @property
    def input_dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def output_dim(self) -> int:
        return self.matrix.shape[1]


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


def default_eps(cov: np.ndarray) -> float:
    """EPS_SCALE * trace(cov) / d, finite whenever ``cov`` is.

    Where the trace overflows, the diagonal is scaled before it is summed.
    """
    with np.errstate(over="ignore"):
        trace = float(np.trace(cov))
    if math.isfinite(trace):
        return EPS_SCALE * trace / cov.shape[0]
    return float(np.sum(EPS_SCALE * np.diagonal(cov))) / cov.shape[0]


def valid_eps(eps) -> bool:
    """True for a finite real number >= 0 that is not a bool.

    An integer too large for float64 is not finite here.
    """
    if isinstance(eps, bool) or not isinstance(eps, numbers.Real):
        return False
    try:
        return math.isfinite(eps) and eps >= 0
    except OverflowError:
        return False


def require_int(value, name: str) -> int:
    """``value`` as an int: InvalidParameter unless it is an integer, not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidParameter(f"{name} must be an integer, got {value!r}")
    return int(value)


def fit(data: np.ndarray, k="full", eps: float | None = None) -> WhiteningTransform:
    """Fit a whitening transform on the rows of ``data``.

    The rows are folded in ``row_blocks`` slices exactly as ``whitevec
    fit`` folds a file, in O(BLOCK_ROWS * d) memory beyond ``data``. See
    ``fit_from_moments`` for ``k`` and ``eps``.
    """
    if isinstance(data, MomentState):
        raise InvalidParameter("fit takes an N x d matrix; fit moments with fit_from_moments")
    return fit_from_moments(fold(row_blocks(data)), k, eps)


def fit_from_moments(
    state: MomentState, k="full", eps: float | None = None
) -> WhiteningTransform:
    """Fit a whitening transform from accumulated moments.

    ``k`` is the requested output dimensionality, or "full" for the whole
    numerical rank. An eigenvalue counts toward the rank only if it
    exceeds ``max(eps, d * machine_eps * lam_max)``: at or below that its
    inverse square root amplifies round-off. Asking for more than the
    rank raises RankDeficient rather than silently truncating. ``k``
    must be "full" or an integer and ``eps`` pass ``valid_eps``
    (InvalidParameter otherwise), and ``state`` be a ``MomentState``.
    """
    if not isinstance(state, MomentState):
        raise InvalidParameter(f"expected a MomentState, got {type(state).__name__}")
    if eps is not None and not valid_eps(eps):
        raise InvalidParameter(f"eps must be a finite number >= 0, got {eps!r}")
    if k != FULL:
        k = require_int(k, "k")
    n, d = state.count, state.dim
    if n == 0:
        raise EmptyInput("cannot fit a transform on zero rows")
    if n < 2:
        raise EmptyInput(f"fitting requires at least 2 rows, got {n}")
    if k != FULL and not 1 <= k <= d:
        raise DimensionMismatch(f"k={k} outside [1, {d}]")

    mean, cov = finalize(state)
    if eps is None:
        eps = default_eps(cov)
    eig = linalg.sym_eig(cov)
    floor = max(eps, d * np.finfo(np.float64).eps * eig.eigenvalues[0])
    scales, rank = linalg.inv_sqrt_diag(eig.eigenvalues, floor)

    if k == FULL:
        k = rank
        if rank == 0:
            raise RankDeficient(1, 0)
    elif k > rank:
        raise RankDeficient(k, rank)

    return WhiteningTransform(
        mean=mean, matrix=eig.eigenvectors[:, :k] * scales[:k], fit_count=n, eps=eps
    )


def truncate(t: WhiteningTransform, k: int) -> WhiteningTransform:
    """First-k-columns view of a fitted transform (bit-identical columns).

    ``k`` must be an integer (InvalidParameter) in [1, output_dim]
    (RankDeficient).
    """
    k = require_int(k, "k")
    if not 1 <= k <= t.output_dim:
        raise RankDeficient(k, t.output_dim)
    if k == t.output_dim:
        return t
    return WhiteningTransform(
        mean=t.mean, matrix=t.matrix[:, :k], fit_count=t.fit_count, eps=t.eps
    )


def apply_batch(t: WhiteningTransform, data: np.ndarray) -> np.ndarray:
    """Transform every row: (data - mean) @ matrix.

    Rows go through BLAS in fixed TILE_ROWS-row tiles, the last one padded
    with zero rows, so every row meets the same GEMM shape and a one-row
    batch is bit-identical to the same row inside a larger batch. Each
    tile is centred in one reused buffer: beyond its output, the call
    allocates O(TILE_ROWS * d); float32 rows are upcast by the centring
    itself. NonFinite for NaN or Inf in ``data`` and for a finite row
    whose centring or product overflows float64, both found by the one
    check, of each tile's output: NaN * w and Inf * 0 are NaN, so a NaN
    or Inf anywhere in a row leaves no entry of that row's output finite.
    """
    data = as_rows(data, t.input_dim, "data")
    out = np.empty((data.shape[0], t.output_dim))
    tile = np.zeros((TILE_ROWS, t.input_dim))
    for start in range(0, data.shape[0], TILE_ROWS):
        rows = data[start : start + TILE_ROWS]
        m = rows.shape[0]
        with np.errstate(over="ignore", invalid="ignore"):
            np.subtract(rows, t.mean, out=tile[:m])
            tile[m:] = 0.0
            out[start : start + m] = (tile @ t.matrix)[:m]
        if not np.all(np.isfinite(out[start : start + m])):
            raise NonFinite("rows contain NaN or Inf, or a whitened value overflows float64")
    return out


def apply(t: WhiteningTransform, x: np.ndarray) -> np.ndarray:
    """Transform a single vector: the one-row call of ``apply_batch``, which checks it."""
    return apply_batch(t, np.asarray(x)[np.newaxis])[0]
