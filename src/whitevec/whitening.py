"""Fit and apply the whitening transform x -> (x - mean) @ W.

W = U diag(lam^{-1/2}) where (U, lam) come from the eigendecomposition
of the biased (divide-by-N) covariance. Keeping only the first k columns
of W gives the reduced-dimensionality variant: those columns correspond
to the k largest eigenvalues, so truncation is PCA-equivalent.
"""

import math
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

# Default rank tolerance is EPS_SCALE * trace(cov) / d, so it is unit-free.
EPS_SCALE = 1e-12

FULL = "full"


@dataclass(frozen=True)
class WhiteningTransform:
    """Fitted transform: mean (length d), matrix (d x k), dims, fit metadata."""

    mean: np.ndarray
    matrix: np.ndarray
    input_dim: int
    output_dim: int
    fit_count: int
    eps: float


def _as_matrix(data: np.ndarray) -> np.ndarray:
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2:
        raise DimensionMismatch(f"expected an N x d matrix, got shape {data.shape}")
    if not np.all(np.isfinite(data)):
        raise NonFinite("embedding matrix contains NaN or Inf")
    return data


def compute_mean(data: np.ndarray) -> np.ndarray:
    """Arithmetic mean of the rows."""
    data = _as_matrix(data)
    if data.shape[0] == 0:
        raise EmptyInput("cannot compute the mean of zero rows")
    return data.mean(axis=0)


def compute_covariance(data: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """Biased covariance (1/N) * sum_i (x_i - mean)^T (x_i - mean)."""
    data = _as_matrix(data)
    mean = np.asarray(mean, dtype=np.float64)
    if mean.shape != (data.shape[1],):
        raise DimensionMismatch(
            f"mean has shape {mean.shape}, expected ({data.shape[1]},)"
        )
    if data.shape[0] == 0:
        raise EmptyInput("cannot compute covariance of zero rows")
    centered = data - mean
    cov = centered.T @ centered / data.shape[0]
    return linalg.symmetrize(cov)


def default_eps(cov: np.ndarray) -> float:
    return EPS_SCALE * float(np.trace(cov)) / cov.shape[0]


def fit(data: np.ndarray, k="full", eps: float | None = None) -> WhiteningTransform:
    """Fit a whitening transform on the rows of ``data``.

    ``k`` is the requested output dimensionality, or "full" for the whole
    numerical rank. Eigenvalues at or below ``eps`` are unusable (their
    inverse square roots blow up), so the effective rank caps k; asking
    for more raises RankDeficient rather than silently truncating.
    ``eps`` must be finite and >= 0 (InvalidParameter otherwise).
    """
    if eps is not None and not (math.isfinite(eps) and eps >= 0.0):
        raise InvalidParameter(f"eps must be finite and >= 0, got {eps!r}")
    data = _as_matrix(data)
    n, d = data.shape
    if n == 0:
        raise EmptyInput("cannot fit a transform on zero rows")
    if n < 2:
        raise EmptyInput(f"fitting requires at least 2 rows, got {n}")
    if k != FULL:
        k = int(k)
        if not 1 <= k <= d:
            raise DimensionMismatch(f"k={k} outside [1, {d}]")

    mean = compute_mean(data)
    cov = compute_covariance(data, mean)
    if eps is None:
        eps = default_eps(cov)
    eig = linalg.sym_eig(cov)
    scales, rank = linalg.inv_sqrt_diag(eig.eigenvalues, eps)

    if k == FULL:
        k = rank
        if rank == 0:
            raise RankDeficient(1, 0)
    elif k > rank:
        raise RankDeficient(k, rank)

    matrix = eig.eigenvectors[:, :k] * scales[:k]
    matrix = np.ascontiguousarray(matrix)
    if not np.all(np.isfinite(matrix)):
        raise NonFinite("fitted whitening matrix contains NaN or Inf")
    matrix.setflags(write=False)
    mean.setflags(write=False)
    return WhiteningTransform(
        mean=mean,
        matrix=matrix,
        input_dim=d,
        output_dim=k,
        fit_count=n,
        eps=float(eps),
    )


def truncate(t: WhiteningTransform, k: int) -> WhiteningTransform:
    """First-k-columns view of a fitted transform (bit-identical columns)."""
    if not 1 <= k <= t.output_dim:
        raise RankDeficient(k, t.output_dim)
    if k == t.output_dim:
        return t
    matrix = np.ascontiguousarray(t.matrix[:, :k])
    matrix.setflags(write=False)
    return WhiteningTransform(
        mean=t.mean,
        matrix=matrix,
        input_dim=t.input_dim,
        output_dim=k,
        fit_count=t.fit_count,
        eps=t.eps,
    )


def apply_batch(t: WhiteningTransform, data: np.ndarray) -> np.ndarray:
    """Transform every row: (data - mean) @ matrix.

    Uses einsum with a fixed reduction order so a one-row batch is
    bit-identical to the same row inside a larger batch.
    """
    data = _as_matrix(data)
    if data.shape[1] != t.input_dim:
        raise DimensionMismatch(
            f"rows have dim {data.shape[1]}, transform expects {t.input_dim}"
        )
    if data.shape[0] == 0:
        return np.empty((0, t.output_dim))
    return np.einsum("ij,jk->ik", data - t.mean, t.matrix)


def apply(t: WhiteningTransform, x: np.ndarray) -> np.ndarray:
    """Transform a single vector: (x - mean) @ matrix."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (t.input_dim,):
        raise DimensionMismatch(
            f"vector has shape {x.shape}, transform expects ({t.input_dim},)"
        )
    return apply_batch(t, x[np.newaxis, :])[0]
