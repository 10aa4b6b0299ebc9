"""Dense symmetric eigendecomposition for covariance matrices.

``sym_eig`` hands the factorization to LAPACK (``numpy.linalg.eigh``) and
adds a deterministic presentation: eigenvalues sorted descending, each
eigenvector column signed so its largest-magnitude entry is non-negative.
The result is deterministic for a given platform, BLAS build and BLAS
thread count (``OPENBLAS_NUM_THREADS`` for OpenBLAS): a different
thread count can change the last bits, and inside a degenerate
eigenspace (repeated eigenvalues) the basis itself.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NoConvergence, NonFinite

# Eigenvalues more negative than -NEG_CLAMP_TOL * max|a_ij| are genuine;
# anything closer to zero is PSD round-off and gets clamped.
NEG_CLAMP_TOL = 1e-10


def symmetrize(a: np.ndarray) -> np.ndarray:
    """Return (A + A^T)/2 as a fresh float64 array.

    Halves before adding, so finite entries never overflow.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    half = a / 2.0
    return half + half.T


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenpairs of a symmetric matrix, eigenvalues in descending order.

    ``eigenvectors[:, j]`` is the unit eigenvector for ``eigenvalues[j]``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def sym_eig(a: np.ndarray) -> EigenDecomposition:
    """Eigendecomposition A = U diag(lam) U^T for symmetric A.

    The input is symmetrized via (A + A^T)/2 before factoring. Tiny
    negative eigenvalues (round-off on PSD inputs) are clamped to zero.

    Raises NonFinite for NaN/Inf entries or eigenvalues beyond the float64
    range, and NoConvergence if LAPACK fails to converge.
    """
    a = np.asarray(a, dtype=np.float64)
    if not np.all(np.isfinite(a)):
        raise NonFinite("matrix contains NaN or Inf")
    work = symmetrize(a)
    try:
        ascending, vectors = np.linalg.eigh(work)
    except np.linalg.LinAlgError as e:
        raise NoConvergence(f"LAPACK eigh failed: {e}") from e
    if not np.all(np.isfinite(ascending)):
        raise NonFinite("eigenvalues overflow float64")
    eigenvalues = np.ascontiguousarray(ascending[::-1])
    vectors = np.ascontiguousarray(vectors[:, ::-1])

    max_abs = float(np.max(np.abs(a))) if a.size else 0.0
    clamp = NEG_CLAMP_TOL * max_abs
    eigenvalues[(eigenvalues < 0.0) & (eigenvalues >= -clamp)] = 0.0

    # Deterministic signs: largest-magnitude entry of each column >= 0.
    if vectors.size:
        rows = np.argmax(np.abs(vectors), axis=0)
        vectors[:, vectors[rows, np.arange(rows.size)] < 0.0] *= -1.0

    eigenvalues.setflags(write=False)
    vectors.setflags(write=False)
    return EigenDecomposition(eigenvalues=eigenvalues, eigenvectors=vectors)


def inv_sqrt_diag(eigenvalues: np.ndarray, eps: float) -> tuple[np.ndarray, int]:
    """Return (lam_i^{-1/2} for lam_i > eps, effective rank).

    Eigenvalues at or below eps are dropped; the caller decides what to do
    with the reduced rank.
    """
    eigenvalues = np.asarray(eigenvalues, dtype=np.float64)
    kept = eigenvalues[eigenvalues > eps]
    return 1.0 / np.sqrt(kept), int(kept.size)
