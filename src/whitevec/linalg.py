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
# Rows of A^T halved at a time where sym_eig symmetrizes an input, so the
# symmetrized buffer is its one d x d array.
ROW_BLOCK = 64


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenpairs of a symmetric matrix, eigenvalues in descending order.

    ``eigenvectors[:, j]`` is the unit eigenvector for ``eigenvalues[j]``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def sym_eig(a: np.ndarray) -> EigenDecomposition:
    """Eigendecomposition A = U diag(lam) U^T for symmetric A.

    An input equal to its transpose bit for bit, as every covariance that
    ``streaming`` builds is, is factored as it is. Any other input is
    symmetrized into one new buffer as (A/2 + A^T/2), halved before adding
    so finite entries never overflow. While LAPACK runs, the call holds
    no other d x d array of its own. Tiny negative eigenvalues (round-off
    on PSD inputs) are clamped to zero.

    Raises NonFinite for NaN/Inf entries or eigenvalues beyond the float64
    range, DimensionMismatch for a finite input that is not square, and
    NoConvergence if LAPACK fails to converge.
    """
    a = np.asarray(a, dtype=np.float64)
    if not np.all(np.isfinite(a)):
        raise NonFinite("matrix contains NaN or Inf")
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    bits = a.view(np.int64)
    sym = a if np.array_equal(bits, bits.T) else _symmetrized(a)
    try:
        ascending, vectors = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as e:
        raise NoConvergence(f"LAPACK eigh failed: {e}") from e
    del sym
    if not np.all(np.isfinite(ascending)):
        raise NonFinite("eigenvalues overflow float64")
    eigenvalues = np.ascontiguousarray(ascending[::-1])
    vectors = np.ascontiguousarray(vectors[:, ::-1])

    max_abs = max(float(a.max()), -float(a.min())) if a.size else 0.0
    clamp = NEG_CLAMP_TOL * max_abs
    eigenvalues[(eigenvalues < 0.0) & (eigenvalues >= -clamp)] = 0.0

    # Deterministic signs: largest-magnitude entry of each column >= 0.
    if vectors.size:
        rows = np.argmax(np.abs(vectors), axis=0)
        vectors[:, vectors[rows, np.arange(rows.size)] < 0.0] *= -1.0

    eigenvalues.setflags(write=False)
    vectors.setflags(write=False)
    return EigenDecomposition(eigenvalues=eigenvalues, eigenvectors=vectors)


def _symmetrized(a: np.ndarray) -> np.ndarray:
    """A new (A/2 + A^T/2), each half of A^T made one ROW_BLOCK-row slice at a time."""
    sym = a / 2.0
    for start in range(0, a.shape[0], ROW_BLOCK):
        sym[start : start + ROW_BLOCK] += a[:, start : start + ROW_BLOCK].T / 2.0
    return sym
