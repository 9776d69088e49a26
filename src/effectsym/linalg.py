"""Dense complex-matrix helpers and Hermitian eigendecomposition.

Matrices are plain square ``numpy`` arrays of ``complex128``.
Eigendecompositions use LAPACK (``numpy.linalg.eigh`` / ``eigvalsh``)
on the symmetrized input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_TOL = 1e-9


def as_square_array(a) -> np.ndarray:
    """Coerce to a square complex128 array with finite entries."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    return m


def adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.conj(np.asarray(a).T)


def hermitize(a: np.ndarray) -> np.ndarray:
    """Nearest Hermitian matrix, (A + A*)/2."""
    return 0.5 * (a + adjoint(a))


def frobenius_norm(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


def operator_norm(a: np.ndarray) -> float:
    """Spectral norm (largest singular value)."""
    return float(np.linalg.norm(a, 2))


def hermiticity_defect(a: np.ndarray) -> float:
    return frobenius_norm(a - adjoint(a))


def is_hermitian(a, tol: float = DEFAULT_TOL) -> bool:
    m = as_square_array(a)
    scale = max(frobenius_norm(m), 1e-300)
    return hermiticity_defect(m) <= tol * scale


def require_hermitian(a, tol: float = DEFAULT_TOL) -> np.ndarray:
    m = as_square_array(a)
    if not is_hermitian(m, tol):
        raise ValueError(
            f"matrix is not Hermitian within tolerance {tol:g} "
            f"(defect {hermiticity_defect(m):.3e})"
        )
    return m


def matching_dims(a: np.ndarray, b: np.ndarray) -> int:
    ma, mb = as_square_array(a), as_square_array(b)
    if ma.shape != mb.shape:
        raise ValueError(f"dimension mismatch: {ma.shape[0]} vs {mb.shape[0]}")
    return ma.shape[0]


@dataclass(frozen=True)
class HermitianEig:
    """Eigendecomposition of a Hermitian matrix.

    ``eigenvalues`` are real and ascending; the columns of
    ``eigenvectors`` are the matching orthonormal eigenvectors.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ adjoint(v)


def eig_hermitian(a, tol: float = DEFAULT_TOL) -> HermitianEig:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending.

    The input must be Hermitian within ``tol`` relative to its Frobenius
    norm; it is symmetrized before factorization.
    """
    m = require_hermitian(a, tol)
    w, v = np.linalg.eigh(hermitize(m))
    return HermitianEig(w, v)


def eigenvalues_hermitian(a, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Ascending eigenvalues only."""
    m = require_hermitian(a, tol)
    return np.linalg.eigvalsh(hermitize(m))
