"""Dense complex-matrix helpers and Hermitian eigendecomposition.

Matrices are plain square ``numpy`` arrays of ``complex128``.
Eigendecompositions use LAPACK (``numpy.linalg.eigh`` / ``eigvalsh``)
on the symmetrized input.  Hermiticity is checked against
``DEFAULT_TOL = 1e-9`` relative to the Frobenius norm.
"""

from __future__ import annotations

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


def require_hermitian(a) -> np.ndarray:
    m = as_square_array(a)
    defect = hermiticity_defect(m)
    if not defect <= DEFAULT_TOL * max(frobenius_norm(m), 1e-300):
        raise ValueError(
            f"matrix is not Hermitian within tolerance {DEFAULT_TOL:g} (defect {defect:.3e})"
        )
    return m


def matching_dims(a: np.ndarray, b: np.ndarray) -> int:
    ma, mb = as_square_array(a), as_square_array(b)
    if ma.shape != mb.shape:
        raise ValueError(f"dimension mismatch: {ma.shape[0]} vs {mb.shape[0]}")
    return ma.shape[0]


def eig_hermitian(a) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and matching orthonormal eigenvector
    columns of a Hermitian matrix, as ``numpy.linalg.eigh`` returns them.

    The input must be Hermitian within ``DEFAULT_TOL`` relative to its
    Frobenius norm; it is symmetrized before factorization.
    """
    return np.linalg.eigh(hermitize(require_hermitian(a)))


def eigenvalues_hermitian(a) -> np.ndarray:
    """Ascending eigenvalues only."""
    return np.linalg.eigvalsh(hermitize(require_hermitian(a)))
