"""Dense complex-matrix helpers and Hermitian eigendecomposition.

Matrices are plain square ``numpy`` arrays of ``complex128``.  Two
eigensolvers sit behind one interface: LAPACK (``numpy.linalg.eigh``,
the default) and a self-contained cyclic Jacobi sweep with complex 2x2
rotations, kept both as an independent cross-check and as a fallback
with no LAPACK dependency.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_TOL = 1e-9

JACOBI_MAX_SWEEPS = 100
JACOBI_REL_THRESHOLD = 1e-14


class ConvergenceError(RuntimeError):
    """Eigensolver failed to reach its off-diagonal threshold."""


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


def jacobi_eigh(
    a,
    max_sweeps: int = JACOBI_MAX_SWEEPS,
    rel_threshold: float = JACOBI_REL_THRESHOLD,
    tol: float = DEFAULT_TOL,
) -> HermitianEig:
    """Cyclic Jacobi diagonalization with complex 2x2 rotations.

    Sweeps the strict upper triangle row by row, annihilating each pivot
    with a unitary rotation, until the off-diagonal Frobenius norm drops
    below ``rel_threshold`` times the input norm.  Raises
    :class:`ConvergenceError` if ``max_sweeps`` full sweeps do not get
    there.  Robust and dependency-free for the small dimensions used
    here; quadratic convergence sets in after a couple of sweeps.
    """
    m = hermitize(require_hermitian(a, tol))
    n = m.shape[0]
    v = np.eye(n, dtype=complex)
    stop = rel_threshold * max(frobenius_norm(m), 1e-300)

    sweeps = 0
    while True:
        off = frobenius_norm(m - np.diag(np.diagonal(m)))
        if off <= stop:
            break
        if sweeps >= max_sweeps:
            raise ConvergenceError(
                f"cyclic Jacobi: off-diagonal norm {off:.3e} still above "
                f"{stop:.3e} after {max_sweeps} sweeps"
            )
        sweeps += 1
        for p in range(n - 1):
            for q in range(p + 1, n):
                b = m[p, q]
                absb = abs(b)
                if absb <= stop / max(n, 1):
                    continue
                phase = b / absb
                tau = (m[q, q].real - m[p, p].real) / (2.0 * absb)
                sgn = 1.0 if tau >= 0.0 else -1.0
                t = sgn / (abs(tau) + np.sqrt(1.0 + tau * tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                # A <- G* A G, V <- V G with the (p,q) block of G equal to
                # [[c, s*phase], [-s*conj(phase), c]].
                colp = m[:, p].copy()
                colq = m[:, q].copy()
                m[:, p] = c * colp - s * np.conj(phase) * colq
                m[:, q] = s * phase * colp + c * colq
                rowp = m[p, :].copy()
                rowq = m[q, :].copy()
                m[p, :] = c * rowp - s * phase * rowq
                m[q, :] = s * np.conj(phase) * rowp + c * rowq
                m[p, q] = 0.0
                m[q, p] = 0.0
                vp = v[:, p].copy()
                vq = v[:, q].copy()
                v[:, p] = c * vp - s * np.conj(phase) * vq
                v[:, q] = s * phase * vp + c * vq

    w = np.real(np.diagonal(m)).copy()
    order = np.argsort(w, kind="stable")
    return HermitianEig(w[order], v[:, order])


def eig_hermitian(a, tol: float = DEFAULT_TOL, method: str = "lapack") -> HermitianEig:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending.

    ``method`` selects "lapack" (default) or "jacobi".  The input must
    be Hermitian within ``tol`` relative to its Frobenius norm; it is
    symmetrized before factorization so both methods see the same
    matrix.
    """
    m = require_hermitian(a, tol)
    if method == "lapack":
        w, v = np.linalg.eigh(hermitize(m))
        return HermitianEig(w, v)
    if method == "jacobi":
        return jacobi_eigh(m, tol=tol)
    raise ValueError(f"unknown eigensolver method {method!r}")


def eigenvalues_hermitian(a, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Ascending eigenvalues only (LAPACK path)."""
    m = require_hermitian(a, tol)
    return np.linalg.eigvalsh(hermitize(m))
