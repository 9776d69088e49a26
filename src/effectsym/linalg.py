"""Dense complex-matrix helpers and Hermitian eigendecomposition.

Matrices are plain square ``numpy`` arrays of ``complex128``.
Eigendecompositions use LAPACK (``numpy.linalg.eigh`` / ``eigvalsh``)
on the symmetrized input.  Hermiticity is checked against
``DEFAULT_TOL = 1e-9`` relative to the Frobenius norm.  Every entry point
that takes a matrix of known dimension checks its size in
:func:`as_square_array`.

The positive/negative split :func:`psd_parts` and the reassembly
V diag(w) V* :func:`from_spectrum` are written only here; ``eigh`` and
``@`` treat each matrix of a stack as one matrix, so a stacked split
keeps the bits of a one-matrix split.

Haar draws factor their Gaussian stacks with :func:`_qr_unitary_and_diagonal`,
which runs the two LAPACK gufuncs behind ``np.linalg.qr``, ``qr_r_raw``
(``zgeqrf``) and ``qr_reduced`` (``zungqr``), from the private
``numpy.linalg._umath_linalg`` module on the same operands and under the same
error state, so Q and R's diagonal keep numpy's bits.  It skips the
wrapper's copy, casts and ``triu``: R is never formed, and its diagonal is
read in place from the factored stack.

Stages take an adjoint per sample, so :func:`adjoint` uses the array's
own ``swapaxes`` and ``conj`` methods rather than numpy's function
wrappers; the view and its bits are those of ``np.conj(np.swapaxes(...))``.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

DEFAULT_TOL = 1e-9


def as_square_array(a, dim: int | None = None) -> np.ndarray:
    """Coerce to a square complex128 array with finite entries, and of
    size ``dim`` x ``dim`` when ``dim`` is given."""
    m = np.asarray(a, dtype=complex)
    fits = m.shape == (dim, dim) if dim is not None else m.ndim == 2 and m.shape[0] == m.shape[1]
    if not fits:
        want = "a square matrix" if dim is None else f"a {dim} x {dim} matrix"
        raise ValueError(f"expected {want}, got shape {m.shape}")
    if np.count_nonzero(np.isfinite(m)) != m.size:
        raise ValueError("matrix has non-finite entries")
    return m


def adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose (of each matrix, for a stack)."""
    return a.swapaxes(-1, -2).conj()


def hermitize(a: np.ndarray) -> np.ndarray:
    """Nearest Hermitian matrix, (A + A*)/2."""
    return 0.5 * (a + adjoint(a))


def frobenius_norm(a) -> float:
    """``float(np.linalg.norm(a))`` bit for bit: numpy's own ``ord=None``
    branch (same cast, ``ravel``, ``dot`` calls and sum) without its
    dispatch; ``math.sqrt`` rounds correctly, as numpy's ``sqrt`` does.
    One path serves every dtype: a real array's imaginary part is zeros,
    whose ``dot`` is an exact +0.0, so the sum keeps the bits of numpy's
    real branch."""
    x = np.asarray(a)
    x = (x if issubclass(x.dtype.type, (np.inexact, np.object_)) else x.astype(float)).ravel(order="K")
    x, y = x.real, x.imag
    return math.sqrt(x.dot(x) + y.dot(y))


def frobenius_norms(stack) -> np.ndarray:
    """:func:`frobenius_norm` of each matrix or vector of a stack, bit for bit: the same
    cast, each one's ``ravel(order="K")`` as a contiguous row, and per row the same BLAS
    ``dot`` (``np.vecdot`` runs it once per row) and a correctly rounded ``sqrt``.  As
    there, one path serves every dtype: a real row adds the exact +0.0 of its zero
    imaginary part."""
    x = np.asarray(stack)
    x = x if issubclass(x.dtype.type, (np.inexact, np.object_)) else x.astype(float)
    if len(x) and not x[0].flags.c_contiguous:  # each row in its matrix's own ravel order
        x = np.array([m.ravel(order="K") for m in x])
    x = x.reshape(len(x), math.prod(x.shape[1:]))
    x, y = x.real, x.imag
    return np.sqrt(np.vecdot(x, x) + np.vecdot(y, y))


def _raise_qr_error(err, flag):
    raise LinAlgError("Incorrect argument found while performing QR factorization")


@np.errstate(call=_raise_qr_error, invalid="call", over="ignore", divide="ignore", under="ignore")
def _qr_unitary_and_diagonal(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Q and R's diagonal of each matrix of a stack ``a`` of square complex128 matrices,
    bit for bit those of ``np.linalg.qr(a)``.  ``a`` is factored in place, so it must be
    an array the caller owns and no longer needs, as ``np.linalg.qr``'s own copy is.
    A LAPACK argument error raises ``LinAlgError``, as in ``np.linalg.qr``."""
    tau = _umath_linalg.qr_r_raw(a, signature="D->D")
    return _umath_linalg.qr_reduced(a, tau, signature="DD->D"), a.diagonal(axis1=-2, axis2=-1)


def nan_max(*values: float) -> float:
    """Largest of ``values``, or NaN if any of them is NaN.  Python's
    ``max`` passes over a NaN that is not first, so a NaN defect folded
    with it would read as clean."""
    return float(np.max(values))


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


def from_spectrum(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """V diag(w) V*, Hermitian (of each, for a stack)."""
    return hermitize((v * w[..., None, :]) @ adjoint(v))


def psd_parts(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Parts P, N >= 0 with H = P - N and PN = 0 of an unvalidated Hermitian
    H (of each, for a stack), from one ``eigh`` of its symmetrized form."""
    w, v = np.linalg.eigh(hermitize(h))
    return from_spectrum(v, np.clip(w, 0.0, None)), from_spectrum(v, np.clip(-w, 0.0, None))
