"""The operator interval [0, I]: effects, projections, and their algebra.

Effects and projections are plain Hermitian ``numpy`` arrays; the
constructor :func:`as_effect` validates and clamps a candidate matrix
and hands back a clean copy.  Operations assume validated inputs and do
not re-check spectra, so the hot paths stay cheap; closure properties
are enforced by the callers that need them and by the test suites.
``as_effect``, ``partial_add`` and ``is_extreme`` bound spectra within
``linalg.DEFAULT_TOL = 1e-9``, the tolerance of every Hermiticity check
here too; ``leq`` takes its tolerance as an argument, with that default.
"""

from __future__ import annotations

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    adjoint,
    as_square_array,
    eig_hermitian,
    eigenvalues_hermitian,
    hermitize,
    matching_dims,
)


class NotSummableError(ValueError):
    """A + B leaves the interval [0, I], so the partial sum is undefined."""


def as_effect(a) -> np.ndarray:
    """Validate a matrix as an effect and clamp its spectrum to [0, 1].

    Accepts Hermitian matrices whose eigenvalues lie in
    ``[-DEFAULT_TOL, 1 + DEFAULT_TOL]``; anything further out is
    rejected.  Clamping keeps floating-point drift from accumulating
    across long pipelines.
    """
    w, v = eig_hermitian(a)
    if w[0] < -DEFAULT_TOL or w[-1] > 1.0 + DEFAULT_TOL:
        raise ValueError(
            f"matrix is not an effect: eigenvalues span [{w[0]:.3e}, {w[-1]:.3e}]"
        )
    clamped = np.clip(w, 0.0, 1.0)
    return hermitize((v * clamped) @ adjoint(v))


def jordan_triple(a, b) -> np.ndarray:
    """Triple product ABA; maps a pair of effects back into [0, I]."""
    matching_dims(a, b)
    return np.asarray(a) @ np.asarray(b) @ np.asarray(a)


def orthocomplement(a) -> np.ndarray:
    """I - A; an involution on effects."""
    m = as_square_array(a)
    return np.eye(m.shape[0], dtype=complex) - m


def partial_add(a, b) -> np.ndarray:
    """A + B where defined, i.e. when the sum stays below I.

    Raises :class:`NotSummableError` when the top eigenvalue of A + B
    exceeds ``1 + DEFAULT_TOL``.
    """
    matching_dims(a, b)
    s = np.asarray(a, dtype=complex) + np.asarray(b, dtype=complex)
    top = eigenvalues_hermitian(s)[-1]
    if top > 1.0 + DEFAULT_TOL:
        raise NotSummableError(f"A + B has top eigenvalue {top:.6f} > 1")
    return s


def leq(a, b, tol: float = DEFAULT_TOL) -> bool:
    """Order predicate A <= B: min eigenvalue of B - A is >= -tol."""
    matching_dims(a, b)
    diff = np.asarray(b, dtype=complex) - np.asarray(a, dtype=complex)
    return bool(eigenvalues_hermitian(diff)[0] >= -tol)


def is_extreme(a) -> bool:
    """True iff the effect is extreme in [0, I], i.e. a projection.

    Checked spectrally: every eigenvalue within ``DEFAULT_TOL`` of {0, 1}.
    """
    w = eigenvalues_hermitian(a)
    return bool(np.all(np.minimum(np.abs(w), np.abs(w - 1.0)) <= DEFAULT_TOL))


def positive_negative_parts(a) -> tuple[np.ndarray, np.ndarray]:
    """Split a Hermitian matrix as A = A_pos - A_neg with both parts psd
    and A_pos A_neg = 0."""
    w, v = eig_hermitian(a)
    pos = hermitize((v * np.clip(w, 0.0, None)) @ adjoint(v))
    neg = hermitize((v * np.clip(-w, 0.0, None)) @ adjoint(v))
    return pos, neg


def real_imag_parts(m) -> tuple[np.ndarray, np.ndarray]:
    """Hermitian pair (H, K) with M = H + iK: H = (M+M*)/2, K = (M-M*)/2i."""
    a = as_square_array(m)
    return hermitize(a), 0.5j * (adjoint(a) - a)


def rank_one_projection(x) -> np.ndarray:
    """Projection x x* onto the span of a vector (renormalized on entry)."""
    v = np.asarray(x, dtype=complex).reshape(-1)
    nrm = np.linalg.norm(v)
    if nrm < 1e-12:
        raise ValueError("cannot project onto the zero vector")
    v = v / nrm
    return np.outer(v, np.conj(v))
