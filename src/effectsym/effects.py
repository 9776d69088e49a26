"""The operator interval [0, I]: effects, projections, and their algebra.

Effects and projections are plain Hermitian ``numpy`` arrays; the
constructor :func:`as_effect` validates and clamps a candidate matrix
and hands back a clean copy.  Operations assume validated inputs and do
not re-check spectra, so the hot paths stay cheap; closure properties
are enforced by the callers that need them and by the test suites.
``as_effect``, ``partial_add`` and ``is_extreme`` bound spectra within
``linalg.DEFAULT_TOL = 1e-9``, the tolerance of every Hermiticity check
here too; ``leq`` takes its tolerance as an argument, with that default.
Each bound is written ``not (x <= bound)``, so it refuses a NaN spectrum,
which a finite input whose doubled entries overflow (say diag(1e308, 0))
gets from the symmetrized matrix it is factored as; ``leq`` and
``positive_negative_parts`` raise ``ValueError`` on such input too, where
they would return False or NaN parts.
"""

from __future__ import annotations

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    as_square_array,
    eig_hermitian,
    eigenvalues_hermitian,
    frobenius_norm,
    from_spectrum,
    psd_parts,
    require_hermitian,
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
    if not (-DEFAULT_TOL <= w[0] and w[-1] <= 1.0 + DEFAULT_TOL):  # true on NaN
        raise ValueError(
            f"matrix is not an effect: eigenvalues span [{w[0]:.3e}, {w[-1]:.3e}]"
        )
    return from_spectrum(v, np.clip(w, 0.0, 1.0))


def jordan_triple(a, b) -> np.ndarray:
    """Triple product ABA; maps a pair of effects back into [0, I]."""
    ma = as_square_array(a)
    mb = as_square_array(b, len(ma))
    return ma @ mb @ ma


def orthocomplement(a) -> np.ndarray:
    """I - A; an involution on effects."""
    m = as_square_array(a)
    return np.eye(m.shape[0], dtype=complex) - m


def partial_add(a, b) -> np.ndarray:
    """A + B where defined, i.e. when the sum stays below I.

    Raises :class:`NotSummableError` when the top eigenvalue of A + B
    exceeds ``1 + DEFAULT_TOL``.
    """
    ma = as_square_array(a)
    s = ma + as_square_array(b, len(ma))
    top = eigenvalues_hermitian(s)[-1]
    if not top <= 1.0 + DEFAULT_TOL:  # true on NaN
        raise NotSummableError(f"A + B has top eigenvalue {top:.6f} > 1")
    return s


def leq(a, b, tol: float = DEFAULT_TOL) -> bool:
    """Order predicate A <= B: min eigenvalue of B - A is >= -tol.  Raises
    ``ValueError`` when that eigenvalue is not finite (the doubled entries of
    B - A overflow), rather than read it as an order that fails."""
    ma = as_square_array(a)
    least = eigenvalues_hermitian(as_square_array(b, len(ma)) - ma)[0]
    if not np.isfinite(least):
        raise ValueError(f"B - A has no finite least eigenvalue (got {least})")
    return bool(least >= -tol)


def is_extreme(a) -> bool:
    """True iff the effect is extreme in [0, I], i.e. a projection.

    Checked spectrally: every eigenvalue within ``DEFAULT_TOL`` of {0, 1}.
    """
    w = eigenvalues_hermitian(a)
    return bool(np.all(np.minimum(np.abs(w), np.abs(w - 1.0)) <= DEFAULT_TOL))


def positive_negative_parts(a) -> tuple[np.ndarray, np.ndarray]:
    """Split a Hermitian matrix as A = A_pos - A_neg with both parts psd
    and A_pos A_neg = 0.  A part with a non-finite entry (the input's doubled
    entries overflow) is refused with ``ValueError`` by ``as_square_array``."""
    return tuple(as_square_array(part) for part in psd_parts(require_hermitian(a)))


def rank_one_projection(x) -> np.ndarray:
    """Projection x x* onto the span of a vector (renormalized on entry);
    a zero vector or one whose norm is not finite is refused."""
    v = np.asarray(x, dtype=complex).reshape(-1)
    with np.errstate(over="ignore"):  # a norm that overflows is inf, refused below
        nrm = frobenius_norm(v)
    if not 1e-12 <= nrm < np.inf:  # false on NaN
        raise ValueError(f"cannot project onto a zero or non-finite vector (norm {nrm})")
    v = v / nrm
    return np.outer(v, np.conj(v))
