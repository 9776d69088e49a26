"""Black-box oracles over effects and their linear extension.

An :class:`EffectMapOracle` wraps an arbitrary deterministic evaluator
from effects to Hermitian matrices.  For an oracle that is affine and
fixes 0, :func:`extend_linear` evaluates the unique linear extension to
all square matrices through the three-stage ladder

    positives:      ext(A) = ||A|| * phi(A / ||A||)      (spectral norm)
    self-adjoints:  ext(H) = ext(H_pos) - ext(H_neg)
    general:        ext(M) = ext(Re M) + i * ext(Im M)

The spectral norm is the right normalizer: for psd A the rescaled
A/||A|| stays inside [0, I], which a Frobenius rescaling would not
guarantee.  Linearity of the result is a property the test suites
check on samples, not an assumption.

Sample counts and tolerances are module constants: :func:`is_affine`
probes ``AFFINE_PROBE_TRIALS = 64`` convex triples against
``PROBE_TOL = 1e-9``, :func:`boundedness_check` takes the maximum over
``BOUNDEDNESS_TRIALS = 32`` random effects, and :func:`extend_linear`
requires ``||phi(0)||_F <= DEFAULT_TOL = 1e-9``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .effects import positive_negative_parts, real_imag_parts
from .linalg import DEFAULT_TOL, as_square_array, frobenius_norm, operator_norm
from .rng import Stream
from .sampling import random_effect
from .symmetry import AffineMapRep, SymmetryDescriptor, _apply_affine_rep, _apply_symmetry

ZERO_NORM_CUTOFF = 1e-12
PROBE_TOL = 1e-9
AFFINE_PROBE_TRIALS = 64
BOUNDEDNESS_TRIALS = 32


@dataclass(frozen=True)
class EffectMapOracle:
    """Deterministic black-box map from effects to Hermitian matrices."""

    dim: int
    evaluator: Callable[[np.ndarray], np.ndarray]
    label: str = field(default="", compare=False)

    def __call__(self, a) -> np.ndarray:
        m = as_square_array(a)
        if m.shape[0] != self.dim:
            raise ValueError(f"oracle expects dim {self.dim}, got {m.shape[0]}")
        return np.asarray(self.evaluator(m), dtype=complex)

    # __call__ has validated the input, so the evaluators skip the checks.
    @classmethod
    def from_descriptor(cls, d: SymmetryDescriptor) -> "EffectMapOracle":
        return cls(d.dim, lambda m: _apply_symmetry(d, m), label="descriptor")

    @classmethod
    def from_affine_rep(cls, rep: AffineMapRep) -> "EffectMapOracle":
        return cls(rep.dim, lambda m: _apply_affine_rep(rep, m), label="affine_rep")


@dataclass(frozen=True)
class AffinityResult:
    """Outcome of the convex-combination probe.

    ``witness`` is the first violating (lam, A, B) triple, if any;
    ``max_deviation`` is the largest Frobenius defect seen.
    """

    ok: bool
    max_deviation: float
    witness: tuple[float, np.ndarray, np.ndarray] | None = None

    def __bool__(self) -> bool:
        return self.ok


def is_affine(phi: EffectMapOracle, seed: int = 0) -> AffinityResult:
    """Probe phi(lam*A + (1-lam)*B) = lam*phi(A) + (1-lam)*phi(B) on
    random triples; stop at the first violation."""
    s = Stream(seed)
    worst = 0.0
    for _ in range(AFFINE_PROBE_TRIALS):
        lam = s.uniform()
        a = random_effect(phi.dim, s.next_u64())
        b = random_effect(phi.dim, s.next_u64())
        lhs = phi(lam * a + (1.0 - lam) * b)
        rhs = lam * phi(a) + (1.0 - lam) * phi(b)
        dev = frobenius_norm(lhs - rhs)
        worst = max(worst, dev)
        if dev > PROBE_TOL:
            return AffinityResult(False, worst, (lam, a, b))
    return AffinityResult(True, worst)


def _extend_positive(phi: EffectMapOracle, a: np.ndarray) -> np.ndarray:
    nrm = operator_norm(a)
    if nrm < ZERO_NORM_CUTOFF:
        return np.zeros((phi.dim, phi.dim), dtype=complex)
    return nrm * phi(a / nrm)


def _extend_selfadjoint(phi: EffectMapOracle, h: np.ndarray) -> np.ndarray:
    pos, neg = positive_negative_parts(h)
    return _extend_positive(phi, pos) - _extend_positive(phi, neg)


def extend_linear(phi: EffectMapOracle, m) -> np.ndarray:
    """Linear extension of an affine, zero-fixing oracle to any matrix.

    Requires ``||phi(0)||_F <= DEFAULT_TOL``; affinity itself is the
    caller's responsibility (probe with :func:`is_affine` first).
    """
    z = frobenius_norm(phi(np.zeros((phi.dim, phi.dim))))
    if z > DEFAULT_TOL:
        raise ValueError(f"oracle does not fix 0 (||phi(0)|| = {z:.3e})")
    mat = as_square_array(m)
    if mat.shape[0] != phi.dim:
        raise ValueError(f"dimension mismatch: oracle {phi.dim}, input {mat.shape[0]}")
    re, im = real_imag_parts(mat)
    return _extend_selfadjoint(phi, re) + 1j * _extend_selfadjoint(phi, im)


def boundedness_check(phi: EffectMapOracle, seed: int = 0) -> float:
    """Max spectral norm of the recentered extension over random effects.

    Recentered means psi(A) = phi(A) - phi(0).  For any oracle that maps
    effects into effects the returned value cannot exceed 2 (triangle
    inequality through phi(0)), which makes this a cheap sanity screen
    for range violations.
    """
    zero_img = phi(np.zeros((phi.dim, phi.dim)))
    # One validation per query: recenter phi's evaluator, not phi itself.
    psi = EffectMapOracle(
        phi.dim, lambda m: np.asarray(phi.evaluator(m), dtype=complex) - zero_img, label="recentered"
    )
    s = Stream(seed)
    worst = 0.0
    for _ in range(BOUNDEDNESS_TRIALS):
        a = random_effect(phi.dim, s.next_u64())
        worst = max(worst, operator_norm(extend_linear(psi, a)))
    return worst


def unit_ball_decomposition(m) -> tuple[np.ndarray, ...]:
    """Write a matrix of spectral norm <= 1 (up to ``DEFAULT_TOL``) as
    A1 - A2 + i(A3 - A4) with all four pieces effects; recomposition is
    exact to rounding."""
    mat = as_square_array(m)
    nrm = operator_norm(mat)
    if nrm > 1.0 + DEFAULT_TOL:
        raise ValueError(f"matrix has spectral norm {nrm:.6f} > 1")
    re, im = real_imag_parts(mat)
    a1, a2 = positive_negative_parts(re)
    a3, a4 = positive_negative_parts(im)
    return a1, a2, a3, a4
