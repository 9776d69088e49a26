"""Black-box oracles over effects and their linear extension.

An :class:`EffectMapOracle` wraps an arbitrary deterministic evaluator
from effects to Hermitian matrices; a map derived from one, such as
A -> phi(A) - phi(0), is the oracle ``phi.then(f)``.  A query validates
its input once (``as_square_array``), calls the evaluator once and
raises :class:`OracleError` unless the answer reads as a complex array
of the input's shape; ``phi.answers(stack)`` asks each matrix of a stack
so, in order, and returns the answers as one array.  The oracles built
from a descriptor or an affine-map rep hold an evaluator bound once to
that map (its flags, or its gather tables and constant, read at
construction) and evaluate the validated input directly.  For an oracle
that is affine and fixes 0, :func:`extend_linear` evaluates the unique
linear extension to all square matrices along one path: split M into Re M and
Im M, split each into its positive and negative parts, so that
M = A1 - A2 + i(A3 - A4) with every Aj psd, and scale each part into
[0, I] by its spectral norm:

    ext(M) = ext(A1) - ext(A2) + i * (ext(A3) - ext(A4)),
    ext(A) = ||A|| * phi(A / ||A||).

The spectral norm is the right normalizer: for psd A the rescaled
A/||A|| stays inside [0, I], which a Frobenius rescaling would not
guarantee.  Linearity of the result is a property checked on samples
by :func:`linearity_defect`, not an assumption.

The extension runs on stacks: per chunk of ``EXTEND_CHUNK = 24``
matrices, one ``linalg.psd_parts`` gives the parts, one stacked
spectral norm their scales and one division the rescaled parts (numpy
divides a complex entry by a real norm entry by entry, so the bits are
those of one part at a time), and the oracle is then asked for A1..A4 of
each matrix in turn through :meth:`EffectMapOracle.answers`, in the order
a per-matrix loop would ask.  One multiply scales the answers by their
norms (a real array runs the complex multiply a Python float does) and
one expression recombines them.
:func:`extend_linear` and :func:`unit_ball_decomposition`
are the one-matrix case; :func:`linearity_defect` and :func:`boundedness_check`
extend all their samples as one stack, since they query every sample
whatever the answers.  Their norms come from one ``frobenius_norms``
pass and are folded with a max, bit for bit as in the per-matrix loop.
:func:`is_affine` is the identity walk (:func:`_identity_walk`) on the
convex form, forming each block's lam*A + (1 - lam)*B as one stack (a
float64 lam column runs the complex multiply a Python float does); the
triple identity of :mod:`effectsym.recover` is the same walk on ABA.  The
affine route runs the convex walk as ``_affine_walk``, with its φ(0) check
and rebuild in the walk's hook after the first trial.

The extension checks fail closed on NaN: their comparisons are written
``not (x <= bound)`` and their folds are :func:`nan_max`, so an oracle
whose phi(0) or whose answers are NaN is refused or gets a NaN defect,
never a clean one.  The identity walk is the exception ROADMAP item 1
leaves for a benchmark change: it passes over a NaN deviation.

Sample counts and tolerances are module constants: :func:`is_affine`
probes ``AFFINE_PROBE_TRIALS = 64`` convex triples against
``PROBE_TOL = 1e-9``, :func:`boundedness_check` takes the maximum over
``BOUNDEDNESS_TRIALS = 32`` random effects, and :func:`extend_linear`
requires ``||phi(0)||_F <= DEFAULT_TOL = 1e-9``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .linalg import (DEFAULT_TOL, adjoint, as_square_array, frobenius_norm, frobenius_norms, hermitize, nan_max,
                     operator_norm, psd_parts)
from .rng import Stream, _box_muller, _unit_floats
from .sampling import random_effects
from .symmetry import AffineMapRep, SymmetryDescriptor, _affine_evaluator, _symmetry_evaluator

ZERO_NORM_CUTOFF = 1e-12
PROBE_TOL = 1e-9
AFFINE_PROBE_TRIALS = 64
BOUNDEDNESS_TRIALS = 32
EXTEND_CHUNK = 24  # matrices per stacked eigh; bounds the temporaries, not the result


class OracleError(ValueError):
    """An oracle answered ``query`` with something other than a dim x dim matrix."""

    def __init__(self, message: str, query: np.ndarray):
        super().__init__(message)
        self.query = query


@dataclass(frozen=True)
class EffectMapOracle:
    """Deterministic black-box map from effects to Hermitian matrices."""

    dim: int
    evaluator: Callable[[np.ndarray], np.ndarray]
    label: str = field(default="", compare=False)

    def __call__(self, a) -> np.ndarray:
        return self._answer(as_square_array(a, self.dim))

    def _answer(self, m: np.ndarray) -> np.ndarray:
        """phi(m) for a validated m; :class:`OracleError` unless it is a dim x dim complex array."""
        answer = self.evaluator(m)
        try:
            out = np.asarray(answer, dtype=complex)
        except (TypeError, ValueError, OverflowError):
            raise OracleError(f"oracle output of type {type(answer).__name__} is not a complex array", m.copy())
        if out.shape != m.shape:
            raise OracleError(f"oracle output has shape {out.shape}, expected {m.shape}", m.copy())
        return out

    def answers(self, stack: np.ndarray) -> np.ndarray:
        """phi of each matrix of ``stack``, asked one query at a time (``self(m)``,
        the call a query counter wraps) in order, as one complex array of the
        stack's shape; an :class:`OracleError` at one answer asks nothing after it.
        The one way a stage that asks every sample, whatever the answers, asks."""
        return np.array([self(m) for m in stack], dtype=complex).reshape(np.shape(stack))

    def then(self, f: Callable[[np.ndarray], np.ndarray]) -> "EffectMapOracle":
        """The oracle A -> f(phi(A)); phi's answer is shape-checked before ``f`` sees it."""
        return EffectMapOracle(self.dim, lambda m: f(self._answer(m)), label=self.label)

    # __call__ has validated the input, so the evaluators skip the checks.
    @classmethod
    def from_descriptor(cls, d: SymmetryDescriptor) -> "EffectMapOracle":
        return cls(d.dim, _symmetry_evaluator(d), label="descriptor")

    @classmethod
    def from_affine_rep(cls, rep: AffineMapRep) -> "EffectMapOracle":
        return cls(rep.dim, _affine_evaluator(rep), label="affine_rep")


@dataclass(frozen=True)
class AffinityResult:
    """Outcome of the convex-combination probe.

    ``witness`` is the first violating (lam, A, B) triple; the probe passed
    iff there is none.  ``max_deviation`` is the largest defect seen.
    """

    max_deviation: float
    witness: tuple[float, np.ndarray, np.ndarray] | None = None

    def __bool__(self) -> bool:
        return self.witness is None


def _identity_walk(phi: EffectMapOracle, seed: int, trials: int, lead: int, form, combine, after_first=None):
    """(worst deviation, first violating ``(*t, A, B)`` or None) of the identity
    phi(form(t, A, B)) = combine(*t, phi(A), phi(B)) over ``trials`` draws from
    ``Stream(seed)``: ``lead`` uniforms t in [0, 1), as ``Stream.uniform`` maps
    them, then two outputs seeding effects A and B.  It draws one trial, then
    blocks of at most 32 (a map refused at once costs one draw, and a block's
    stacks stay small at d = 16), ``form`` building a block's inputs as one
    stack; per trial it asks phi(input), phi(A), phi(B) and stops at the first
    deviation above ``PROBE_TOL``.  It passes over a NaN deviation, since the
    bench pins that acceptance until ROADMAP item 1's benchmark change.

    ``after_first``, when given, is called once with no arguments after the
    first trial passes and before the next block is drawn; whatever it raises
    ends the walk.  The affine route runs its cheap refusals there, so a map
    they refuse never pays for the rest of the walk; the walk's draws, queries
    and result are those of a walk without it."""
    stream, worst, done = Stream(seed), 0.0, 0
    while done < trials:
        n = min(32 if done else 1, trials - done)
        raw = stream.u64_block((lead + 2) * n).reshape(n, lead + 2)
        heads = _unit_floats(raw[:, :lead])
        ab = random_effects(phi.dim, raw[:, lead:].ravel())
        a_block, b_block = ab[0::2], ab[1::2]
        for head, x, a, b in zip(heads.tolist(), form(heads, a_block, b_block), a_block, b_block):
            dev = frobenius_norm(phi(x) - combine(*head, phi(a), phi(b)))
            # ROADMAP item 1: this max and this > pass over a NaN, and the bench pins both
            worst = max(worst, dev)
            if dev > PROBE_TOL:
                return worst, (*head, a.copy(), b.copy())
        if not done and after_first is not None:
            after_first()
        done += n
    return worst, None


def is_affine(phi: EffectMapOracle, seed: int = 0) -> AffinityResult:
    """Probe phi(lam*A + (1-lam)*B) = lam*phi(A) + (1-lam)*phi(B) on
    random triples; stop at the first violation."""
    return _affine_walk(phi, seed)


def _affine_walk(phi: EffectMapOracle, seed: int, after_first=None) -> AffinityResult:
    """:func:`is_affine`, calling ``after_first`` once its first trial passes
    (see :func:`_identity_walk`)."""
    return AffinityResult(*_identity_walk(
        phi, seed, AFFINE_PROBE_TRIALS, 1,
        lambda lams, a, b: lams[..., None] * a + (1.0 - lams[..., None]) * b,
        lambda lam, phi_a, phi_b: lam * phi_a + (1.0 - lam) * phi_b, after_first))


def extend_linear(phi: EffectMapOracle, m) -> np.ndarray:
    """Linear extension of an affine, zero-fixing oracle to any matrix.

    Requires ``||phi(0)||_F <= DEFAULT_TOL``; affinity itself is the
    caller's responsibility (probe with :func:`is_affine` first).
    """
    _require_fixes_zero(phi)
    return _extend(phi, as_square_array(m, phi.dim)[None])[0]


def _require_fixes_zero(phi: EffectMapOracle) -> None:
    z = frobenius_norm(phi(np.zeros((phi.dim, phi.dim))))
    if not z <= DEFAULT_TOL:
        raise ValueError(f"oracle does not fix 0 (||phi(0)|| = {z:.3e})")


def _psd_parts(mats: np.ndarray) -> np.ndarray:
    """Stack of (A1, A2, A3, A4), all psd, with mats[k] = A1 - A2 + i(A3 - A4):
    the positive and negative parts of Re M and Im M, from one ``eigh``."""
    pos, neg = psd_parts(np.stack((hermitize(mats), 0.5j * (adjoint(mats) - mats)), axis=1))
    return np.stack((pos, neg), axis=2).reshape(len(mats), 4, *mats.shape[1:])


def _extend(phi: EffectMapOracle, mats: np.ndarray) -> np.ndarray:
    """:func:`extend_linear` of each matrix of a validated stack, for an
    oracle already known to fix 0.  Parts and norms are computed
    ``EXTEND_CHUNK`` matrices at a time; the oracle is asked for A1..A4
    of each matrix in turn; its answers are scaled and recombined stacked."""
    out = np.empty(mats.shape, dtype=complex)
    for start in range(0, len(mats), EXTEND_CHUNK):
        parts = _psd_parts(mats[start:start + EXTEND_CHUNK])
        norms = np.linalg.norm(parts, 2, axis=(-2, -1))
        # each part over its own norm, as one division; a part below the cutoff is never asked
        small = norms < ZERO_NORM_CUTOFF
        answers = np.zeros(parts.shape, dtype=complex)  # a finite norm times 0 is +0, as a zero image
        answers[~small] = phi.answers(parts[~small] / norms[~small][:, None, None])  # row-major, as a loop asks
        a1, a2, a3, a4 = (norms[..., None, None] * answers).swapaxes(0, 1)
        out[start:start + EXTEND_CHUNK] = (a1 - a2) + 1j * (a3 - a4)
    return out


def linearity_defect(phi: EffectMapOracle, stream: Stream, probes: int) -> float:
    """Worst ||ext(aM + bN) - a ext(M) - b ext(N)|| / (||M|| + ||N||)
    over ``probes`` (an integer, at least 1) draws from ``stream`` of Gaussian
    M, N and a, b uniform on [-2, 2]; ``phi`` must fix 0 (checked once).

    Each probe draws M, N, a, b in that order, all probes in one block;
    aM + bN, M and N of each probe are extended in that order."""
    _require_count(probes, "probes")
    _require_fixes_zero(phi)
    dim = phi.dim
    width = 4 * dim * dim + 2
    raw = stream.u64_block(probes * width).reshape(probes, width)
    re, im = _box_muller(raw[:, :-2].reshape(2 * probes, 2 * dim * dim))
    m, n = (re + 1j * im).reshape(probes, 2, dim, dim).swapaxes(0, 1)
    a, b = (-2.0 + 4.0 * _unit_floats(raw[:, -2:])).T[..., None, None]
    ext = _extend(phi, np.stack((a * m + b * n, m, n), axis=1).reshape(-1, dim, dim))
    lhs, em, en = ext.reshape(probes, 3, dim, dim).swapaxes(0, 1)
    defects = frobenius_norms(lhs - (a * em + b * en)) / (frobenius_norms(m) + frobenius_norms(n))
    return nan_max(0.0, *defects.tolist())


def _require_count(n, what: str) -> None:
    """Refuse ``n`` unless it is an integer (not a bool; numpy's are) of at least 1."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral):
        raise ValueError(f"{what} must be an integer, got {n!r}")
    if n < 1:
        raise ValueError(f"{what} must be at least 1")


def boundedness_check(phi: EffectMapOracle, seed: int = 0) -> float:
    """Max spectral norm of the recentered extension over random effects.

    Recentered means psi(A) = phi(A) - phi(0).  For any oracle that maps
    effects into effects the returned value cannot exceed 2 (triangle
    inequality through phi(0)), which makes this a cheap sanity screen
    for range violations.  An extension with a non-finite entry has no
    spectral norm; the result is then NaN, which fails every bound.
    """
    zero_img = phi(np.zeros((phi.dim, phi.dim)))
    psi = phi.then(lambda x: x - zero_img)  # psi(0) is exactly 0
    ext = _extend(psi, random_effects(phi.dim, Stream(seed).u64_block(BOUNDEDNESS_TRIALS)))
    if np.count_nonzero(np.isfinite(ext)) != ext.size:
        return math.nan
    return nan_max(0.0, *np.linalg.norm(ext, 2, axis=(-2, -1)).tolist())


def unit_ball_decomposition(m) -> tuple[np.ndarray, ...]:
    """Write a matrix of spectral norm <= 1 (up to ``DEFAULT_TOL``) as
    A1 - A2 + i(A3 - A4) with all four pieces effects; recomposition is
    exact to rounding."""
    mat = as_square_array(m)
    nrm = operator_norm(mat)
    if not nrm <= 1.0 + DEFAULT_TOL:
        raise ValueError(f"matrix has spectral norm {nrm:.6f} > 1")
    return tuple(_psd_parts(mat[None])[0])
