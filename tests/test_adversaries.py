"""A corpus of maps that look nearly canonical, with the verdict and the
reason each recovery route gives them at seed 1.

Each adversary fails a different hypothesis of the paper's
characterizations: the partial transpose is linear and positive but not
completely positive, the pinching is linear but collapses projections,
A -> det(A) I keeps the triple identity but not projections, the
depolarizing map sits at distance eps from the identity, and the spectral
map U f(A) U* bends the spectrum by f(x) = (1 - eps) x + eps x^2.  No route
may raise on any of them.

The spectral map is exact on projections, where x^2 = x, so only inputs
with spectrum inside (0, 1) expose it.  At eps = 1e-9 the affine and
triple routes accept it and only the Hermitian route's verify on
unbounded samples refuses it: those cases pin the blind spot that the
ROADMAP's exact reference (item 10) and frontier search (item 12) are
meant to close.
"""

import numpy as np
import pytest

from effectsym.extension import EffectMapOracle
from effectsym.recover import CANONICAL, REJECTED, route
from effectsym.sampling import haar_unitary
from effectsym.symmetry import AFFINE, TRIPLE_EFFECTS, TRIPLE_HERMITIAN

FAMILIES = (AFFINE, TRIPLE_EFFECTS, TRIPLE_HERMITIAN)
DIMS = (3, 4, 6)


def partial_transpose(dim):
    """Transpose of the first factor of C^2 (x) C^(dim/2)."""
    half = dim // 2
    return EffectMapOracle(
        dim, lambda a: a.reshape(2, half, 2, half).transpose(2, 1, 0, 3).reshape(dim, dim))


def pinching(dim):
    """A -> sum_k P_k A P_k for the rank-one projections of a Haar basis."""
    u = haar_unitary(dim, 1)
    return EffectMapOracle(dim, lambda a: u @ np.diag(np.diag(u.conj().T @ a @ u)) @ u.conj().T)


def determinant(dim):
    return EffectMapOracle(dim, lambda a: np.linalg.det(a) * np.eye(dim))


def depolarizing(eps):
    def build(dim):
        return EffectMapOracle(dim, lambda a: (1 - eps) * a + eps * np.trace(a) * np.eye(dim) / dim)
    return build


def spectral(eps):
    def build(dim):
        u = haar_unitary(dim, 2)
        return EffectMapOracle(dim, lambda a: u @ ((1 - eps) * a + eps * (a @ a)) @ u.conj().T)
    return build


TRIPLE = "triple identity violated"
PROBE = "projection-structure probe failed"

# adversary: (build, dims, reason prefix per route, None for canonical)
CORPUS = {
    "partial_transpose": (partial_transpose, (4, 6),
                          ("phase alignment degenerate", TRIPLE, TRIPLE)),
    "pinching": (pinching, DIMS, ("image of basis projection 0", TRIPLE, TRIPLE)),
    "determinant": (determinant, DIMS, ("map is not affine", PROBE, PROBE)),
    "depolarizing_1e-7": (depolarizing(1e-7), DIMS,
                          ("reconstruction verification failed", TRIPLE, TRIPLE)),
    "depolarizing_1e-10": (depolarizing(1e-10), DIMS, (None, None, None)),
    "spectral_1e-7": (spectral(1e-7), DIMS, ("map is not affine", TRIPLE, TRIPLE)),
    "spectral_1e-9": (spectral(1e-9), DIMS, (None, None, "canonical-form residual")),
}

CASES = [
    pytest.param(name, dim, family, prefix, id=f"{name}-d{dim}-{route(family).__name__}")
    for name, (_, dims, prefixes) in CORPUS.items()
    for dim in dims
    for family, prefix in zip(FAMILIES, prefixes)
]


@pytest.mark.parametrize("name, dim, family, prefix", CASES)
def test_adversary_verdict_and_reason(name, dim, family, prefix):
    report = route(family)(CORPUS[name][0](dim), seed=1)
    if prefix is None:
        assert report.verdict == CANONICAL, report.reason
    else:
        assert report.verdict == REJECTED
        assert report.reason.startswith(prefix), report.reason
