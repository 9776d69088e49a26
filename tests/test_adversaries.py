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

The paper's symmetries form a group under composition, so a verdict may
not depend on which member of the route's family a map is composed with:
recovering phi o Psi for canonical phi and Psi gives compose(phi, Psi), and
every adversary keeps its verdict when composed with a canonical Psi on
either side (ROADMAP item 20).
"""

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from effectsym.extension import EffectMapOracle
from effectsym.linalg import frobenius_norm
from effectsym.recover import CANONICAL, REJECTED, route
from effectsym.sampling import haar_unitary
from effectsym.suites import U_MATCH_TOL
from effectsym.symmetry import (AFFINE, TRIPLE_EFFECTS, TRIPLE_HERMITIAN, apply_symmetry, compose, gauge_normalize,
                                random_symmetry)

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


SEEDS = st.integers(0, 2**32 - 1)
NO_SHRINK = (Phase.explicit, Phase.generate)  # a smaller seed is no simpler map: a failure reports the drawn one


def composed(outer, inner, dim):
    """The black-box map outer o inner; each argument is an oracle or a descriptor."""
    def ask(f, m):
        return f(m) if isinstance(f, EffectMapOracle) else apply_symmetry(f, m)
    return EffectMapOracle(dim, lambda m: ask(outer, ask(inner, m)))


@pytest.mark.parametrize("family", FAMILIES)
@settings(derandomize=True, deadline=None, max_examples=12, phases=NO_SHRINK)
@given(dim=st.sampled_from(DIMS), phi_seed=SEEDS, psi_seed=SEEDS, seed=SEEDS)
def test_recovery_commutes_with_the_symmetry_group(family, dim, phi_seed, psi_seed, seed):
    """Recovering phi o Psi, for canonical phi and Psi of the route's family (kind and
    flag drawn from their seeds), gives compose(recovered phi, Psi): its kind and
    flags, and its unitary within U_MATCH_TOL."""
    phi, psi = random_symmetry(dim, phi_seed, family), random_symmetry(dim, psi_seed, family)
    alone = route(family)(EffectMapOracle.from_descriptor(phi), seed=seed)
    report = route(family)(composed(phi, psi, dim), seed=seed)
    assert alone.canonical and report.canonical, report.reason
    want, got = compose(alone.descriptor, psi), gauge_normalize(report.descriptor)
    assert (got.kind, got.complement, got.sign) == (want.kind, want.complement, want.sign)
    assert frobenius_norm(got.unitary - want.unitary) <= U_MATCH_TOL


@settings(derandomize=True, deadline=None, max_examples=2, phases=NO_SHRINK)
@given(psi_seed=SEEDS)
def test_corpus_verdicts_are_invariant_under_the_symmetry_group(psi_seed):
    """Every pinned case keeps its verdict when its map phi is composed with a
    canonical Psi of the route's family, as phi o Psi and as Psi o phi (each case
    draws its own Psi, kind and flag from ``psi_seed`` plus its index)."""
    for i, (name, dim, family, prefix) in enumerate(case.values for case in CASES):
        phi, psi = CORPUS[name][0](dim), random_symmetry(dim, psi_seed + i, family)
        want = CANONICAL if prefix is None else REJECTED
        for label, composite in (("phi o Psi", composed(phi, psi, dim)), ("Psi o phi", composed(psi, phi, dim))):
            report = route(family)(composite, seed=1)
            assert report.verdict == want, (name, dim, family, label, psi, report.reason)
