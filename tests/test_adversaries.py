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
from hypothesis import Phase, event, given, settings
from hypothesis import strategies as st

from effectsym.extension import AFFINE_PROBE_TRIALS, EffectMapOracle
from effectsym.linalg import frobenius_norm
from effectsym.recover import CANONICAL, REJECTED, recover_affine, route
from effectsym.sampling import haar_unitary
from effectsym.suites import U_MATCH_TOL, perturbed_conjugation_oracle
from effectsym.symmetry import (AFFINE, TRIPLE_EFFECTS, TRIPLE_HERMITIAN, apply_symmetry, compose, gauge_normalize,
                                random_symmetry)
from test_recover import old_order_recover_affine, report_bytes

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

# adversary: oracle queries to the verdict per route, one count per dim; no
# adversary's count may rise (ROADMAP item 4)
QUERIES_TO_VERDICT = {
    "partial_transpose": ((11, 14), (3, 3), (4, 4)),
    "pinching": ((5, 5, 5), (3, 3, 3), (4, 4, 4)),
    "determinant": ((3, 3, 3), (144, 144, 144), (145, 145, 145)),
    "depolarizing_1e-7": ((30, 32, 36), (3, 3, 3), (4, 4, 4)),
    "depolarizing_1e-10": ((319, 321, 325), (288, 290, 294), (389, 391, 395)),
    "spectral_1e-7": ((3, 3, 3), (3, 3, 3), (4, 4, 4)),
    "spectral_1e-9": ((319, 321, 325), (288, 290, 294), (389, 391, 395)),
}

CASES = [
    pytest.param(name, dim, family, prefix, id=f"{name}-d{dim}-{route(family).__name__}")
    for name, (_, dims, prefixes) in CORPUS.items()
    for dim in dims
    for family, prefix in zip(FAMILIES, prefixes)
]


@pytest.mark.parametrize("name, dim, family, prefix", CASES)
def test_adversary_verdict_and_reason(name, dim, family, prefix, oracle_queries):
    report = route(family)(CORPUS[name][0](dim), seed=1)
    if prefix is None:
        assert report.verdict == CANONICAL, report.reason
    else:
        assert report.verdict == REJECTED
        assert report.reason.startswith(prefix), report.reason
    assert len(oracle_queries) == QUERIES_TO_VERDICT[name][FAMILIES.index(family)][CORPUS[name][1].index(dim)]


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


CORRUPTIONS = {
    "NaN": lambda x: np.full(x.shape, np.nan),
    "times 1e300": lambda x: x * 1e300,
    "non-Hermitian": lambda x: x + np.triu(np.ones(x.shape), 1),
    "wrong shape": lambda x: np.eye(len(x) + 1),
}


def corrupted_at(d, query, corrupt):
    """The descriptor's map with its answer to the input ``query`` (bytes) passed through ``corrupt``."""
    def evaluate(m):
        out = apply_symmetry(d, m)
        return corrupt(out) if m.tobytes() == query else out
    return evaluate


@st.composite
def affine_route_cases(draw):
    """(label, map, recovery seed): a corpus map composed with a canonical Psi on
    either side, a reject_mix map (a perturbed conjugation, the shift A -> A + I,
    a canonical map that answers NaN when tr A > 1.5), or a canonical map with
    the answer to one input its recovery asks corrupted."""
    source, seed = draw(st.sampled_from(("corpus", "perturbed", "shift", "nan_above_trace", "corrupted"))), draw(SEEDS)
    if source == "corpus":
        name = draw(st.sampled_from(sorted(CORPUS)))
        dim = draw(st.sampled_from(CORPUS[name][1]))
        phi, psi = CORPUS[name][0](dim), random_symmetry(dim, draw(SEEDS), AFFINE)
        if draw(st.booleans()):
            return f"{name} o Psi", composed(phi, psi, dim), seed
        return f"Psi o {name}", composed(psi, phi, dim), seed
    dim = draw(st.sampled_from((4, 5, 6)))
    if source == "perturbed":
        return source, perturbed_conjugation_oracle(dim, draw(SEEDS), 1e-2), seed
    if source == "shift":
        return source, EffectMapOracle(dim, lambda a: a + np.eye(dim)), seed
    d = random_symmetry(dim, draw(SEEDS), AFFINE)
    if source == "nan_above_trace":
        return source, EffectMapOracle(
            dim, lambda a: np.full((dim, dim), np.nan) if np.trace(a).real > 1.5 else apply_symmetry(d, a)), seed
    asked = []
    recover_affine(EffectMapOracle(dim, lambda m: asked.append(m.tobytes()) or apply_symmetry(d, m)), seed=seed)
    corruption = draw(st.sampled_from(sorted(CORRUPTIONS)))
    query = asked[draw(st.integers(0, len(asked) - 1))]
    return f"{corruption} answer", EffectMapOracle(dim, corrupted_at(d, query, CORRUPTIONS[corruption])), seed


def counted(phi):
    """``phi`` and a list that grows by one entry per query it is asked."""
    calls = []
    return EffectMapOracle(phi.dim, lambda m: calls.append(1) or phi(m)), calls


@settings(derandomize=True, deadline=None, max_examples=120, phases=NO_SHRINK)
@given(case=affine_route_cases())
def test_affine_route_fails_closed_in_either_stage_order(case):
    """The affine route in its stage order (the walk's first trial, φ(0), the rebuild,
    the walk's other trials, the verify) gives the verdict of the former order (the
    whole walk first), and the same report bytes unless the former order refused in
    the walk after its first trial, where the new order may refuse at φ(0) or in the
    rebuild first; the statistics count those cases."""
    label, phi, seed = case
    with np.errstate(all="ignore"):  # corrupted answers make NaN and infinite products
        new, new_calls = counted(phi)
        report = recover_affine(new, seed=seed)
        old, old_calls = counted(phi)
        ref = old_order_recover_affine(old, seed=seed)
    assert report.verdict == ref.verdict, (label, report.reason, ref.reason)
    if 3 < len(old_calls) <= 3 * AFFINE_PROBE_TRIALS:  # refused in the walk after its first trial
        event("the former order refused in the walk after its first trial")
        assert report.verdict == REJECTED, label
        if report.reason != ref.reason:
            event(f"reason changed: {label}")
    else:  # the same stages refuse or pass; φ(0) and the rebuild refuse before the walk's last 63 trials
        assert report_bytes(report) == report_bytes(ref), label
        assert len(new_calls) <= len(old_calls), label
