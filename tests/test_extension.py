import math

import numpy as np
import pytest

from effectsym.effects import positive_negative_parts
from effectsym.extension import (
    BOUNDEDNESS_TRIALS,
    ZERO_NORM_CUTOFF,
    EffectMapOracle,
    OracleError,
    boundedness_check,
    extend_linear,
    is_affine,
    linearity_defect,
    unit_ball_decomposition,
)
from effectsym.linalg import adjoint, frobenius_norm, hermitize, nan_max, operator_norm
from effectsym.rng import Stream
from effectsym.sampling import complex_gaussian, haar_unitary, random_effect
from effectsym.symmetry import (
    AFFINE,
    ANTIUNITARY,
    TRIPLE_HERMITIAN,
    UNITARY,
    apply_affine_rep,
    apply_symmetry,
    random_symmetry,
    to_affine_rep,
)


def identity_oracle(dim):
    return EffectMapOracle(dim, lambda a: np.asarray(a, dtype=complex))


def complement_oracle(dim):
    eye = np.eye(dim, dtype=complex)
    return EffectMapOracle(dim, lambda a: eye - np.asarray(a, dtype=complex))


def test_oracle_dim_check():
    phi = identity_oracle(3)
    with pytest.raises(ValueError):
        phi(np.eye(2))


def wrong_size_entry_points():
    d = random_symmetry(3, 1, family=AFFINE, complement=False)
    phi = EffectMapOracle.from_descriptor(d)
    return {
        "oracle": phi,
        "apply_symmetry": lambda m: apply_symmetry(d, m),
        "apply_affine_rep": lambda m: apply_affine_rep(to_affine_rep(d), m),
        "extend_linear": lambda m: extend_linear(phi, m),
    }


@pytest.mark.parametrize("entry", ["oracle", "apply_symmetry", "apply_affine_rep", "extend_linear"])
@pytest.mark.parametrize("bad", [np.eye(2), np.eye(4), np.ones((3, 2)), np.ones(3), np.ones((2, 3, 3))])
def test_every_entry_point_refuses_a_wrong_size_input(entry, bad):
    with pytest.raises(ValueError, match=r"expected a 3 x 3 matrix, got shape"):
        wrong_size_entry_points()[entry](bad)


def _with_entry(value):
    m = np.eye(4, dtype=complex) / 2
    m[1, 2] = value
    return m


# Every input a query refuses, with the exception it raises.  A stack stays
# refused: answering one would count one query for k inputs.
QUERY_REFUSALS = {
    "stack": (np.array([np.eye(4), np.eye(4)]) / 2, "expected a 4 x 4 matrix, got shape (2, 4, 4)"),
    "stack of one": (np.eye(4)[None] / 2, "expected a 4 x 4 matrix, got shape (1, 4, 4)"),
    "0-d": (np.float64(0.5), "expected a 4 x 4 matrix, got shape ()"),
    "1-d": (np.ones(4), "expected a 4 x 4 matrix, got shape (4,)"),
    "non-square": (np.ones((4, 3)), "expected a 4 x 4 matrix, got shape (4, 3)"),
    "wrong size": (np.eye(3), "expected a 4 x 4 matrix, got shape (3, 3)"),
    "wrong-size list": ([[1, 0], [0, 1]], "expected a 4 x 4 matrix, got shape (2, 2)"),
    "nan": (_with_entry(np.nan), "matrix has non-finite entries"),
    "inf": (_with_entry(np.inf), "matrix has non-finite entries"),
    "-inf": (_with_entry(-np.inf), "matrix has non-finite entries"),
    "imaginary inf": (_with_entry(complex(0.0, np.inf)), "matrix has non-finite entries"),
}


@pytest.mark.parametrize("form", ["descriptor", "affine_rep", "evaluator"])
@pytest.mark.parametrize("case", sorted(QUERY_REFUSALS))
def test_a_query_refuses_a_bad_input_before_the_evaluator_sees_it(form, case):
    d = random_symmetry(4, 1, family=AFFINE)
    seen = []
    phi = {"descriptor": EffectMapOracle.from_descriptor(d),
           "affine_rep": EffectMapOracle.from_affine_rep(to_affine_rep(d)),
           "evaluator": EffectMapOracle(4, seen.append)}[form]
    bad, message = QUERY_REFUSALS[case]
    with pytest.raises(ValueError) as err:
        phi(bad)
    assert type(err.value) is ValueError and str(err.value) == message
    assert seen == []


def test_is_affine_accepts_identity_and_complement():
    assert is_affine(identity_oracle(3))
    assert is_affine(complement_oracle(3))  # affine but not linear


def test_is_affine_rejects_square_map():
    phi = EffectMapOracle(2, lambda a: np.asarray(a, dtype=complex) @ np.asarray(a, dtype=complex))
    result = is_affine(phi)
    assert not result
    assert result.witness is not None
    lam, a, b = result.witness
    assert type(lam) is float and a.flags.owndata and b.flags.owndata
    mid = phi(lam * a + (1 - lam) * b)
    avg = lam * phi(a) + (1 - lam) * phi(b)
    assert frobenius_norm(mid - avg) > 1e-9
    # the hand example: midpoint of diag(1,0), diag(0,1) squared vs averaged
    half = 0.5 * np.eye(2)
    assert np.allclose(half @ half, 0.25 * np.eye(2))
    avg_sq = 0.5 * (np.diag([1.0, 0.0]) + np.diag([0.0, 1.0]))
    assert frobenius_norm(half @ half - avg_sq) > 0.3


def test_extend_linear_identity():
    phi = identity_oracle(2)
    m = np.diag([2.0, -3.0])
    assert np.allclose(extend_linear(phi, m), m)


def test_extend_linear_homogeneous():
    phi = EffectMapOracle(3, lambda a: 0.5 * np.asarray(a, dtype=complex))
    from effectsym.sampling import random_hermitian

    m = random_hermitian(3, 4)
    assert np.allclose(extend_linear(phi, m), 0.5 * m, atol=1e-12)


def test_extend_linear_unitary_conjugation():
    u0 = haar_unitary(2, 11)
    phi = EffectMapOracle(2, lambda a: u0 @ np.asarray(a, dtype=complex) @ adjoint(u0))
    m = np.array([[1.0, 1j], [-1j, 0.0]])
    assert np.allclose(extend_linear(phi, m), u0 @ m @ adjoint(u0), atol=1e-12)
    # general complex (non-Hermitian) argument goes through Re/Im parts
    g = complex_gaussian(2, Stream(5))
    assert np.allclose(extend_linear(phi, g), u0 @ g @ adjoint(u0), atol=1e-12)


def test_extend_linear_requires_zero_fixed():
    with pytest.raises(ValueError, match="oracle does not fix 0"):
        extend_linear(complement_oracle(2), np.eye(2))


def nan_oracle(dim, when):
    """A canonical map that answers NaN wherever ``when(A)`` holds."""
    d = random_symmetry(dim, 3, family=AFFINE, complement=False)

    def evaluate(m):
        out = apply_symmetry(d, m)
        return np.full_like(out, np.nan) if when(m) else out

    return EffectMapOracle(dim, evaluate)


NAN_WHERE = {
    "at 0": lambda m: not np.any(m),
    "away from 0": lambda m: np.any(m),
    "tr A > 1.5": lambda m: np.trace(m).real > 1.5,
}


@pytest.mark.parametrize("where", NAN_WHERE)
def test_extension_checks_fail_closed_on_nan(where):
    """A comparison ``x > bound`` and a ``max`` fold both pass over NaN:
    such checks accepted a NaN phi(0), read a NaN defect as 0 or 7.7e-16,
    and the norm bound raised numpy's LinAlgError from its SVD."""
    phi = nan_oracle(3, NAN_WHERE[where])
    if where == "at 0":
        with pytest.raises(ValueError, match=r"oracle does not fix 0 \(\|\|phi\(0\)\|\| = nan\)"):
            extend_linear(phi, np.eye(3))
        with pytest.raises(ValueError, match="oracle does not fix 0"):
            linearity_defect(phi, Stream(1), 20)
    else:
        assert math.isnan(linearity_defect(phi, Stream(1), 20))
    assert math.isnan(boundedness_check(phi, seed=1))


@pytest.mark.parametrize("check", ["linearity_defect", "boundedness_check", "unit_ball_decomposition"])
def test_extension_suite_fails_closed_on_nan(monkeypatch, check):
    from effectsym import suites

    nan = {"linearity_defect": lambda *a: math.nan, "boundedness_check": lambda *a, **k: math.nan,
           "unit_ball_decomposition": lambda m: (np.full_like(m, np.nan),) * 4}[check]
    monkeypatch.setattr(suites, check, nan)
    result = suites.extension_suite(3, 5, probes=10)
    assert not result.passed
    assert len(result.details["failures"]) == 2
    if check != "unit_ball_decomposition":
        key = "max_linearity_deviation" if check == "linearity_defect" else "max_extension_norm"
        assert math.isnan(result.details[key])


@pytest.mark.parametrize("probes", [0, -1, True, 2.0])
def test_an_empty_or_non_integer_linearity_battery_is_refused(probes):
    """With no probe, A -> A^2 passed having been probed nowhere."""
    from effectsym.suites import extension_suite

    calls = []
    phi = EffectMapOracle(3, lambda a: calls.append(1) or a @ a, label="squared")
    with pytest.raises(ValueError, match="probes must be"):
        linearity_defect(phi, Stream(1), probes)
    assert calls == []
    with pytest.raises(ValueError, match="probes must be"):
        extension_suite(3, 1, probes=probes)


def test_oracle_rejects_wrong_shape_output():
    for bad in (np.eye(3), np.ones(4), np.ones((4, 4, 1))):
        phi = EffectMapOracle(4, lambda a, bad=bad: bad)
        with pytest.raises(OracleError, match=r"oracle output has shape .*, expected \(4, 4\)") as err:
            phi(0.5 * np.eye(4))
        assert np.array_equal(err.value.query, 0.5 * np.eye(4))


def zero_queries(monkeypatch) -> list:
    """Count the oracle queries at the zero matrix from here on."""
    zeros = []
    original = EffectMapOracle.__call__

    def counted(self, a):
        if not np.any(a):
            zeros.append(self.label)
        return original(self, a)

    monkeypatch.setattr(EffectMapOracle, "__call__", counted)
    return zeros


def test_extension_queries_phi_of_zero_once_per_oracle(monkeypatch):
    from effectsym.suites import extension_suite

    zeros = zero_queries(monkeypatch)
    boundedness_check(EffectMapOracle.from_descriptor(random_symmetry(3, 4, family=AFFINE)), seed=1)
    assert zeros == ["descriptor"]  # to recenter; the recentered map is not asked
    zeros.clear()
    assert extension_suite(3, 5, probes=10).passed
    assert zeros == ["descriptor"] * 4  # per oracle: the linearity oracle and the bounded one


def test_extension_linearity_invariant():
    s = Stream(7)
    for seed in range(3):
        d = random_symmetry(3, seed, family=AFFINE, complement=False)
        assert linearity_defect(EffectMapOracle.from_descriptor(d), s, 200) <= 1e-8


def test_extension_agrees_with_oracle_on_effects():
    s = Stream(8)
    for seed in range(3):
        d = random_symmetry(3, seed, family=AFFINE, complement=False)
        phi = EffectMapOracle.from_descriptor(d)
        for _ in range(200):
            a = random_effect(3, s.next_u64())
            assert frobenius_norm(extend_linear(phi, a) - phi(a)) <= 1e-9


def test_extension_matches_affine_rep_linear_part():
    """Two evaluation routes agree when the oracle has zero constant."""
    s = Stream(9)
    for seed in range(3):
        d = random_symmetry(4, seed, family=AFFINE, complement=False)
        rep = to_affine_rep(d)
        assert frobenius_norm(rep.constant) < 1e-12
        phi = EffectMapOracle.from_affine_rep(rep)
        from effectsym.sampling import random_hermitian
        from effectsym.symmetry import _decode, _encode

        for _ in range(20):
            h = random_hermitian(4, s.next_u64())
            via_formula = extend_linear(phi, h)
            via_rep = _decode(rep.linear @ _encode(h), 4)
            assert frobenius_norm(via_formula - via_rep) <= 1e-9


def test_boundedness_identity_and_complement():
    assert boundedness_check(identity_oracle(3)) <= 1.0 + 1e-12
    assert boundedness_check(complement_oracle(3)) <= 1.0 + 1e-12


@pytest.mark.parametrize("bad", [np.ones(3), np.array(1.0)], ids=["1-D", "0-d"])
def test_boundedness_rejects_a_wrong_shape_away_from_zero(bad):
    """phi(0) is a 3x3 zero, so phi(A) - phi(0) would broadcast the bad
    answer to 3x3; the answer must be refused before it is recentered."""
    queries = []

    def evaluate(m):
        queries.append(m.copy())
        return np.zeros((3, 3)) if not np.any(m) else bad

    with pytest.raises(OracleError, match=r"oracle output has shape") as err:
        boundedness_check(EffectMapOracle(3, evaluate), seed=1)
    assert len(queries) == 2
    assert np.array_equal(err.value.query, queries[-1])


def test_boundedness_on_synthesized_oracles():
    for seed in range(8):
        d = random_symmetry(3, seed, family=AFFINE)
        phi = EffectMapOracle.from_descriptor(d)
        assert boundedness_check(phi, seed=seed) <= 2.0 + 1e-9


def test_unit_ball_decomposition():
    from effectsym.effects import as_effect

    s = Stream(10)
    for _ in range(50):
        g = complex_gaussian(3, s)
        g = g / max(operator_norm(g), 1.0)
        a1, a2, a3, a4 = unit_ball_decomposition(g)
        for part in (a1, a2, a3, a4):
            as_effect(part)  # raises unless part is an effect
        recomposed = a1 - a2 + 1j * (a3 - a4)
        assert frobenius_norm(recomposed - g) <= 1e-12


def test_unit_ball_decomposition_rejects_large_input():
    with pytest.raises(ValueError):
        unit_ball_decomposition(3.0 * np.eye(2))


def test_oracle_from_descriptor_and_rep_agree():
    d = random_symmetry(3, 21, family=AFFINE)
    phi_desc = EffectMapOracle.from_descriptor(d)
    phi_rep = EffectMapOracle.from_affine_rep(to_affine_rep(d))
    for seed in range(10):
        a = random_effect(3, seed)
        assert np.allclose(phi_desc(a), phi_rep(a), atol=1e-11)
        assert np.allclose(phi_desc(a), apply_symmetry(d, a))


@pytest.mark.parametrize("form", ["descriptor", "affine_rep"])
def test_oracle_query_validates_its_input_once(form, monkeypatch):
    import effectsym.extension
    import effectsym.symmetry
    from effectsym.linalg import as_square_array

    d = random_symmetry(4, 5, family=AFFINE)
    rep = to_affine_rep(d)
    phi = EffectMapOracle.from_descriptor(d) if form == "descriptor" else EffectMapOracle.from_affine_rep(rep)
    a = random_effect(4, 9)
    calls = []

    def counting(m, dim=None):
        calls.append(m)
        return as_square_array(m, dim)

    for module in (effectsym.extension, effectsym.symmetry):
        monkeypatch.setattr(module, "as_square_array", counting)
    out = phi(a)
    assert len(calls) == 1
    expected = apply_symmetry(d, a) if form == "descriptor" else apply_affine_rep(rep, a)
    assert np.array_equal(out, expected)


# ------------------------------------- stacked extension vs a per-matrix loop


def real_imag_parts(m):
    """Hermitian pair (H, K) with M = H + iK: H = (M+M*)/2, K = (M-M*)/2i."""
    m = np.asarray(m, dtype=complex)
    return hermitize(m), 0.5j * (adjoint(m) - m)


def ref_extend(phi, m):
    """The extension one matrix at a time: A1..A4 from real_imag_parts and
    positive_negative_parts, each scaled into [0, I] by its spectral norm."""
    re, im = real_imag_parts(m)
    images = []
    for a in (*positive_negative_parts(re), *positive_negative_parts(im)):
        nrm = operator_norm(a)
        images.append(np.zeros_like(a) if nrm < ZERO_NORM_CUTOFF else nrm * phi(a / nrm))
    a1, a2, a3, a4 = images
    return (a1 - a2) + 1j * (a3 - a4)


def ref_linearity_defect(phi, stream, probes):
    worst = 0.0
    for _ in range(probes):
        m, n = complex_gaussian(phi.dim, stream), complex_gaussian(phi.dim, stream)
        alpha = -2.0 + 4.0 * stream.uniform()
        beta = -2.0 + 4.0 * stream.uniform()
        lhs = ref_extend(phi, alpha * m + beta * n)
        rhs = alpha * ref_extend(phi, m) + beta * ref_extend(phi, n)
        worst = nan_max(worst, frobenius_norm(lhs - rhs) / (frobenius_norm(m) + frobenius_norm(n)))
    return worst


def ref_boundedness(phi, seed):
    zero_img = phi(np.zeros((phi.dim, phi.dim)))
    worst = 0.0
    for s in Stream(seed).u64_block(BOUNDEDNESS_TRIALS).tolist():
        ext = ref_extend(lambda a: phi(a) - zero_img, random_effect(phi.dim, s))
        worst = max(worst, operator_norm(ext))
    return worst


def zero_fixing_oracles(dim):
    """Both kinds of linear canonical map, sign +1 and -1, and a nonlinear map."""
    for kind in (UNITARY, ANTIUNITARY):
        yield EffectMapOracle.from_descriptor(
            random_symmetry(dim, dim, family=AFFINE, kind=kind, complement=False))
        yield EffectMapOracle.from_descriptor(
            random_symmetry(dim, dim + 1, family=TRIPLE_HERMITIAN, kind=kind, sign=-1))
    yield EffectMapOracle(dim, lambda a: a @ a, label="squared")


def non_finite_oracle(dim):
    """A linear canonical map whose answer has a NaN entry where
    1.5 < tr A < 1.6 and an inf entry where tr A > dim - 0.2."""
    d = random_symmetry(dim, dim + 7, family=AFFINE, complement=False)

    def evaluate(a):
        out, tr = apply_symmetry(d, a), np.trace(a).real
        if 1.5 < tr < 1.6:
            out[0, -1] = np.nan
        if tr > dim - 0.2:
            out[-1, 0] = np.inf
        return out

    return EffectMapOracle(dim, evaluate, label="non-finite")


def same_bits_or_nan(x, y) -> bool:
    """Equal bit for bit, except that a NaN matches any NaN."""
    x, y = (np.ascontiguousarray(v, dtype=complex).view(float) for v in (x, y))
    nan = np.isnan(x)
    return np.array_equal(nan, np.isnan(y)) and np.where(nan, 0.0, x).tobytes() == np.where(nan, 0.0, y).tobytes()


def any_oracles(dim):
    yield from zero_fixing_oracles(dim)
    for kind in (UNITARY, ANTIUNITARY):
        yield EffectMapOracle.from_descriptor(
            random_symmetry(dim, dim + 2, family=AFFINE, kind=kind, complement=True))


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
def test_stacked_extension_equals_per_matrix_loop_bitwise(dim):
    for phi in zero_fixing_oracles(dim):
        for probes in (1, 7, 9):  # 3, 21 and 27 extensions: one chunk, and past it
            assert linearity_defect(phi, Stream(probes), probes) == ref_linearity_defect(
                phi, Stream(probes), probes)
        s = Stream(dim)
        for m in (complex_gaussian(dim, s), random_effect(dim, 5), np.zeros((dim, dim))):
            assert np.array_equal(extend_linear(phi, m), ref_extend(phi, m))
    for seed, phi in enumerate(any_oracles(dim)):
        assert boundedness_check(phi, seed=seed) == ref_boundedness(phi, seed)
    phi = non_finite_oracle(dim)  # NaN and inf answers, folded with nan_max
    s = Stream(200 + dim)
    with np.errstate(invalid="ignore"):  # 0 * inf in the complex products
        for probes in (1, 7, 9):
            assert same_bits_or_nan(linearity_defect(phi, Stream(probes), probes),
                                    ref_linearity_defect(phi, Stream(probes), probes))
        for m in (*(complex_gaussian(dim, s) for _ in range(6)), np.eye(dim), 2.2 * np.eye(dim)):
            assert same_bits_or_nan(extend_linear(phi, m), ref_extend(phi, m))
    s = Stream(100 + dim)
    for _ in range(10):
        g = complex_gaussian(dim, s)
        g = g / max(operator_norm(g), 1.0)
        re, im = real_imag_parts(g)
        expected = (*positive_negative_parts(re), *positive_negative_parts(im))
        assert all(np.array_equal(a, b) for a, b in zip(unit_ball_decomposition(g), expected, strict=True))


# Query count and sha256 of the concatenated query inputs and of the
# concatenated answers (``oracle_queries.digest()``).  The inputs were taken
# from the one-matrix-at-a-time implementation: the stacked extension asks
# the oracle the same inputs in the same order.  Linearity: 20 probes from
# Stream(3) on random_symmetry(dim, 5, AFFINE, complement=False);
# boundedness: seed 2 on random_symmetry(dim, 6, AFFINE).
EXTENSION_INPUT_SEQUENCES = {
    ("linearity", 3): (240, "3efabd34588689d9ea4a388a5146e034f0d002a2b9681b31a3ad64fc136d1ce0",
                       "45e8d1f7cb18b6f120f9fb19b8f110e8aca6172bd8a735329943ce4ab3e6620f"),
    ("linearity", 6): (241, "c2feaf4f839a08a024623a8551fdc50fd6977e34467195c841b1a8d8f6a04a6b",
                       "a7770b2ec20d6b6c62d6860cfdf5eb9cb967e7a9cbdad64005bf44f3f88c9201"),
    ("boundedness", 3): (33, "3c4bf2af0edef5550e49ed60271d43c79783cdf9efa7c98c758be1e0c1d3a7f2",
                         "ea3ec76ac5827e77fc1fe29f6fde4f9a3c3c56c89871c83f7a42d8d42b35acd1"),
    ("boundedness", 6): (33, "8017ff82c4e5d0b7f75364275f009179e6ed9e5d7dff3f9d872fcec8d847e680",
                         "4771e59a5dfbcc5d1e80c590f336adcbcb997591191e96a5414d2c69cb284b5d"),
}


@pytest.mark.parametrize("check, dim", sorted(EXTENSION_INPUT_SEQUENCES))
def test_extension_input_sequence_is_pinned(check, dim, oracle_queries):
    if check == "linearity":
        d = random_symmetry(dim, 5, family=AFFINE, complement=False)
        linearity_defect(EffectMapOracle(dim, lambda m: apply_symmetry(d, m)), Stream(3), 20)
    else:
        d = random_symmetry(dim, 6, family=AFFINE)
        boundedness_check(EffectMapOracle(dim, lambda m: apply_symmetry(d, m)), seed=2)
    assert oracle_queries.digest() == EXTENSION_INPUT_SEQUENCES[check, dim]
