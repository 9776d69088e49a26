import numpy as np
import pytest

from effectsym.extension import (
    EffectMapOracle,
    OracleError,
    boundedness_check,
    extend_linear,
    is_affine,
    linearity_defect,
    unit_ball_decomposition,
)
from effectsym.linalg import adjoint, frobenius_norm, operator_norm
from effectsym.rng import Stream
from effectsym.sampling import complex_gaussian, haar_unitary, random_effect
from effectsym.symmetry import (
    AFFINE,
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
    assert extension_suite(3, 5, oracles=2, probes=10).passed
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
        from effectsym.symmetry import decode_hermitian, encode_hermitian

        for _ in range(20):
            h = random_hermitian(4, s.next_u64())
            via_formula = extend_linear(phi, h)
            via_rep = decode_hermitian(rep.linear @ encode_hermitian(h), 4)
            assert frobenius_norm(via_formula - via_rep) <= 1e-9


def test_boundedness_identity_and_complement():
    assert boundedness_check(identity_oracle(3)) <= 1.0 + 1e-12
    assert boundedness_check(complement_oracle(3)) <= 1.0 + 1e-12


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

    def counting(m):
        calls.append(m)
        return as_square_array(m)

    for module in (effectsym.extension, effectsym.symmetry):
        monkeypatch.setattr(module, "as_square_array", counting)
    out = phi(a)
    assert len(calls) == 1
    expected = apply_symmetry(d, a) if form == "descriptor" else apply_affine_rep(rep, a)
    assert np.array_equal(out, expected)
