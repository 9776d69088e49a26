import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from effectsym.extension import EffectMapOracle
from effectsym.linalg import adjoint, frobenius_norm, hermitize
from effectsym.rng import Stream
from effectsym.sampling import complex_gaussian, haar_unitary, random_effect, random_hermitian
from effectsym.symmetry import (
    AFFINE,
    ANTIUNITARY,
    TRIPLE_EFFECTS,
    TRIPLE_HERMITIAN,
    UNITARY,
    AffineMapRep,
    SymmetryDescriptor,
    apply_affine_rep,
    apply_symmetry,
    compose,
    decode_hermitian,
    encode_hermitian,
    gauge_normalize,
    hermitian_basis,
    inverse,
    random_symmetry,
    to_affine_rep,
)


def test_basis_dim_one():
    basis = hermitian_basis(1)
    assert basis.shape == (1, 1, 1)
    assert basis[0, 0, 0] == 1.0


def test_basis_dim_two_explicit():
    basis = hermitian_basis(2)
    inv_sqrt2 = 1.0 / np.sqrt(2)
    assert np.allclose(basis[0], np.diag([1.0, 0.0]))
    assert np.allclose(basis[1], np.diag([0.0, 1.0]))
    assert np.allclose(basis[2], np.array([[0, 1], [1, 0]]) * inv_sqrt2)
    assert np.allclose(basis[3], np.array([[0, 1j], [-1j, 0]]) * inv_sqrt2)


@pytest.mark.parametrize("dim", [1, 2, 3, 5])
def test_basis_trace_orthonormal(dim):
    basis = hermitian_basis(dim)
    assert basis.shape == (dim * dim, dim, dim)
    gram = np.einsum("aij,bji->ab", basis, basis).real
    assert np.allclose(gram, np.eye(dim * dim), atol=1e-13)
    for b in basis:
        assert frobenius_norm(b - adjoint(b)) < 1e-14


def test_encode_decode_roundtrip():
    from effectsym.sampling import random_hermitian

    for seed in range(10):
        h = random_hermitian(4, seed)
        coords = encode_hermitian(h)
        assert coords.dtype == np.float64
        assert np.allclose(decode_hermitian(coords, 4), h, atol=1e-12)


def reference_encode(m):
    """The definition of the coordinates: c_k = tr(B_k A) over the basis stack."""
    return np.einsum("kij,ji->k", hermitian_basis(m.shape[0]), m).real


def reference_decode(c, dim):
    return np.einsum("k,kij->ij", c, hermitian_basis(dim))


BITWISE_DIMS = [1, 2, 3, 4, 5, 6, 7, 8, 16]


def _coordinate_inputs(dim, seed):
    s = Stream(seed)
    return (
        random_effect(dim, s.next_u64()),
        random_hermitian(dim, s.next_u64()),
        complex_gaussian(dim, s),
    )


@pytest.mark.parametrize("dim", BITWISE_DIMS)
def test_closed_form_coordinates_match_basis_stack_bitwise(dim):
    for seed in range(6):
        for m in _coordinate_inputs(dim, seed):
            coords = encode_hermitian(m)
            assert coords.tobytes() == reference_encode(m).tobytes()
            assert decode_hermitian(coords, dim).tobytes() == reference_decode(coords, dim).tobytes()


@pytest.mark.parametrize("dim", BITWISE_DIMS)
def test_to_affine_rep_matches_basis_stack_columns_bitwise(dim):
    d = random_symmetry(dim, 40 + dim, family=AFFINE)
    const = hermitize(apply_symmetry(d, np.zeros((dim, dim))))
    cols = [reference_encode(apply_symmetry(d, b) - const) for b in hermitian_basis(dim)]
    assert to_affine_rep(d).linear.tobytes() == np.column_stack(cols).tobytes()


finite_matrices = st.integers(1, 6).flatmap(
    lambda n: arrays(complex, (n, n), elements=st.complex_numbers(allow_nan=False, allow_infinity=False))
)
finite_coordinates = st.integers(1, 6).flatmap(
    lambda n: arrays(float, n * n, elements=st.floats(allow_nan=False, allow_infinity=False))
)


@settings(deadline=None)
@given(finite_matrices)
@example(np.array([[complex(-0.0, -0.0)]]))
@example(np.array([[complex(-0.0, 1.0), complex(-0.0, -0.0)], [complex(-0.0, 5e-324), complex(1e308, 0.0)]]))
@example(np.array([[0.0, complex(1.7e308, -1.7e308)], [complex(1.7e308, 1.7e308), 0.0]]))
def test_encode_matches_basis_stack_on_any_finite_matrix(m):
    with np.errstate(over="ignore"):
        assert encode_hermitian(m).tobytes() == reference_encode(m).tobytes()


@settings(deadline=None)
@given(finite_coordinates)
@example(np.array([-0.0]))
@example(np.array([-0.0, 1.0, -5e-324, -0.0]))
def test_decode_matches_basis_stack_on_any_finite_coordinates(c):
    dim = math.isqrt(c.size)
    assert decode_hermitian(c, dim).tobytes() == reference_decode(c, dim).tobytes()


def _with_entry(value):
    m = np.eye(3, dtype=complex)
    m[1, 2] = value
    return m


@pytest.mark.parametrize(
    "bad",
    [_with_entry(np.nan), _with_entry(np.inf), _with_entry(complex(0.0, np.inf)), np.ones((3, 2)), np.eye(2)],
    ids=["nan", "inf", "imag-inf", "non-square", "wrong-dim"],
)
def test_affine_rep_paths_reject_bad_input(bad):
    rep = to_affine_rep(random_symmetry(3, 5, family=AFFINE))
    with pytest.raises(ValueError):
        apply_affine_rep(rep, bad)
    with pytest.raises(ValueError):
        EffectMapOracle.from_affine_rep(rep)(bad)


def test_decode_rejects_wrong_number_of_coordinates():
    with pytest.raises(ValueError, match="expected 9 coordinates"):
        decode_hermitian(np.zeros(8), 3)
    with pytest.raises(ValueError, match="expected 9 coordinates"):
        decode_hermitian(np.zeros((3, 3)), 3)


def test_descriptor_validation():
    with pytest.raises(ValueError):
        SymmetryDescriptor("unitary", np.diag([1.0, 2.0]))
    with pytest.raises(ValueError):
        SymmetryDescriptor("rotation", np.eye(2))
    with pytest.raises(ValueError):
        SymmetryDescriptor("unitary", np.eye(2), sign=2)
    with pytest.raises(ValueError):
        SymmetryDescriptor("unitary", np.eye(2), complement=True, sign=-1)


def test_apply_identity_and_complement():
    a = random_effect(3, 1)
    ident = SymmetryDescriptor(UNITARY, np.eye(3))
    assert np.allclose(apply_symmetry(ident, a), a)
    comp = SymmetryDescriptor(UNITARY, np.eye(3), complement=True)
    assert np.allclose(
        apply_symmetry(comp, np.diag([0.3, 0.7, 0.0])), np.diag([0.7, 0.3, 1.0])
    )


def test_apply_antiunitary_conjugates_entries():
    a = np.array([[0.5, 0.25j], [-0.25j, 0.5]])
    anti = SymmetryDescriptor(ANTIUNITARY, np.eye(2))
    out = apply_symmetry(anti, a)
    assert out[0, 1] == pytest.approx(-0.25j)


def test_apply_sign():
    a = random_effect(3, 2)
    neg = SymmetryDescriptor(UNITARY, np.eye(3), sign=-1)
    assert np.allclose(apply_symmetry(neg, a), -a)


def test_apply_dim_mismatch():
    d = SymmetryDescriptor(UNITARY, np.eye(3))
    with pytest.raises(ValueError):
        apply_symmetry(d, np.eye(2))


def _pointwise_equal(d1, d2, dim, seeds, atol=1e-10):
    return all(
        np.allclose(
            apply_symmetry(d1, random_effect(dim, s)),
            apply_symmetry(d2, random_effect(dim, s)),
            atol=atol,
        )
        for s in seeds
    )


@pytest.mark.parametrize("kind", [UNITARY, ANTIUNITARY])
@pytest.mark.parametrize("complement", [False, True])
def test_compose_with_inverse_gives_identity(kind, complement):
    for seed in range(3):
        d = random_symmetry(3, seed, family=AFFINE, kind=kind, complement=complement)
        r = compose(inverse(d), d)
        ident = SymmetryDescriptor(UNITARY, np.eye(3))
        assert _pointwise_equal(r, ident, 3, range(10))


def test_compose_two_complements_cancel():
    d1 = random_symmetry(3, 10, family=AFFINE, kind=UNITARY, complement=True)
    d2 = random_symmetry(3, 11, family=AFFINE, kind=UNITARY, complement=True)
    r = compose(d1, d2)
    assert r.complement is False
    for s in range(8):
        a = random_effect(3, s)
        assert np.allclose(apply_symmetry(r, a), apply_symmetry(d1, apply_symmetry(d2, a)))


def test_compose_antiunitary_pair_is_unitary():
    d1 = random_symmetry(4, 12, family=TRIPLE_EFFECTS, kind=ANTIUNITARY)
    d2 = random_symmetry(4, 13, family=TRIPLE_EFFECTS, kind=ANTIUNITARY)
    r = compose(d1, d2)
    assert r.kind == UNITARY
    for s in range(8):
        a = random_effect(4, s)
        assert np.allclose(apply_symmetry(r, a), apply_symmetry(d1, apply_symmetry(d2, a)))


def test_compose_mixed_kinds():
    d1 = random_symmetry(3, 14, family=TRIPLE_EFFECTS, kind=UNITARY)
    d2 = random_symmetry(3, 15, family=TRIPLE_EFFECTS, kind=ANTIUNITARY)
    r = compose(d1, d2)
    assert r.kind == ANTIUNITARY
    for s in range(8):
        a = random_effect(3, s)
        assert np.allclose(apply_symmetry(r, a), apply_symmetry(d1, apply_symmetry(d2, a)))


def test_compose_signs_multiply():
    d1 = random_symmetry(3, 16, family=TRIPLE_HERMITIAN, sign=-1)
    d2 = random_symmetry(3, 17, family=TRIPLE_HERMITIAN, sign=-1)
    assert compose(d1, d2).sign == 1
    d3 = random_symmetry(3, 18, family=TRIPLE_HERMITIAN, sign=1)
    assert compose(d1, d3).sign == -1


def test_compose_family_mismatch():
    comp = random_symmetry(3, 19, family=AFFINE, complement=True)
    neg = random_symmetry(3, 20, family=TRIPLE_HERMITIAN, sign=-1)
    with pytest.raises(ValueError):
        compose(comp, neg)
    with pytest.raises(ValueError):
        compose(random_symmetry(2, 1, family=AFFINE), random_symmetry(3, 1, family=AFFINE))


def test_gauge_normalize():
    u = haar_unitary(4, 5)
    d = SymmetryDescriptor(UNITARY, np.exp(1.3j) * u)
    g = gauge_normalize(d)
    col = g.unitary[:, 0]
    lead = col[np.flatnonzero(np.abs(col) > 1e-8)[0]]
    assert abs(lead.imag) < 1e-14 and lead.real > 0
    # action unchanged, idempotent, phase independent
    a = random_effect(4, 6)
    assert np.allclose(apply_symmetry(g, a), apply_symmetry(d, a))
    assert np.allclose(gauge_normalize(g).unitary, g.unitary)
    g2 = gauge_normalize(SymmetryDescriptor(UNITARY, np.exp(-2.1j) * u))
    assert np.allclose(g.unitary, g2.unitary, atol=1e-13)


def test_to_affine_rep_identity_and_complement():
    ident = SymmetryDescriptor(UNITARY, np.eye(3))
    rep = to_affine_rep(ident)
    assert np.allclose(rep.linear, np.eye(9), atol=1e-13)
    assert frobenius_norm(rep.constant) < 1e-13
    comp = SymmetryDescriptor(UNITARY, np.eye(3), complement=True)
    rep = to_affine_rep(comp)
    assert np.allclose(rep.linear, -np.eye(9), atol=1e-13)
    assert np.allclose(rep.constant, np.eye(3), atol=1e-13)


def test_to_affine_rep_conjugation_is_orthogonal():
    for seed in range(5):
        d = random_symmetry(3, seed, family=TRIPLE_EFFECTS)
        lin = to_affine_rep(d).linear
        assert np.allclose(lin @ lin.T, np.eye(9), atol=1e-12)


def test_affine_rep_matches_descriptor():
    s = Stream(77)
    for seed in range(6):
        d = random_symmetry(3, seed, family=AFFINE)
        rep = to_affine_rep(d)
        for _ in range(50):
            from effectsym.sampling import random_hermitian

            h = random_hermitian(3, s.next_u64())
            assert (
                frobenius_norm(apply_affine_rep(rep, h) - apply_symmetry(d, h)) <= 1e-10
            )


def test_affine_rep_validation():
    with pytest.raises(ValueError):
        AffineMapRep(linear=np.eye(3), constant=np.eye(2))
    with pytest.raises(ValueError):
        AffineMapRep(linear=np.full((4, 4), np.nan), constant=np.eye(2))


def test_affine_identity_invariant():
    s = Stream(88)
    for seed in range(4):
        d = random_symmetry(3, seed, family=AFFINE)
        for _ in range(50):
            lam = s.uniform()
            a = random_effect(3, s.next_u64())
            b = random_effect(3, s.next_u64())
            lhs = apply_symmetry(d, lam * a + (1 - lam) * b)
            rhs = lam * apply_symmetry(d, a) + (1 - lam) * apply_symmetry(d, b)
            assert frobenius_norm(lhs - rhs) <= 1e-10


def test_triple_identity_for_plain_and_sign_families():
    from effectsym.sampling import random_hermitian

    s = Stream(99)
    for seed in range(4):
        d = random_symmetry(3, seed, family=TRIPLE_EFFECTS)
        for _ in range(25):
            a = random_effect(3, s.next_u64())
            b = random_effect(3, s.next_u64())
            lhs = apply_symmetry(d, a @ b @ a)
            rhs = apply_symmetry(d, a) @ apply_symmetry(d, b) @ apply_symmetry(d, a)
            assert frobenius_norm(lhs - rhs) <= 1e-10
    for seed in range(4):
        d = random_symmetry(3, seed, family=TRIPLE_HERMITIAN, sign=-1)
        for _ in range(25):
            a = random_hermitian(3, s.next_u64())
            b = random_hermitian(3, s.next_u64())
            lhs = apply_symmetry(d, a @ b @ a)
            rhs = apply_symmetry(d, a) @ apply_symmetry(d, b) @ apply_symmetry(d, a)
            assert frobenius_norm(lhs - rhs) <= 1e-8 * max(1.0, frobenius_norm(a) ** 2 * frobenius_norm(b))


def test_complemented_descriptors_break_triple_identity():
    s = Stream(111)
    for seed in range(5):
        d = random_symmetry(3, seed, family=AFFINE, complement=True)
        witnessed = False
        for _ in range(20):
            a = random_effect(3, s.next_u64())
            b = random_effect(3, s.next_u64())
            lhs = apply_symmetry(d, a @ b @ a)
            rhs = apply_symmetry(d, a) @ apply_symmetry(d, b) @ apply_symmetry(d, a)
            if frobenius_norm(lhs - rhs) > 0.01:
                witnessed = True
                break
        assert witnessed


def test_affine_family_preserves_effects():
    from effectsym.effects import as_effect

    s = Stream(122)
    for seed in range(10):
        d = random_symmetry(3, seed, family=AFFINE)
        for _ in range(50):
            a = random_effect(3, s.next_u64())
            as_effect(apply_symmetry(d, a))  # raises unless the image is an effect


def test_random_symmetry_flag_validation():
    with pytest.raises(ValueError):
        random_symmetry(3, 1, family="affine", sign=-1)
    with pytest.raises(ValueError):
        random_symmetry(3, 1, family="triple_effects", complement=True)
    with pytest.raises(ValueError):
        random_symmetry(3, 1, family="triple_hermitian", complement=True)
    with pytest.raises(ValueError):
        random_symmetry(3, 1, family="nope")
