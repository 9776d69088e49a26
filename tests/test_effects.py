import numpy as np
import pytest

from effectsym.effects import (
    NotSummableError,
    as_effect,
    is_extreme,
    jordan_triple,
    leq,
    orthocomplement,
    partial_add,
    positive_negative_parts,
    rank_one_projection,
)
from effectsym.linalg import frobenius_norm, operator_norm
from effectsym.rng import Stream
from effectsym.sampling import random_effect, random_hermitian, random_projection


def test_as_effect_accepts_and_clamps():
    a = as_effect(np.diag([1.0 + 5e-10, -5e-10]))
    w = np.linalg.eigvalsh(a)
    assert w[0] >= 0.0 and w[-1] <= 1.0


def test_as_effect_rejects_out_of_interval():
    with pytest.raises(ValueError):
        as_effect(np.diag([1.2, 0.0]))
    with pytest.raises(ValueError):
        as_effect(np.diag([-0.1, 0.5]))
    with pytest.raises(ValueError):
        as_effect(np.diag([2.0, 0.0]))
    assert np.allclose(as_effect(np.diag([1.0, 0.0])), np.diag([1.0, 0.0]))


def test_jordan_triple_identity_arguments():
    b = random_effect(3, 5)
    assert np.allclose(jordan_triple(np.eye(3), b), b)
    p = random_projection(3, 6)
    assert np.allclose(jordan_triple(p, np.eye(3)), p, atol=1e-12)


def test_jordan_triple_hand_example():
    a = np.diag([0.5, 1.0])
    b = np.array([[0.5, 0.5], [0.5, 0.5]])
    expected = np.array([[0.125, 0.25], [0.25, 0.5]])
    got = jordan_triple(a, b)
    assert np.allclose(got, expected)
    assert np.allclose(np.linalg.eigvalsh(got), [0.0, 0.625])


def test_jordan_triple_dim_mismatch():
    with pytest.raises(ValueError):
        jordan_triple(np.eye(2), np.eye(3))


def test_jordan_triple_closure_sample():
    s = Stream(0)
    for dim in range(2, 9):
        for _ in range(100):
            a = random_effect(dim, s.next_u64())
            b = random_effect(dim, s.next_u64())
            w = np.linalg.eigvalsh(jordan_triple(a, b))
            assert w[0] >= -1e-9 and w[-1] <= 1.0 + 1e-9


def test_orthocomplement():
    assert np.allclose(orthocomplement(np.diag([0.3, 0.7])), np.diag([0.7, 0.3]))
    a = random_effect(4, 3)
    # involution exact to one ulp of 1.0 (the diagonal subtraction can round)
    diff = orthocomplement(orthocomplement(a)) - a
    assert np.max(np.abs(diff)) <= 2.0 ** -52
    assert np.allclose(orthocomplement(np.eye(3)), np.zeros((3, 3)))


def test_partial_add():
    assert np.allclose(
        partial_add(np.diag([0.5, 0.5]), np.diag([0.5, 0.4])), np.diag([1.0, 0.9])
    )
    with pytest.raises(NotSummableError):
        partial_add(np.diag([0.9, 0.0]), np.diag([0.2, 0.0]))
    p = random_projection(4, 7)
    assert np.allclose(partial_add(p, orthocomplement(p)), np.eye(4))


def test_leq():
    a = random_effect(3, 11)
    assert leq(np.zeros((3, 3)), a)
    assert leq(a, np.eye(3))
    assert not leq(np.diag([0.5, 0.1]), np.diag([0.4, 0.9]))


def test_order_reversed_by_orthocomplement():
    s = Stream(21)
    for _ in range(50):
        a = random_effect(3, s.next_u64())
        b = random_effect(3, s.next_u64())
        assert leq(a, b) == leq(orthocomplement(b), orthocomplement(a))


def test_order_matches_pinching_on_projections():
    s = Stream(33)
    from effectsym.sampling import nested_projection_pairs

    for k in range(200):
        if k % 2 == 0:
            p, q = nested_projection_pairs(4, [s.next_u64()])[0]
        else:
            p = random_projection(4, s.next_u64())
            q = random_projection(4, s.next_u64())
        assert leq(p, q, 1e-8) == (frobenius_norm(p @ q @ p - p) <= 1e-8)


def test_is_extreme():
    assert not is_extreme(0.5 * np.eye(2))
    assert is_extreme(random_projection(4, 2))
    assert not is_extreme(np.diag([1.0, 0.5, 0.0]))


def test_extreme_point_characterization():
    """Effects with an interior eigenvalue split as a midpoint of two
    effects; projections never have an interior eigenvalue to split."""
    s = Stream(44)
    split_found = 0
    for _ in range(50):
        a = random_effect(4, s.next_u64())
        w, v = np.linalg.eigh(a)
        interior = [i for i in range(4) if 0.1 <= w[i] <= 0.9]
        if not interior:
            continue
        split_found += 1
        vec = v[:, interior[0]]
        bump = 0.05 * np.outer(vec, np.conj(vec))
        hi, lo = a + bump, a - bump
        as_effect(hi), as_effect(lo)  # raises unless both are effects
        assert np.allclose(0.5 * (hi + lo), a)
    assert split_found >= 40
    for seed in range(10):
        p = random_projection(4, seed)
        w = np.linalg.eigvalsh(p)
        assert not np.any((w >= 0.1) & (w <= 0.9))


def test_contractive_idempotent_lemma():
    """Skew idempotents have norm > 1; orthogonal projections never do."""
    s = Stream(55)
    checked = 0
    for _ in range(60):
        g = s.gaussian(2 * 16)
        m = (g[0::2] + 1j * g[1::2]).reshape(4, 4)
        basis = np.eye(4, dtype=complex) + 0.35 * m
        try:
            inv = np.linalg.inv(basis)
        except np.linalg.LinAlgError:
            continue
        idem = basis @ np.diag([1.0, 1.0, 0.0, 0.0]) @ inv
        if frobenius_norm(idem - idem.conj().T) <= 0.1:
            continue
        checked += 1
        assert operator_norm(idem) > 1.0
    assert checked >= 30
    for seed in range(10):
        assert operator_norm(random_projection(4, seed)) <= 1.0 + 1e-12


def test_positive_negative_parts_examples():
    pos, neg = positive_negative_parts(np.diag([1.0, -2.0]))
    assert np.allclose(pos, np.diag([1.0, 0.0]))
    assert np.allclose(neg, np.diag([0.0, 2.0]))
    pos, neg = positive_negative_parts(np.array([[0.0, 2.0], [2.0, 0.0]]))
    assert np.allclose(pos, np.array([[1.0, 1.0], [1.0, 1.0]]))
    assert np.allclose(neg, np.array([[1.0, -1.0], [-1.0, 1.0]]))
    a = random_effect(3, 8)  # psd: negative part vanishes
    pos, neg = positive_negative_parts(a)
    assert np.allclose(pos, a, atol=1e-12)
    assert frobenius_norm(neg) < 1e-12


def test_positive_negative_parts_invariant():
    s = Stream(66)
    for _ in range(100):
        h = random_hermitian(4, s.next_u64())
        pos, neg = positive_negative_parts(h)
        assert np.allclose(pos - neg, h, atol=1e-12 * frobenius_norm(h))
        assert frobenius_norm(pos @ neg) <= 1e-9 * frobenius_norm(h) ** 2
        assert np.linalg.eigvalsh(pos)[0] >= -1e-12
        assert np.linalg.eigvalsh(neg)[0] >= -1e-12


def test_rank_one_projection():
    assert np.allclose(rank_one_projection([1.0, 0.0]), np.diag([1.0, 0.0]))
    x = np.array([1.0, 1.0]) / np.sqrt(2)
    assert np.allclose(rank_one_projection(x), np.full((2, 2), 0.5))
    x = np.array([1.0, 1j]) / np.sqrt(2)
    expected = np.array([[0.5, -0.5j], [0.5j, 0.5]])
    assert np.allclose(rank_one_projection(x), expected)
    # renormalizes on entry
    assert np.allclose(rank_one_projection([2.0, 0.0]), np.diag([1.0, 0.0]))
    with pytest.raises(ValueError):
        rank_one_projection([0.0, 0.0])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("x", [[np.nan, 1.0], [np.inf, 1.0], [1e-300, 0.0], [1e308, 1e308]],
                         ids=["nan", "inf", "tiny", "overflow"])
def test_rank_one_projection_refuses_a_zero_or_non_finite_vector(x):
    """An overflowing norm is refused without a RuntimeWarning."""
    with pytest.raises(ValueError, match="zero or non-finite vector"):
        rank_one_projection(x)
