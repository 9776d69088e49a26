import numpy as np
import pytest

from effectsym.linalg import adjoint, frobenius_norm
from effectsym.sampling import (
    haar_unitary,
    nested_projections,
    orthogonal_projections,
    random_effect,
    random_hermitian,
    random_projection,
    random_unit_vector,
)

# Frozen from this implementation's own seeded run; guards the whole
# stream (SplitMix64 -> Box-Muller -> QR phase fix -> assembly).
GOLDEN_EFFECT_4_1 = np.array(
    [
        [
            0.7930412250097061 + 0.0j,
            -0.00528340901601741 - 0.0821846855755964j,
            -0.0131532914538143 - 0.1653053590023743j,
            -0.06140109856368686 + 0.09014954029777565j,
        ],
        [
            -0.00528340901601741 + 0.0821846855755964j,
            0.5687414938124516 + 0.0j,
            -0.01707583850846295 - 0.01002725172439251j,
            0.07451428582564973 + 0.09888529358972337j,
        ],
        [
            -0.0131532914538143 + 0.1653053590023743j,
            -0.01707583850846295 + 0.01002725172439251j,
            0.5540649022190618 + 0.0j,
            -0.10152573058337733 - 0.08538989310834222j,
        ],
        [
            -0.06140109856368686 - 0.09014954029777565j,
            0.07451428582564973 - 0.09888529358972337j,
            -0.10152573058337733 + 0.08538989310834222j,
            0.6895608076904077 + 0.0j,
        ],
    ]
)


def test_haar_unitarity():
    for seed in range(20):
        dim = 1 + seed % 8
        u = haar_unitary(dim, seed)
        assert frobenius_norm(adjoint(u) @ u - np.eye(dim)) <= 1e-12 * dim


def test_haar_determinism():
    a = haar_unitary(3, 7)
    b = haar_unitary(3, 7)
    assert np.array_equal(a, b)
    assert not np.allclose(a, haar_unitary(3, 8))


def test_haar_dim_one_is_a_phase():
    u = haar_unitary(1, 12345)
    assert u.shape == (1, 1)
    assert abs(abs(u[0, 0]) - 1.0) < 1e-14


def test_haar_rejects_dim_zero():
    with pytest.raises(ValueError):
        haar_unitary(0, 1)


def test_random_effect_spectrum_and_determinism():
    for seed in range(30):
        dim = 2 + seed % 7
        a = random_effect(dim, seed)
        w = np.linalg.eigvalsh(a)
        assert w[0] >= -1e-12 and w[-1] <= 1.0 + 1e-12
    assert np.array_equal(random_effect(5, 9), random_effect(5, 9))


def test_random_effect_golden():
    assert np.allclose(random_effect(4, 1), GOLDEN_EFFECT_4_1, atol=1e-13)


def test_random_projection_properties():
    ranks = set()
    for seed in range(40):
        p = random_projection(5, seed)
        assert frobenius_norm(p @ p - p) < 1e-12
        assert frobenius_norm(p - adjoint(p)) < 1e-14
        ranks.add(round(np.trace(p).real))
    assert ranks == {1, 2, 3, 4}


def test_nested_projections_order():
    for seed in range(25):
        p, q = nested_projections(4, seed)
        assert frobenius_norm(p @ q @ p - p) < 1e-12
        assert np.linalg.eigvalsh(q - p)[0] >= -1e-12


def test_orthogonal_projections_product():
    for seed in range(25):
        p, q = orthogonal_projections(4, seed)
        assert frobenius_norm(p @ q) < 1e-12
        assert np.trace(p).real >= 0.99 and np.trace(q).real >= 0.99


def test_random_hermitian_is_hermitian():
    for seed in range(10):
        h = random_hermitian(4, seed)
        assert frobenius_norm(h - adjoint(h)) < 1e-14


def test_random_unit_vector_norm():
    for seed in range(10):
        x = random_unit_vector(6, seed)
        assert abs(np.linalg.norm(x) - 1.0) < 1e-14
