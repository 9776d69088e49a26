import numpy as np
import pytest

from effectsym.linalg import (
    adjoint,
    as_square_array,
    eig_hermitian,
    eigenvalues_hermitian,
    frobenius_norm,
    is_hermitian,
    operator_norm,
)
from effectsym.sampling import random_hermitian


def eig2x2_by_hand(a):
    """Independent 2x2 Hermitian eigenvalue oracle (quadratic formula)."""
    tr = (a[0, 0] + a[1, 1]).real
    det = (a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]).real
    disc = np.sqrt(tr * tr / 4.0 - det)
    return np.array([tr / 2.0 - disc, tr / 2.0 + disc])


def test_adjoint_example():
    m = np.array([[0, 1j], [0, 0]])
    expected = np.array([[0, 0], [-1j, 0]])
    assert np.array_equal(adjoint(m), expected)


def test_trace_opnorm_examples():
    assert np.trace(np.eye(3)) == 3
    assert operator_norm(np.diag([0.2, 0.9])) == pytest.approx(0.9)
    assert frobenius_norm(np.diag([3.0, 4.0])) == pytest.approx(5.0)


def test_hermiticity_checks():
    assert is_hermitian(np.array([[1.0, 2j], [-2j, 0.5]]))
    assert not is_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_square_and_finite_validation():
    with pytest.raises(ValueError):
        eig_hermitian(np.ones((2, 3)))
    bad = np.array([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        eig_hermitian(bad)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("part", ["real", "imag"])
def test_non_finite_real_or_imaginary_part_is_rejected(bad, part):
    m = np.full((2, 2), 0.5 + 0.5j)
    getattr(m, part)[1, 0] = bad
    with pytest.raises(ValueError, match="^matrix has non-finite entries$"):
        as_square_array(m)


@pytest.mark.parametrize("eig", [eig_hermitian], ids=["lapack"])
def test_eig_diagonal_example(eig):
    dec = eig(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(dec.eigenvalues, [1.0, 2.0, 3.0])
    assert np.allclose(dec.reconstruct(), np.diag([3.0, 1.0, 2.0]))


@pytest.mark.parametrize("eig", [eig_hermitian], ids=["lapack"])
def test_eig_2x2_against_quadratic_formula(eig):
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    dec = eig(a)
    assert np.allclose(dec.eigenvalues, eig2x2_by_hand(a))
    # eigenvectors (1, -1)/sqrt2 and (1, 1)/sqrt2 up to phase
    for col, target in [(0, np.array([1, -1]) / np.sqrt(2)), (1, np.array([1, 1]) / np.sqrt(2))]:
        v = dec.eigenvectors[:, col]
        assert abs(abs(np.vdot(v, target)) - 1.0) < 1e-12


@pytest.mark.parametrize("eig", [eig_hermitian], ids=["lapack"])
def test_eig_identity(eig):
    dec = eig(np.eye(4))
    assert np.allclose(dec.eigenvalues, 1.0)
    v = dec.eigenvectors
    assert frobenius_norm(adjoint(v) @ v - np.eye(4)) < 1e-12


def test_eig_reconstruction_invariant_bulk():
    """Relative reconstruction residual <= 1e-10 over 1000 random inputs."""
    count = 0
    seed = 0
    for dim in range(2, 9):
        for _ in range(143):
            a = random_hermitian(dim, seed)
            seed += 1
            dec = eig_hermitian(a)
            resid = frobenius_norm(a - dec.reconstruct()) / max(frobenius_norm(a), 1e-300)
            assert resid <= 1e-10
            assert np.all(np.diff(dec.eigenvalues) >= 0)
            count += 1
    assert count >= 1000


def test_eig_shift_invariant():
    for seed, dim, c in [(1, 3, 0.7), (2, 5, -2.5), (3, 8, 11.0)]:
        a = random_hermitian(dim, seed)
        w = eigenvalues_hermitian(a)
        w_shifted = eigenvalues_hermitian(a + c * np.eye(dim))
        assert np.allclose(w + c, w_shifted, atol=1e-10)


@pytest.mark.parametrize("eig", [eig_hermitian], ids=["lapack"])
def test_eig_deterministic(eig):
    a = random_hermitian(6, 42)
    d1 = eig(a)
    d2 = eig(a)
    assert np.array_equal(d1.eigenvalues, d2.eigenvalues)
    assert np.array_equal(d1.eigenvectors, d2.eigenvectors)
