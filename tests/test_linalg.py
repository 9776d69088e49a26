import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from effectsym.effects import as_effect, positive_negative_parts
from effectsym.extension import _psd_parts
from effectsym.linalg import (
    adjoint,
    as_square_array,
    eig_hermitian,
    eigenvalues_hermitian,
    frobenius_norm,
    frobenius_norms,
    hermitize,
    operator_norm,
    psd_parts,
    require_hermitian,
)
from effectsym.rng import Stream
from effectsym.sampling import complex_gaussians, random_effects, random_hermitian, random_hermitians


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
    h = np.array([[1.0, 2j], [-2j, 0.5]])
    assert np.array_equal(require_hermitian(h), h)
    with pytest.raises(ValueError, match="^matrix is not Hermitian within tolerance 1e-09 "):
        require_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
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


def test_eig_diagonal_example():
    w, v = eig_hermitian(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(w, [1.0, 2.0, 3.0])
    assert np.allclose((v * w) @ adjoint(v), np.diag([3.0, 1.0, 2.0]))


def test_eig_2x2_against_quadratic_formula():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    w, v = eig_hermitian(a)
    assert np.allclose(w, eig2x2_by_hand(a))
    # eigenvectors (1, -1)/sqrt2 and (1, 1)/sqrt2 up to phase
    for col, target in [(0, np.array([1, -1]) / np.sqrt(2)), (1, np.array([1, 1]) / np.sqrt(2))]:
        assert abs(abs(np.vdot(v[:, col], target)) - 1.0) < 1e-12


def test_eig_identity():
    w, v = eig_hermitian(np.eye(4))
    assert np.allclose(w, 1.0)
    assert frobenius_norm(adjoint(v) @ v - np.eye(4)) < 1e-12


def test_eig_reconstruction_invariant_bulk():
    """Relative reconstruction residual <= 1e-10 over 1000 random inputs."""
    count = 0
    seed = 0
    for dim in range(2, 9):
        for _ in range(143):
            a = random_hermitian(dim, seed)
            seed += 1
            w, v = eig_hermitian(a)
            resid = frobenius_norm(a - (v * w) @ adjoint(v)) / max(frobenius_norm(a), 1e-300)
            assert resid <= 1e-10
            assert np.all(np.diff(w) >= 0)
            count += 1
    assert count >= 1000


def test_eig_shift_invariant():
    for seed, dim, c in [(1, 3, 0.7), (2, 5, -2.5), (3, 8, 11.0)]:
        a = random_hermitian(dim, seed)
        w = eigenvalues_hermitian(a)
        w_shifted = eigenvalues_hermitian(a + c * np.eye(dim))
        assert np.allclose(w + c, w_shifted, atol=1e-10)


def test_eig_deterministic():
    a = random_hermitian(6, 42)
    w1, v1 = eig_hermitian(a)
    w2, v2 = eig_hermitian(a)
    assert np.array_equal(w1, w2)
    assert np.array_equal(v1, v2)


@pytest.mark.parametrize("shape", [(1, 1), (4, 4), (3, 5), (2, 3, 3)])
def test_adjoint_is_the_swapped_conjugate_bit_for_bit(shape):
    rng = np.random.default_rng(len(shape))
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    x.real.flat[0] = -0.0
    for m in (x, np.asfortranarray(x), x[..., ::-1, :]):
        got, expected = adjoint(m), np.conj(np.swapaxes(m, -1, -2))
        assert got.strides == expected.strides
        assert got.tobytes(order="A") == expected.tobytes(order="A")
    with pytest.raises(ValueError):  # numpy's AxisError
        adjoint(np.ones(3))


# The split as effects.positive_negative_parts and extension._psd_parts each
# wrote it before both called linalg.psd_parts; the shared split must keep
# their bits.


def ref_positive_negative_parts(a):
    w, v = np.linalg.eigh(hermitize(a))
    pos = hermitize((v * np.clip(w, 0.0, None)) @ adjoint(v))
    neg = hermitize((v * np.clip(-w, 0.0, None)) @ adjoint(v))
    return pos, neg


def ref_stacked_psd_parts(mats):
    re_im = np.stack((hermitize(mats), 0.5j * (adjoint(mats) - mats)), axis=1)
    w, v = np.linalg.eigh(hermitize(re_im))
    vh = adjoint(v)
    pos, neg = (hermitize((v * np.clip(x, 0.0, None)[..., None, :]) @ vh) for x in (w, -w))
    return np.stack((pos, neg), axis=2).reshape(len(mats), 4, *mats.shape[1:])


def ref_as_effect(a):
    w, v = np.linalg.eigh(hermitize(a))
    return hermitize((v * np.clip(w, 0.0, 1.0)) @ adjoint(v))


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("dim", range(1, 9))
def test_one_split_keeps_the_bits_of_both_former_splits(dim):
    seeds = Stream(dim).u64_block(12)
    hs = random_hermitians(dim, seeds)
    hs[0] = 0.0  # every eigenvalue on the clip boundary
    pos, neg = psd_parts(hs)
    for k, h in enumerate(hs):
        want = ref_positive_negative_parts(h)
        assert all(map(same_bits, positive_negative_parts(h), want))
        assert same_bits(pos[k], want[0]) and same_bits(neg[k], want[1])
    mats = complex_gaussians(dim, seeds)
    assert same_bits(_psd_parts(mats), ref_stacked_psd_parts(mats))
    for m, four in zip(mats, _psd_parts(mats)):
        assert same_bits(_psd_parts(m[None])[0], four)
    for a in random_effects(dim, seeds):
        assert same_bits(as_effect(a), ref_as_effect(a))


SPECIAL_FLOATS = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e300, -1e300, 5e-324]
norm_floats = st.sampled_from(SPECIAL_FLOATS) | st.floats(-1e3, 1e3)
norm_elements = {
    np.complex128: st.builds(complex, norm_floats, norm_floats),
    np.float64: norm_floats,
    np.int64: st.integers(-(2**62), 2**62),
}


def _same_float_bits(x: float, y: float) -> bool:
    return (math.isnan(x) and math.isnan(y)) or np.float64(x).tobytes() == np.float64(y).tobytes()


@settings(deadline=None, max_examples=300)
@given(st.sampled_from(sorted(norm_elements, key=str)).flatmap(
           lambda dt: arrays(dt, array_shapes(min_dims=1, max_dims=3, max_side=5), elements=norm_elements[dt])),
       st.sampled_from(["C", "F", "reversed"]))
def test_frobenius_norm_has_the_bits_of_numpys_norm(a, layout):
    """The trimmed norm against numpy's own expression, on any layout:
    a Fortran copy and a view walking every axis backwards."""
    a = {"C": a, "F": np.asfortranarray(a), "reversed": a[(slice(None, None, -1),) * a.ndim]}[layout]
    with np.errstate(all="ignore"):
        got, expected = frobenius_norm(a), float(np.linalg.norm(a))
    assert type(got) is float
    assert _same_float_bits(got, expected)


STACK_LAYOUTS = {
    "C": lambda s: s,
    "F": np.asfortranarray,
    "every other": lambda s: s[::2],
    "reversed": lambda s: s[(slice(None, None, -1),) * s.ndim],
}


@settings(deadline=None, max_examples=300)
@given(st.sampled_from(sorted(norm_elements, key=str)).flatmap(
           lambda dt: arrays(dt, st.tuples(st.integers(0, 40), array_shapes(max_dims=2, max_side=5)).map(
               lambda ns: (ns[0], *ns[1])), elements=norm_elements[dt])),
       st.sampled_from(sorted(STACK_LAYOUTS)))
def test_frobenius_norms_have_the_bits_of_the_per_matrix_norm(stack, layout):
    """Rows of vectors and of matrices, on any layout of the stack: the
    stacked norms against :func:`frobenius_norm` of each matrix."""
    stack = STACK_LAYOUTS[layout](stack)
    with np.errstate(over="ignore"):
        got, expected = frobenius_norms(stack), [frobenius_norm(m) for m in stack]
    assert got.dtype == np.float64 and got.shape == (len(stack),)
    assert all(map(_same_float_bits, got.tolist(), expected))


@pytest.mark.parametrize("shape", [(0,), (0, 4), (0, 3, 3)])
@pytest.mark.parametrize("dtype", [complex, float, np.int64])
def test_frobenius_norms_of_an_empty_stack_are_empty(shape, dtype):
    got = frobenius_norms(np.zeros(shape, dtype=dtype))
    assert got.dtype == np.float64 and got.shape == (0,)
