import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effectsym.linalg import adjoint, frobenius_norm, hermitize
from effectsym.rng import Stream
from effectsym.sampling import (
    _frames,
    _slice_projections,
    complex_gaussian,
    complex_gaussians,
    haar_unitaries,
    haar_unitary,
    nested_projection_pairs,
    random_effect,
    random_effects,
    random_hermitian,
    random_hermitians,
    random_projection,
    random_projections,
    random_unit_vector,
    random_unit_vectors,
)


def probe_orthogonal_pairs(dim, seeds):
    """The preservation probe's pairs (P, Q) with PQ = 0, one per seed: P onto the
    frame's first ``rank`` columns, Q onto the next 1 + y % (dim - rank)."""
    u, rank, y = _frames(dim, seeds)
    n = len(u)
    both = _slice_projections(u, np.tile(np.arange(n), 2), np.concatenate((0 * rank, rank)),
                              np.concatenate((rank, 1 + y % (dim - rank))))
    return list(zip(both[:n], both[n:]))


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
        p, q = nested_projection_pairs(4, [seed])[0]
        assert frobenius_norm(p @ q @ p - p) < 1e-12
        assert np.linalg.eigvalsh(q - p)[0] >= -1e-12


def test_orthogonal_projections_product():
    for seed in range(25):
        p, q = probe_orthogonal_pairs(4, [seed])[0]
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


# ------------------------------------------ batched forms vs per-seed loops

# Reference loops: each sampler written per seed against the Stream API,
# one draw at a time in the documented order.  The batched forms must
# reproduce them bit for bit.


def ref_complex_gaussian(dim, seed):
    z = Stream(seed).gaussian(2 * dim * dim)
    return (z[0::2] + 1j * z[1::2]).reshape(dim, dim)


def ref_haar_unitary(dim, seed):
    q, r = np.linalg.qr(ref_complex_gaussian(dim, seed))
    d = np.diagonal(r)
    absd = np.abs(d)
    return q * np.where(absd > 0, d / np.where(absd > 0, absd, 1.0), 1.0)


def ref_random_effect(dim, seed):
    s = Stream(seed)
    u = ref_haar_unitary(dim, s.next_u64())
    lam = s.uniform(dim)
    return hermitize((u * lam) @ adjoint(u))


def ref_random_projection(dim, seed):
    s = Stream(seed)
    u = ref_haar_unitary(dim, s.next_u64())
    cols = u[:, :1 + s.integer(dim - 1)]
    return hermitize(cols @ adjoint(cols))


def ref_nested_projections(dim, seed):
    s = Stream(seed)
    u = ref_haar_unitary(dim, s.next_u64())
    rank_q = 1 + s.integer(dim - 1)
    p, q = u[:, :1 + s.integer(rank_q)], u[:, :rank_q]
    return hermitize(p @ adjoint(p)), hermitize(q @ adjoint(q))


def ref_orthogonal_projections(dim, seed):
    s = Stream(seed)
    u = ref_haar_unitary(dim, s.next_u64())
    rank_p = 1 + s.integer(dim - 1)
    p, q = u[:, :rank_p], u[:, rank_p:rank_p + 1 + s.integer(dim - rank_p)]
    return hermitize(p @ adjoint(p)), hermitize(q @ adjoint(q))


def ref_random_hermitian(dim, seed):
    g = ref_complex_gaussian(dim, seed)
    return g + adjoint(g)


def ref_random_unit_vector(dim, seed):
    z = Stream(seed).gaussian(2 * dim)
    x = z[0::2] + 1j * z[1::2]
    return x / np.linalg.norm(x)


# batched form, per-seed form, reference loop, smallest dim
SAMPLERS = {
    "complex_gaussian": (complex_gaussians, lambda dim, seed: complex_gaussian(dim, Stream(seed)),
                         ref_complex_gaussian, 1),
    "haar_unitary": (haar_unitaries, haar_unitary, ref_haar_unitary, 1),
    "random_effect": (random_effects, random_effect, ref_random_effect, 1),
    "random_hermitian": (random_hermitians, random_hermitian, ref_random_hermitian, 1),
    "random_unit_vector": (random_unit_vectors, random_unit_vector, ref_random_unit_vector, 1),
    "random_projection": (random_projections, random_projection, ref_random_projection, 2),
    "nested_projections": (nested_projection_pairs,
                           lambda dim, seed: nested_projection_pairs(dim, [seed])[0],
                           ref_nested_projections, 2),
    "orthogonal_projections": (probe_orthogonal_pairs,
                               lambda dim, seed: probe_orthogonal_pairs(dim, [seed])[0],
                               ref_orthogonal_projections, 2),
}
DIMS = [1, 2, 3, 4, 5, 6, 7, 8, 16]


def _parts(out):
    return out if isinstance(out, tuple) else (out,)


def assert_batch_equals_loop(name, dim, seeds, chunk):
    batched, per_seed, reference, min_dim = SAMPLERS[name]
    if dim < min_dim:
        with pytest.raises(ValueError):
            batched(dim, seeds)
        return
    whole = list(batched(dim, seeds))
    split = [r for i in range(0, len(seeds), chunk) for r in batched(dim, seeds[i:i + chunk])]
    assert len(whole) == len(split) == len(seeds)
    for seed, w, c in zip(seeds, whole, split):
        for parts in zip(_parts(w), _parts(c), _parts(per_seed(dim, seed)), _parts(reference(dim, seed))):
            assert len({x.tobytes() for x in parts}) == 1, (name, dim, seed)
            assert all(x.flags.c_contiguous for x in parts)


@pytest.mark.parametrize("name", sorted(SAMPLERS))
def test_batch_equals_loop_bitwise(name):
    seeds = list(range(40)) + [2**63 + 1, 2**64 - 1]
    for dim in DIMS:
        assert_batch_equals_loop(name, dim, seeds, chunk=8)


@settings(max_examples=40, deadline=None)
@given(
    dim=st.sampled_from(DIMS),
    seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=12),
    chunk=st.integers(1, 12),
)
def test_batch_equals_loop_property(dim, seeds, chunk):
    for name in SAMPLERS:
        assert_batch_equals_loop(name, dim, seeds, chunk)


@pytest.mark.parametrize("dim", [2, 3, 4, 6, 16])
def test_slice_stack_equals_per_frame_projections_bitwise(dim):
    """Every column slice (start, width) of every frame, asked all in one call in
    a shuffled order, is bit for bit the per-frame hermitize(cols @ adjoint(cols))."""
    frames = haar_unitaries(dim, range(5))
    picks = [(f, start, width) for f in range(len(frames)) for start in range(dim)
             for width in range(1, dim - start + 1)]
    picks = [picks[k] for k in np.random.default_rng(dim).permutation(len(picks))]
    which, starts, widths = (np.array(x) for x in zip(*picks))
    stack = _slice_projections(frames, which, starts, widths)
    assert stack.shape == (len(picks), dim, dim) and stack.flags.c_contiguous
    for got, (f, start, width) in zip(stack, picks):
        cols = frames[f][:, start:start + width]
        assert got.tobytes() == hermitize(cols @ adjoint(cols)).tobytes(), (f, start, width)
