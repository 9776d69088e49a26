import numpy as np
import pytest

from effectsym.extension import EffectMapOracle
from effectsym.recover import recover_affine
from effectsym.rng import Stream, _box_muller, _unit_floats, mix64, u64_grid
from effectsym.sampling import haar_unitaries, random_effect
from effectsym.symmetry import random_symmetry

# Published reference outputs of SplitMix64 for seed 0.
SEED0_OUTPUTS = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def test_seed0_reference_vector():
    s = Stream(0)
    assert [s.next_u64() for _ in range(3)] == SEED0_OUTPUTS


def test_scalar_and_block_paths_agree():
    for seed in [0, 1, 2**64 - 1, 0xDEADBEEF]:
        scalar = Stream(seed)
        block = Stream(seed)
        expected = [scalar.next_u64() for _ in range(40)]
        got = block.u64_block(40)
        assert [int(x) for x in got] == expected
        # both advanced by 40: their next outputs agree
        assert scalar.next_u64() == int(block.u64_block(1)[0])


def test_block_splitting_is_contiguous():
    a = Stream(99)
    b = Stream(99)
    joined = a.u64_block(10)
    parts = np.concatenate([b.u64_block(3), b.u64_block(7)])
    assert np.array_equal(joined, parts)


def test_grid_rows_are_streams_at_a_counter():
    seeds = [0, 1, 2**64 - 1, 0xDEADBEEF, 2**64 + 5, -1]
    grid = u64_grid(seeds, 9, counter=4)
    assert grid.shape == (len(seeds), 9) and grid.dtype == np.uint64
    for seed, row in zip(seeds, grid):
        s = Stream(seed)
        s.u64_block(4)
        assert np.array_equal(row, s.u64_block(9))
    assert np.array_equal(u64_grid(np.array(seeds[:4], dtype=np.uint64), 9, counter=4), grid[:4])


def test_grid_rows_are_scalar_draws_at_high_seeds_and_counters():
    """Seeds at and above 2**63 (whose sums with k * GAMMA wrap) and
    counters past 0: each row is what the scalar stream draws."""
    seeds = [2**63, 2**63 + 1, 2**64 - 1, 2**64 - 0x9E3779B97F4A7C15, 2**64 + 2**63]
    for counter in (1, 5, 1000):
        grid = u64_grid(seeds, 6, counter=counter)
        for seed, row in zip(seeds, grid):
            s = Stream(seed)
            s.u64_block(counter)
            assert [int(x) for x in row] == [s.next_u64() for _ in range(6)]


# Raw outputs at both ends of the 53-bit range and in between.
EDGE_RAW = np.array([[0, 2**64 - 1, 2**11 - 1, 2**11, 2**63, 2**63 - 1, 0xE220A8397B1DCDAF, 12345]],
                    dtype=np.uint64)


def test_box_muller_is_the_docstring_formula():
    """u1 = ((out >> 11) + 1) * 2**-53 and u2 = (out >> 11) * 2**-53 taken in
    exact integers first, then z0, z1 = sqrt(-2 ln u1) * (cos, sin)(2 pi u2)."""
    raw = np.concatenate([EDGE_RAW, u64_grid([3, 2**63 + 9], 8)])
    top = [[int(x) >> 11 for x in row] for row in raw]
    u1 = np.array([[x + 1 for x in row[0::2]] for row in top], dtype=float) * 2.0 ** -53  # x + 1 <= 2**53, exact
    u2 = np.array([row[1::2] for row in top], dtype=float) * 2.0 ** -53
    radius = np.sqrt(-2 * np.log(u1))
    z0, z1 = _box_muller(raw)
    assert z0.tobytes() == (radius * np.cos(2 * np.pi * u2)).tobytes()
    assert z1.tobytes() == (radius * np.sin(2 * np.pi * u2)).tobytes()
    for n in (1, 2, 7, 8):  # one row: the layout Stream.gaussian draws
        g = Stream(n).gaussian(n)
        re, im = _box_muller(Stream(n).u64_block(2 * ((n + 1) // 2)))
        assert g.tobytes() == np.ravel(np.column_stack([re, im]))[:n].tobytes()


def test_block_forms_leave_their_arguments_alone():
    """Each block form writes only into arrays it allocated: read-only
    inputs are accepted and come back unchanged."""
    seeds = np.array([0, 7, 2**64 - 1], dtype=np.uint64)
    raw = np.concatenate([EDGE_RAW, EDGE_RAW[:, ::-1]])
    for a in (seeds, raw):
        a.setflags(write=False)
    kept = seeds.copy(), raw.copy()
    first = u64_grid(seeds, 4, counter=2), _unit_floats(raw), _box_muller(raw), haar_unitaries(3, seeds)
    second = u64_grid(seeds, 4, counter=2), _unit_floats(raw), _box_muller(raw), haar_unitaries(3, seeds)
    assert np.array_equal(seeds, kept[0]) and np.array_equal(raw, kept[1])
    for x, y in zip(first, second):
        assert np.asarray(x).tobytes() == np.asarray(y).tobytes()
    s = Stream(5)
    assert np.array_equal(np.concatenate([s.u64_block(3), s.u64_block(2)]), u64_grid([5], 5)[0])


def test_seed_wraps_to_64_bits():
    assert Stream(2**64 + 5).next_u64() == Stream(5).next_u64()


@pytest.mark.parametrize("draw", [
    Stream,
    lambda seed: u64_grid([seed], 1),
    lambda seed: random_effect(3, seed),
    lambda seed: recover_affine(EffectMapOracle.from_descriptor(random_symmetry(3, 1)), seed=seed),
], ids=["Stream", "u64_grid", "random_effect", "recover_affine"])
@pytest.mark.parametrize("seed", [1.5, True, "3", np.float64(2.0)], ids=repr)
def test_a_seed_that_is_not_an_integer_is_refused(draw, seed):
    """A float, bool or string seed used to be truncated to another seed's stream."""
    with pytest.raises(ValueError, match="seed must be an integer"):
        draw(seed)


def test_spawn_deterministic_and_decorrelated():
    parent = Stream(7)
    child = parent.spawn()
    parent2 = Stream(7)
    child2 = parent2.spawn()
    assert np.array_equal(child.u64_block(8), child2.u64_block(8))
    assert child.next_u64() != parent.next_u64()


def test_uniform_range_and_determinism():
    s = Stream(5)
    xs = s.uniform(10_000)
    assert np.all(xs >= 0.0) and np.all(xs < 1.0)
    assert abs(xs.mean() - 0.5) < 0.02
    assert Stream(5).uniform() == pytest.approx(xs[0], abs=0.0)


def test_gaussian_moments_and_pair_consumption():
    s = Stream(11)
    z = s.gaussian(20_000)
    assert abs(z.mean()) < 0.03
    assert abs(z.std() - 1.0) < 0.03
    # odd request still burns a whole Box-Muller pair
    t, ref = Stream(11), Stream(11)
    t.gaussian(3)
    ref.u64_block(4)
    assert t.next_u64() == ref.next_u64()


def test_gaussian_prefix_stability():
    long = Stream(3).gaussian(8)
    short = Stream(3).gaussian(5)
    assert np.array_equal(long[:5], short)


def test_integer_range():
    s = Stream(13)
    draws = [s.integer(5) for _ in range(200)]
    assert set(draws) <= {0, 1, 2, 3, 4}
    assert len(set(draws)) == 5
    with pytest.raises(ValueError):
        s.integer(0)


def test_mix64_is_a_bijection_sample():
    seen = {mix64(k) for k in range(1000)}
    assert len(seen) == 1000


def test_a_negative_block_is_refused_and_does_not_move_the_stream():
    s, ref = Stream(5), Stream(5)
    s.next_u64(), ref.next_u64()
    with pytest.raises(ValueError, match="n >= 0"):
        s.u64_block(-1)  # once returned nothing and moved the counter back
    assert s.next_u64() == ref.next_u64()
    assert s.u64_block(0).shape == (0,)
