"""Deterministic counter-based random streams.

Every random quantity in the package is drawn from a :class:`Stream`, a
SplitMix64 generator evaluated in counter mode.  The k-th 64-bit output
(k = 1, 2, ...) depends only on the seed and k:

    out_k = mix64((seed + k * GAMMA) mod 2**64),   GAMMA = 0x9E3779B97F4A7C15

with the finalizer (all arithmetic mod 2**64)

    z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27;  z *= 0x94D049BB133111EB
    z ^= z >> 31

Because each output is a pure function of (seed, k), blocks of outputs
vectorize, streams can be split by reseeding a child with the parent's
next output, and any other language can reproduce the sequences bit for
bit.  Reference values for seed 0: the first three outputs are
0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F.

Derived values:

* ``uniform``: ``(out >> 11) * 2.0**-53`` in ``[0, 1)``.
* ``gaussian``: Box-Muller.  Each pair of outputs (u1 from the first,
  u2 from the second) yields two normals::

      u1 = ((out >> 11) + 1) * 2.0**-53        # (0, 1], log-safe
      u2 = (out >> 11) * 2.0**-53              # [0, 1)
      z0 = sqrt(-2 ln u1) * cos(2 pi u2)
      z1 = sqrt(-2 ln u1) * sin(2 pi u2)

  Requests for an odd count still consume a whole pair.
* ``integer(n)``: ``out % n``.  The modulo bias is below n / 2**64,
  irrelevant at the sample sizes used here.

Batched form: :func:`u64_grid` draws outputs k + 1 .. k + n of many seeds;
row i is bit for bit what ``Stream(seeds[i])`` draws after its first k (one
row is :meth:`Stream.u64_block`).
The block forms build their constants at import and write in place only
into arrays they just allocated: the same operations on the same operands
in the same order, with ``log``, ``cos`` and ``sin`` on contiguous arrays.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX_1 = 0xBF58476D1CE4E5B9
_MIX_2 = 0x94D049BB133111EB
_U_GAMMA, _U_MIX_1, _U_MIX_2 = np.uint64(_GAMMA), np.uint64(_MIX_1), np.uint64(_MIX_2)
_S11, _S27, _S30, _S31 = (np.uint64(k) for k in (11, 27, 30, 31))


def mix64(z: int) -> int:
    """SplitMix64 finalizer on a 64-bit integer."""
    z = ((z ^ (z >> 30)) * _MIX_1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX_2) & _MASK
    return z ^ (z >> 31)


def _mix64_block(z: np.ndarray) -> np.ndarray:
    # mix64 of each entry of a fresh array, in place; uint64 arithmetic wraps without overflow warnings
    z ^= z >> _S30
    z *= _U_MIX_1
    z ^= z >> _S27
    z *= _U_MIX_2
    z ^= z >> _S31
    return z


def _seed64(seed) -> int:
    """An integer seed (a numpy integer counts, a bool does not) reduced mod 2**64."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    return int(seed) & _MASK


def u64_grid(seeds, n: int, counter: int = 0) -> np.ndarray:
    """Outputs ``counter + 1 .. counter + n`` of each seed's stream (seeds
    reduced mod 2**64, as by :class:`Stream`), shape ``(len(seeds), n)``."""
    if not (isinstance(seeds, np.ndarray) and seeds.dtype == np.uint64):
        seeds = np.array([_seed64(seed) for seed in seeds], dtype=np.uint64)
    ks = np.arange(counter + 1, counter + n + 1, dtype=np.uint64)
    ks *= _U_GAMMA
    return _mix64_block(seeds[:, None] + ks)


def _unit_floats(raw: np.ndarray) -> np.ndarray:
    """``uniform`` of each raw output, elementwise."""
    out = (raw >> _S11).astype(np.float64)
    out *= 2.0 ** -53
    return out


def _box_muller(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Normals (z0, z1) of the output pairs (2j, 2j + 1) along the last axis."""
    top = (raw >> _S11).astype(np.float64)  # one shift and conversion for the whole block
    radius = np.sqrt(-2.0 * np.log((top[..., 0::2] + 1.0) * 2.0 ** -53))
    angle = 2.0 * np.pi * (top[..., 1::2] * 2.0 ** -53)
    return radius * np.cos(angle), radius * np.sin(angle)


class Stream:
    """Counter-based SplitMix64 stream.

    State: the seed (an integer, reduced mod 2**64) and the count of outputs
    drawn; each output is a pure function of both, so a stream is shared only
    by advancing it.
    """

    def __init__(self, seed: int):
        self._seed = _seed64(seed)
        self._seeds = np.array([self._seed], dtype=np.uint64)  # u64_block's one-row grid
        self._counter = 0

    def next_u64(self) -> int:
        self._counter += 1
        return mix64((self._seed + self._counter * _GAMMA) & _MASK)

    def u64_block(self, n: int) -> np.ndarray:
        """Next ``n >= 0`` outputs as a uint64 array (advances the counter by n)."""
        if n < 0:
            raise ValueError(f"u64_block needs n >= 0, got {n}")
        self._counter += n
        return u64_grid(self._seeds, n, self._counter - n)[0]

    def spawn(self) -> "Stream":
        """Child stream seeded with this stream's next output."""
        return Stream(self.next_u64())

    def uniform(self, n: int | None = None):
        """Uniform float64 in [0, 1); scalar if ``n`` is None, else shape (n,)."""
        if n is None:
            return (self.next_u64() >> 11) * 2.0 ** -53
        return _unit_floats(self.u64_block(n))

    def gaussian(self, n: int) -> np.ndarray:
        """``n`` standard normals via Box-Muller (consumed in pairs)."""
        raw = self.u64_block(2 * ((n + 1) // 2))
        out = np.empty(len(raw))
        out[0::2], out[1::2] = _box_muller(raw)
        return out[:n]

    def integer(self, n: int) -> int:
        """Uniform integer in [0, n)."""
        if n <= 0:
            raise ValueError("integer() needs a positive range")
        return self.next_u64() % n
