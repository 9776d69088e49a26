"""Seeded generators: Haar unitaries, random effects, projections.

Every generator takes an explicit 64-bit seed and is deterministic for
it.  Randomness is drawn from :class:`effectsym.rng.Stream`; the draw
order is part of the contract so streams stay reproducible:

* ``haar_unitary``: one complex Gaussian matrix (entries row-major, one
  Box-Muller pair per entry, real part first), then QR with the
  R-diagonal phase fix, which makes the distribution Haar.  The QR is
  ``np.linalg.qr``'s own pair of LAPACK gufuncs, called directly by
  ``linalg._qr_unitary_and_diagonal``: Q and R's diagonal keep numpy's
  bits, and R itself is never formed.
* ``random_effect``: the stream's first output seeds the Haar rotation,
  then ``dim`` uniforms give the eigenvalues.
* ``random_projection``: first output seeds the Haar rotation, then the
  next output x picks the rank 1 + x % (dim - 1), as for the pairs.

Batched forms (``haar_unitaries``, ``random_effects``, ...) return one
result per seed; result i is bit for bit the per-seed sampler (the
one-row case) at ``seeds[i]``, each row drawing its stream as above, in
one ``u64_grid`` pass, Box-Muller pass, stacked QR, phase fix and
``(u * lam) @ u*``.  Unit vectors divide by one ``frobenius_norms``
pass, whose rows keep the per-vector bits.  Projections come from column
slices of their frames, built by one private ``_slice_projections`` call
that the preservation probe also uses over its ``_frames`` pass: the
projections taking one slice (start, width) form one stacked
``hermitize(cols @ adjoint(cols))`` of the frames' own column views,
which keeps the per-frame bits.  Mixed widths in one stack would not: a
stack has one width, so narrower slices would need zero-padded columns,
and a longer inner dimension can sum in another order.
"""

from __future__ import annotations

import numpy as np

from .linalg import _qr_unitary_and_diagonal, adjoint, frobenius_norms, from_spectrum, hermitize
from .rng import Stream, _box_muller, _unit_floats, u64_grid


def complex_gaussian(dim: int, stream: Stream) -> np.ndarray:
    """dim x dim matrix of standard complex Gaussians (re + i*im)."""
    re, im = _box_muller(stream.u64_block(2 * dim * dim))
    return (re + 1j * im).reshape(dim, dim)


def complex_gaussians(dim: int, seeds) -> np.ndarray:
    """:func:`complex_gaussian` of ``Stream(seed)`` for each seed."""
    if dim < 1:
        raise ValueError("dim must be at least 1")
    re, im = _box_muller(u64_grid(seeds, 2 * dim * dim))
    return (re + 1j * im).reshape(-1, dim, dim)


def haar_unitaries(dim: int, seeds) -> np.ndarray:
    """Haar-distributed unitaries via QR of complex Gaussian matrices.

    The fresh Gaussian stack is factored in place by numpy's QR gufuncs
    (``qr_r_raw``, then ``qr_reduced`` for Q), which give ``np.linalg.qr``'s
    bits for Q and R's diagonal; R is never formed.  Each column of Q is
    multiplied by the phase of R's diagonal entry (Mezzadri 2007), left as
    it is where that entry is 0."""
    q, d = _qr_unitary_and_diagonal(complex_gaussians(dim, seeds))
    absd = np.abs(d)
    nonzero = absd > 0
    q *= np.where(nonzero, d / np.where(nonzero, absd, 1.0), 1.0)[:, None, :]  # q is QR's fresh array
    return q


def haar_unitary(dim: int, seed: int) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    return haar_unitaries(dim, [seed])[0]


def random_effects(dim: int, seeds) -> np.ndarray:
    """Random effects V diag(lambda) V* with Haar V and uniform eigenvalues."""
    if dim < 1:
        raise ValueError("dim must be at least 1")
    raw = u64_grid(seeds, dim + 1)
    u = haar_unitaries(dim, raw[:, 0])
    return from_spectrum(u, _unit_floats(raw[:, 1:]))


def random_effect(dim: int, seed: int) -> np.ndarray:
    """Random effect V diag(lambda) V* with Haar V and uniform eigenvalues."""
    return random_effects(dim, [seed])[0]


def _frames(dim: int, seeds) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per seed: the Haar frame of the stream's first output, the rank its second picks, its third output."""
    if dim < 2:
        raise ValueError("dim must be at least 2")
    raw = u64_grid(seeds, 3)
    return haar_unitaries(dim, raw[:, 0]), 1 + raw[:, 1] % (dim - 1), raw[:, 2]


def _slice_projections(frames: np.ndarray, which, starts, widths) -> np.ndarray:
    """Stack of the projections onto columns ``starts[k]`` to ``starts[k] + widths[k] - 1``
    of frame ``which[k]``, each ``hermitize(cols @ adjoint(cols))`` of that column view.
    The projections that take one slice are one stacked product of such views, which
    keeps each one's bits; one ``hermitize`` serves the whole stack."""
    n, dim = len(which), frames.shape[-1]
    keys = np.asarray(starts, dtype=np.intp) * (dim + 1) + np.asarray(widths, dtype=np.intp)
    order = np.argsort(keys, kind="stable")  # each slice's projections in one run
    runs = keys[order].tolist()
    firsts = [k for k in range(n) if k == 0 or runs[k] != runs[k - 1]]
    picked, prod = frames[np.asarray(which, dtype=np.intp)[order]], np.empty((n, dim, dim), dtype=complex)
    for lo, hi in zip(firsts, [*firsts[1:], n]):
        start, width = divmod(runs[lo], dim + 1)
        cols = picked[lo:hi, :, start:start + width]
        np.matmul(cols, adjoint(cols), out=prod[lo:hi])
    return np.ascontiguousarray(hermitize(prod)[np.argsort(order)])  # a large stack's sum can come out transposed


def random_projections(dim: int, seeds) -> np.ndarray:
    """Haar-rotated orthogonal projections of random rank in 1..dim-1."""
    u, rank, _ = _frames(dim, seeds)
    return _slice_projections(u, np.arange(len(u)), 0, rank)


def random_projection(dim: int, seed: int) -> np.ndarray:
    """Haar-rotated orthogonal projection of random rank in 1..dim-1."""
    return random_projections(dim, [seed])[0]


def nested_projection_pairs(dim: int, seeds) -> list[tuple[np.ndarray, np.ndarray]]:
    """Pairs (P, Q) of projections with P <= Q, each sharing one Haar frame; Q has the frame's rank."""
    u, q, y = _frames(dim, seeds)
    both = _slice_projections(u, np.tile(np.arange(len(u)), 2), 0, np.concatenate((1 + y % q, q)))
    return list(zip(*both.reshape(2, -1, dim, dim)))


def random_hermitians(dim: int, seeds) -> np.ndarray:
    """Unbounded Hermitian samples G + G* with complex Gaussian G."""
    g = complex_gaussians(dim, seeds)
    return g + adjoint(g)


def random_hermitian(dim: int, seed: int) -> np.ndarray:
    """Unbounded Hermitian sample G + G* with complex Gaussian G."""
    return random_hermitians(dim, [seed])[0]


def random_unit_vectors(dim: int, seeds) -> np.ndarray:
    """Haar-uniform unit vectors (normalized complex Gaussians)."""
    if dim < 1:
        raise ValueError("dim must be at least 1")
    re, im = _box_muller(u64_grid(seeds, 2 * dim))
    x = re + 1j * im
    x /= frobenius_norms(x)[:, None]
    return x


def random_unit_vector(dim: int, seed: int) -> np.ndarray:
    """Haar-uniform unit vector (normalized complex Gaussian)."""
    return random_unit_vectors(dim, [seed])[0]
