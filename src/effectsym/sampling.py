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
pass, whose rows keep the per-vector bits; projection rank slicing would
not stay bit-identical stacked and runs per frame, by private builders
that the preservation probe shares over one ``_frames`` pass.
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


def _frames(dim: int, seeds):
    """Per seed: the Haar frame of the stream's first output, the rank its second picks, its third output."""
    if dim < 2:
        raise ValueError("dim must be at least 2")
    raw = u64_grid(seeds, 3)
    return zip(haar_unitaries(dim, raw[:, 0]), (1 + raw[:, 1] % (dim - 1)).tolist(), raw[:, 2].tolist())


def _projection(cols: np.ndarray) -> np.ndarray:
    return hermitize(cols @ adjoint(cols))


def _frame_projection(u: np.ndarray, rank: int, _) -> np.ndarray:
    return _projection(u[:, :rank])


def _frame_nested(u: np.ndarray, q: int, y: int) -> tuple[np.ndarray, np.ndarray]:
    return _projection(u[:, :1 + y % q]), _projection(u[:, :q])


def _frame_orthogonal(u: np.ndarray, p: int, y: int) -> tuple[np.ndarray, np.ndarray]:
    """(P, Q) with PQ = 0, from disjoint columns of the frame; P has the frame's rank."""
    return _projection(u[:, :p]), _projection(u[:, p:p + 1 + y % (u.shape[0] - p)])


def random_projections(dim: int, seeds) -> list[np.ndarray]:
    """Haar-rotated orthogonal projections of random rank in 1..dim-1."""
    return [_frame_projection(*f) for f in _frames(dim, seeds)]


def random_projection(dim: int, seed: int) -> np.ndarray:
    """Haar-rotated orthogonal projection of random rank in 1..dim-1."""
    return random_projections(dim, [seed])[0]


def nested_projection_pairs(dim: int, seeds) -> list[tuple[np.ndarray, np.ndarray]]:
    """Pairs (P, Q) of projections with P <= Q, each sharing one Haar frame; Q has the frame's rank."""
    return [_frame_nested(*f) for f in _frames(dim, seeds)]


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
