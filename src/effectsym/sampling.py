"""Seeded generators: Haar unitaries, random effects, projections.

Every generator takes an explicit 64-bit seed and is deterministic for
it.  Randomness is drawn from :class:`effectsym.rng.Stream`; the draw
order is part of the contract so streams stay reproducible:

* ``haar_unitary``: one complex Gaussian matrix (entries row-major, one
  Box-Muller pair per entry, real part first), then QR with the
  R-diagonal phase fix, which makes the distribution Haar.
* ``random_effect``: the stream's first output seeds the Haar rotation,
  then ``dim`` uniforms give the eigenvalues.
* ``random_projection``: first output seeds the Haar rotation, then one
  integer draw picks the rank uniformly in 1..dim-1.
"""

from __future__ import annotations

import numpy as np

from .linalg import adjoint, hermitize
from .rng import Stream


def complex_gaussian(dim: int, stream: Stream) -> np.ndarray:
    """dim x dim matrix of standard complex Gaussians (re + i*im)."""
    z = stream.gaussian(2 * dim * dim)
    return (z[0::2] + 1j * z[1::2]).reshape(dim, dim)


def haar_unitary(dim: int, seed: int) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    if dim < 1:
        raise ValueError("dim must be at least 1")
    g = complex_gaussian(dim, Stream(seed))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    absd = np.abs(d)
    ph = np.where(absd > 0, d / np.where(absd > 0, absd, 1.0), 1.0)
    return q * ph


def random_effect(dim: int, seed: int) -> np.ndarray:
    """Random effect V diag(lambda) V* with Haar V and uniform eigenvalues."""
    if dim < 1:
        raise ValueError("dim must be at least 1")
    s = Stream(seed)
    u = haar_unitary(dim, s.next_u64())
    lam = s.uniform(dim)
    return hermitize((u * lam) @ adjoint(u))


def random_projection(dim: int, seed: int) -> np.ndarray:
    """Haar-rotated orthogonal projection of random rank in 1..dim-1."""
    if dim < 2:
        raise ValueError("dim must be at least 2")
    s = Stream(seed)
    u = haar_unitary(dim, s.next_u64())
    cols = u[:, :1 + s.integer(dim - 1)]
    return hermitize(cols @ adjoint(cols))


def nested_projections(dim: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Pair (P, Q) of projections with P <= Q, sharing one Haar frame."""
    if dim < 2:
        raise ValueError("dim must be at least 2")
    s = Stream(seed)
    u = haar_unitary(dim, s.next_u64())
    rank_q = 1 + s.integer(dim - 1)
    rank_p = 1 + s.integer(rank_q)
    p_cols = u[:, :rank_p]
    q_cols = u[:, :rank_q]
    return hermitize(p_cols @ adjoint(p_cols)), hermitize(q_cols @ adjoint(q_cols))


def orthogonal_projections(dim: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Pair (P, Q) of projections with PQ = 0, from disjoint Haar columns."""
    if dim < 2:
        raise ValueError("dim must be at least 2")
    s = Stream(seed)
    u = haar_unitary(dim, s.next_u64())
    rank_p = 1 + s.integer(dim - 1)
    rank_q = 1 + s.integer(dim - rank_p)
    p_cols = u[:, :rank_p]
    q_cols = u[:, rank_p:rank_p + rank_q]
    return hermitize(p_cols @ adjoint(p_cols)), hermitize(q_cols @ adjoint(q_cols))


def random_hermitian(dim: int, seed: int) -> np.ndarray:
    """Unbounded Hermitian sample G + G* with complex Gaussian G."""
    if dim < 1:
        raise ValueError("dim must be at least 1")
    g = complex_gaussian(dim, Stream(seed))
    return g + adjoint(g)


def random_unit_vector(dim: int, seed: int) -> np.ndarray:
    """Haar-uniform unit vector (normalized complex Gaussian)."""
    if dim < 1:
        raise ValueError("dim must be at least 1")
    z = Stream(seed).gaussian(2 * dim)
    x = z[0::2] + 1j * z[1::2]
    return x / np.linalg.norm(x)
