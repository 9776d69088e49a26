"""Canonical symmetries of the effect interval and their representations.

A :class:`SymmetryDescriptor` is the closed form every admissible
transformation reduces to: conjugation by a unitary ``U`` (kind
"unitary"), or by ``U`` composed with entrywise conjugation in the
canonical basis (kind "antiunitary"), optionally precomposed with the
orthocomplement ``A -> I - A`` (the affine family) or postcomposed with
an overall sign flip (the Hermitian triple family).  ``complement`` and
``sign`` are never both nontrivial.

Descriptors carry a gauge: ``U`` and ``exp(i theta) U`` act identically,
so :func:`gauge_normalize` pins the phase by making the first
sufficiently large entry of the first column real positive, which makes
descriptors directly comparable.

The same maps can be flattened to a :class:`AffineMapRep`: affine maps
on Hermitian matrices are real-linear in the coordinates of the
trace-orthonormal basis from :func:`hermitian_basis`, so a real
``dim^2 x dim^2`` matrix plus a constant is a faithful, serializable
black-box format.

The coordinates c_k = tr(B_k A) need no basis stack.  With s = 1/sqrt(2)
they are, in order:

* ``A[k, k].real`` for k = 0..dim-1;
* then for each pair k < l in lexicographic order (row k, then column l)
  two entries, ``A[k, l].real * s + A[l, k].real * s`` followed by
  ``A[k, l].imag * s - A[l, k].imag * s``.

For Hermitian A the pair is sqrt(2) Re A[k, l], sqrt(2) Im A[k, l].
Decoding writes the diagonal back and puts ``c_sym * s + i c_anti * s``
at ``[k, l]`` and its conjugate at ``[l, k]``.  Both directions are
O(dim^2) index gathers and scatters; written as above, with an exact
zero always +0.0, they agree bit for bit with the trace against
:func:`hermitian_basis` on every finite input.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .linalg import adjoint, as_square_array, frobenius_norm, hermitize
from .rng import Stream
from .sampling import haar_unitary

UNITARY = "unitary"
ANTIUNITARY = "antiunitary"

UNITARITY_TOL = 1e-10
GAUGE_CUTOFF = 1e-8

_INV_SQRT2 = 1.0 / np.sqrt(2.0)

AFFINE = "affine"
TRIPLE_EFFECTS = "triple_effects"
TRIPLE_HERMITIAN = "triple_hermitian"
FAMILIES = (AFFINE, TRIPLE_EFFECTS, TRIPLE_HERMITIAN)


@lru_cache(maxsize=None)
def hermitian_basis(dim: int) -> np.ndarray:
    """Trace-orthonormal basis of Hermitian dim x dim matrices.

    Order: E_kk for k = 0..dim-1, then for each pair k < l (lexicographic)
    the symmetric element (E_kl + E_lk)/sqrt(2) followed by the
    antisymmetric element (i E_kl - i E_lk)/sqrt(2).  Shape
    ``(dim**2, dim, dim)``; the array is read-only and cached.
    """
    if dim < 1:
        raise ValueError("dim must be at least 1")
    mats = np.zeros((dim * dim, dim, dim), dtype=complex)
    for k in range(dim):
        mats[k, k, k] = 1.0
    idx = dim
    for k in range(dim):
        for l in range(k + 1, dim):
            mats[idx, k, l] = _INV_SQRT2
            mats[idx, l, k] = _INV_SQRT2
            idx += 1
            mats[idx, k, l] = 1j * _INV_SQRT2
            mats[idx, l, k] = -1j * _INV_SQRT2
            idx += 1
    mats.setflags(write=False)
    return mats


@lru_cache(maxsize=None)
def _index_pairs(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Diagonal indices and the rows and columns of the pairs k < l."""
    if dim < 1:
        raise ValueError("dim must be at least 1")
    diag = np.arange(dim)
    rows, cols = np.triu_indices(dim, 1)
    for a in (diag, rows, cols):
        a.setflags(write=False)
    return diag, rows, cols


def _encode(m: np.ndarray) -> np.ndarray:
    """Coordinates of a validated square matrix; see the module docstring."""
    n = m.shape[0]
    _, rows, cols = _index_pairs(n)
    upper, lower = m[rows, cols], m[cols, rows]
    out = np.empty(n * n)
    out[:n] = m.diagonal().real
    out[n::2] = upper.real * _INV_SQRT2 + lower.real * _INV_SQRT2
    out[n + 1::2] = upper.imag * _INV_SQRT2 - lower.imag * _INV_SQRT2
    out += 0.0  # turns -0.0 into +0.0, as the trace's sum does
    return out


def _decode(c: np.ndarray, dim: int) -> np.ndarray:
    """Hermitian matrix of a coordinate vector of length dim**2."""
    diag, rows, cols = _index_pairs(dim)
    sym = c[dim::2] * _INV_SQRT2
    anti = c[dim + 1::2] * _INV_SQRT2
    out = np.zeros((dim, dim), dtype=complex)
    out.real[diag, diag] = c[:dim]
    out.real[rows, cols] = sym
    out.real[cols, rows] = sym
    out.imag[rows, cols] = anti
    out.imag[cols, rows] = -anti
    out += 0.0  # as in _encode
    return out


def encode_hermitian(a) -> np.ndarray:
    """Real coordinates c_k = tr(B_k A) of a Hermitian matrix."""
    return _encode(as_square_array(a))


def decode_hermitian(coords, dim: int) -> np.ndarray:
    """Inverse of :func:`encode_hermitian`."""
    c = np.asarray(coords, dtype=float)
    if c.shape != (dim * dim,):
        raise ValueError(f"expected {dim * dim} coordinates, got shape {c.shape}")
    return _decode(c, dim)


@dataclass(frozen=True)
class SymmetryDescriptor:
    """Closed form of a canonical symmetry; see the module docstring."""

    kind: str
    unitary: np.ndarray
    complement: bool = False
    sign: int = 1

    def __post_init__(self):
        if self.kind not in (UNITARY, ANTIUNITARY):
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")
        if self.complement and self.sign == -1:
            raise ValueError("complement and sign flip cannot both be set")
        u = as_square_array(self.unitary)
        n = u.shape[0]
        defect = frobenius_norm(adjoint(u) @ u - np.eye(n))
        if defect > UNITARITY_TOL * n:
            raise ValueError(f"matrix is not unitary (defect {defect:.3e})")
        u = u.copy()
        u.setflags(write=False)
        object.__setattr__(self, "unitary", u)

    @property
    def dim(self) -> int:
        return self.unitary.shape[0]


def apply_symmetry(d: SymmetryDescriptor, a) -> np.ndarray:
    """Evaluate the symmetry on a Hermitian matrix.

    The complement is applied inside the conjugation (the map is
    ``A -> Phi(I - A)``), the sign outside.
    """
    m = as_square_array(a)
    if m.shape[0] != d.dim:
        raise ValueError(f"dimension mismatch: descriptor {d.dim}, input {m.shape[0]}")
    return _apply_symmetry(d, m)


def _apply_symmetry(d: SymmetryDescriptor, m: np.ndarray) -> np.ndarray:
    """:func:`apply_symmetry` on a validated square array of dim ``d.dim``."""
    if d.complement:
        m = np.eye(d.dim, dtype=complex) - m
    if d.kind == ANTIUNITARY:
        m = np.conj(m)
    out = d.unitary @ m @ adjoint(d.unitary)
    return d.sign * out


def gauge_normalize(d: SymmetryDescriptor) -> SymmetryDescriptor:
    """Fix the global phase of ``U``: first entry of column 0 with modulus
    above the cutoff becomes real positive.  The action is unchanged."""
    col = d.unitary[:, 0]
    big = np.flatnonzero(np.abs(col) > GAUGE_CUTOFF)
    z = col[big[0]]
    return replace(d, unitary=d.unitary * (np.conj(z) / abs(z)))


def compose(d1: SymmetryDescriptor, d2: SymmetryDescriptor) -> SymmetryDescriptor:
    """Descriptor of ``A -> d1(d2(A))``.

    Both inputs must live in one family: the result may carry a
    complement or a sign flip, never both.
    """
    if d1.dim != d2.dim:
        raise ValueError(f"dimension mismatch: {d1.dim} vs {d2.dim}")
    comp = d1.complement ^ d2.complement
    sign = d1.sign * d2.sign
    if comp and sign == -1:
        raise ValueError("cannot compose across families (complement with sign flip)")
    if d1.kind == ANTIUNITARY:
        u = d1.unitary @ np.conj(d2.unitary)
    else:
        u = d1.unitary @ d2.unitary
    kind = UNITARY if d1.kind == d2.kind else ANTIUNITARY
    return gauge_normalize(SymmetryDescriptor(kind, u, complement=comp, sign=sign))


def inverse(d: SymmetryDescriptor) -> SymmetryDescriptor:
    """Descriptor undoing ``d`` (kind, complement and sign are involutive).

    The undoing conjugation uses U* for the unitary kind and the plain
    transpose for the antiunitary kind (so that V conj(U) = I).
    """
    u = d.unitary.T if d.kind == ANTIUNITARY else adjoint(d.unitary)
    return gauge_normalize(SymmetryDescriptor(d.kind, u, complement=d.complement, sign=d.sign))


@dataclass(frozen=True)
class AffineMapRep:
    """Affine map on Hermitian matrices in coordinate form.

    ``linear`` is real of shape ``(dim^2, dim^2)`` acting on
    :func:`hermitian_basis` coordinates; ``constant`` is Hermitian.  The
    represented map is ``A -> decode(linear @ encode(A)) + constant``.
    """

    linear: np.ndarray
    constant: np.ndarray

    def __post_init__(self):
        c = as_square_array(self.constant)
        n = c.shape[0]
        lin = np.asarray(self.linear, dtype=float)
        if lin.shape != (n * n, n * n):
            raise ValueError(
                f"linear part has shape {lin.shape}, expected {(n * n, n * n)}"
            )
        if not np.all(np.isfinite(lin)):
            raise ValueError("linear part has non-finite entries")
        lin = lin.copy()
        lin.setflags(write=False)
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "linear", lin)
        object.__setattr__(self, "constant", c)

    @property
    def dim(self) -> int:
        return self.constant.shape[0]


def apply_affine_rep(rep: AffineMapRep, a) -> np.ndarray:
    """Evaluate the represented map; ``a`` is validated once, here."""
    m = as_square_array(a)
    if m.shape[0] != rep.dim:
        raise ValueError(f"dimension mismatch: rep {rep.dim}, input {m.shape[0]}")
    return _apply_affine_rep(rep, m)


def _apply_affine_rep(rep: AffineMapRep, m: np.ndarray) -> np.ndarray:
    """:func:`apply_affine_rep` on a validated square array of dim ``rep.dim``."""
    return _decode(rep.linear @ _encode(m), rep.dim) + rep.constant


def to_affine_rep(d: SymmetryDescriptor) -> AffineMapRep:
    """Flatten a descriptor to coordinates by evaluating it on the basis."""
    const = hermitize(apply_symmetry(d, np.zeros((d.dim, d.dim))))
    cols = [encode_hermitian(apply_symmetry(d, b) - const) for b in hermitian_basis(d.dim)]
    return AffineMapRep(linear=np.column_stack(cols), constant=const)


def random_symmetry(
    dim: int,
    seed: int,
    family: str = AFFINE,
    kind: str | None = None,
    complement: bool | None = None,
    sign: int | None = None,
) -> SymmetryDescriptor:
    """Seeded random descriptor with a Haar unitary, legal for ``family``.

    Unspecified flags are drawn from the stream (only where the family
    permits a choice).  Draw order: Haar seed, then kind, then the free
    flag.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    s = Stream(seed)
    u = haar_unitary(dim, s.next_u64())
    if kind is None:
        kind = UNITARY if s.integer(2) == 0 else ANTIUNITARY
    if family == AFFINE:
        if sign not in (None, 1):
            raise ValueError("affine-family descriptors have sign +1")
        if complement is None:
            complement = s.integer(2) == 1
        return gauge_normalize(SymmetryDescriptor(kind, u, complement=complement, sign=1))
    if family == TRIPLE_EFFECTS:
        if complement not in (None, False) or sign not in (None, 1):
            raise ValueError("triple-family descriptors have no complement or sign")
        return gauge_normalize(SymmetryDescriptor(kind, u))
    if complement not in (None, False):
        raise ValueError("Hermitian-family descriptors have no complement")
    if sign is None:
        sign = 1 if s.integer(2) == 0 else -1
    return gauge_normalize(SymmetryDescriptor(kind, u, sign=sign))
