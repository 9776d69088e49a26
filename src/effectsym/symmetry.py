"""Canonical symmetries of the effect interval and their representations.

A :class:`SymmetryDescriptor` is the closed form every admissible
transformation reduces to: conjugation by a unitary ``U`` (kind
"unitary"), or by ``U`` composed with entrywise conjugation in the
canonical basis (kind "antiunitary"), optionally precomposed with the
orthocomplement ``A -> I - A`` (the affine family) or postcomposed with
an overall sign flip (the Hermitian triple family).  ``complement`` and
``sign`` are never both nontrivial.

A descriptor computes U* and the identity once, at construction, for
every evaluation; an evaluation gives the bits of the plain
``sign * (U @ M @ U*)`` (:func:`_symmetry_evaluator` says why its faster
steps keep them).  Each map form has one evaluator factory, which reads
the map once and returns the function that evaluates it:
:func:`_symmetry_evaluator` resolves a descriptor's complement, kind,
sign and ``dot``/``@`` choice, and :func:`_affine_evaluator` binds an
:class:`AffineMapRep`'s gather tables and constant.  The oracles of
:mod:`effectsym.extension` hold these evaluators, and
:func:`_apply_symmetry` and :func:`apply_affine_rep` call them, so each
rule is written once.

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
at ``[k, l]`` and its conjugate at ``[l, k]``.  Each direction is one
gather through index and factor arrays precomputed once per dim: encode
reads the float view of A, multiplies by 1, s or -s and adds each
pair's two terms; decode reads the coordinates (and one appended exact
zero for the diagonal's imaginary parts) straight into the float view
of the output.  Written so, with an exact zero always +0.0, they agree
bit for bit with the trace against :func:`hermitian_basis` on every
finite input.  Only the encode table writes the basis order: the decode
table is the encode table read backwards, :func:`hermitian_basis` is
the decoded identity, and :func:`to_affine_rep` encodes the basis images
with one gather per block of dim of them.  The rule is private:
:func:`_encode_with` and :func:`_decode_with` evaluate an
:class:`AffineMapRep` through tables its evaluator binds once (the GEMV
writes straight into the decode buffer, ahead of its zero slot), and
their gather tables build :func:`hermitian_basis` and
:func:`to_affine_rep`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable

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


def hermitian_basis(dim: int) -> np.ndarray:
    """Trace-orthonormal basis of Hermitian dim x dim matrices.

    Order: E_kk for k = 0..dim-1, then for each pair k < l (lexicographic)
    the symmetric element (E_kl + E_lk)/sqrt(2) followed by the
    antisymmetric element (i E_kl - i E_lk)/sqrt(2).  Shape
    ``(dim**2, dim, dim)``; each call returns a fresh array.
    """
    index, factor = _decode_gather(dim)
    out = np.eye(dim * dim, dim * dim + 1).take(index, axis=1) * factor
    out += 0.0  # as in _decode
    return out.view(complex).reshape(dim * dim, dim, dim)


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.setflags(write=False)
    return arrays


@lru_cache(maxsize=None)
def _encode_gather(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Where :func:`_encode` reads in the float view of a matrix, and the
    factor of each read: the diagonal real parts (factor 1), then the
    first operand of each pair coordinate (factor s), then the second
    (factor s for the real part, -s for the imaginary one)."""
    if dim < 1:
        raise ValueError("dim must be at least 1")
    rows, cols = np.triu_indices(dim, 1)
    upper, lower = 2 * (rows * dim + cols), 2 * (cols * dim + rows)
    index = np.concatenate([
        2 * (dim + 1) * np.arange(dim),
        np.column_stack([upper, upper + 1]).ravel(),
        np.column_stack([lower, lower + 1]).ravel(),
    ])
    factor = np.concatenate([np.ones(dim), np.full(dim * dim - dim, _INV_SQRT2),
                             np.tile([_INV_SQRT2, -_INV_SQRT2], len(rows))])
    return _frozen(index, factor)


@lru_cache(maxsize=None)
def _decode_gather(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Which coordinate each float of the decoded matrix reads, and its
    factor: :func:`_encode_gather` read backwards, so each float that
    encode reads is written from the coordinate it feeds, with the same
    factor.  The floats encode does not read, the diagonal's imaginary
    parts, read index ``dim**2``, an appended exact zero."""
    reads, factors = _encode_gather(dim)
    n2 = dim * dim
    index, factor = np.full(2 * n2, n2, dtype=np.intp), np.ones(2 * n2)
    index[reads] = np.concatenate([np.arange(n2), np.arange(dim, n2)])
    factor[reads] = factors
    return _frozen(index, factor)


def _encode(m: np.ndarray) -> np.ndarray:
    """Coordinates of a validated square matrix; see the module docstring."""
    return _encode_with(m, *_encode_gather(m.shape[0]))


def _encode_with(m: np.ndarray, index: np.ndarray, factor: np.ndarray) -> np.ndarray:
    """:func:`_encode` through the gather tables of ``m``'s dim."""
    n = m.shape[0]
    terms = m.reshape(-1).view(float)[index] * factor
    out = terms[:n * n]
    out[n:] += terms[n * n:]
    out += 0.0  # turns -0.0 into +0.0, as the trace's sum does
    return out


def _decode(c: np.ndarray, dim: int) -> np.ndarray:
    """Hermitian matrix of a coordinate vector of length dim**2."""
    padded = np.zeros(dim * dim + 1)
    padded[:-1] = c
    return _decode_with(padded, dim, *_decode_gather(dim))


def _decode_with(padded: np.ndarray, dim: int, index: np.ndarray, factor: np.ndarray) -> np.ndarray:
    """:func:`_decode` of ``padded[:-1]`` through the gather tables of dim;
    the last slot of ``padded`` holds the exact zero that the diagonal's
    imaginary parts read."""
    out = padded[index] * factor
    out += 0.0  # as in _encode
    return out.view(complex).reshape(dim, dim)


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
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow gives inf or NaN, refused below
            defect = frobenius_norm(adjoint(u) @ u - np.eye(n))
        if not defect <= UNITARITY_TOL * n:  # true on NaN
            raise ValueError(f"matrix is not unitary (defect {defect:.3e})")
        u = u.copy()
        u.setflags(write=False)
        object.__setattr__(self, "unitary", u)
        u_adj, eye = _frozen(adjoint(u), np.eye(n, dtype=complex))  # once for every evaluation
        object.__setattr__(self, "_u_adj", u_adj)
        object.__setattr__(self, "_eye", eye)
        object.__setattr__(self, "_sign", np.complex128(self.sign))

    @property
    def dim(self) -> int:
        return self.unitary.shape[0]


def apply_symmetry(d: SymmetryDescriptor, a) -> np.ndarray:
    """Evaluate the symmetry on a Hermitian matrix.

    The complement is applied inside the conjugation (the map is
    ``A -> Phi(I - A)``), the sign outside.
    """
    return _apply_symmetry(d, as_square_array(a, d.dim))


def _apply_symmetry(d: SymmetryDescriptor, m: np.ndarray) -> np.ndarray:
    """:func:`apply_symmetry` on a validated square array of dim ``d.dim``,
    or on each matrix of a stack of them: :func:`_symmetry_evaluator`'s rule."""
    return _symmetry_evaluator(d)(m)


def _symmetry_evaluator(d: SymmetryDescriptor) -> Callable[[np.ndarray], np.ndarray]:
    """The evaluation of ``d`` on validated arrays, its flags read once.

    One matrix of dim >= 2 goes through ``ndarray.dot``, which skips
    ``@``'s gufunc set-up and gives the same bits (at dim 1 ``dot``
    multiplies as scalars and can keep a -0.0 that ``@`` sums away).
    The sign multiplies in place even when it is +1: ``1 * x`` is a
    complex product, which turns an overflowed entry's other part into
    NaN (``0 * inf``) and a -0.0 real part over a negative imaginary part
    into +0.0, so skipping it would change those bits.  It is the
    descriptor's ``complex128`` sign, the scalar numpy promotes the int to.
    """
    u, u_adj, eye, sign = d.unitary, d._u_adj, d._eye, d._sign
    complement, conj, dot = d.complement, d.kind == ANTIUNITARY, d.dim > 1

    def evaluate(m: np.ndarray) -> np.ndarray:
        if complement:
            m = eye - m
        if conj:
            m = m.conj()
        out = u.dot(m).dot(u_adj) if dot and m.ndim == 2 else u @ m @ u_adj
        out *= sign
        return out

    return evaluate


def gauge_normalize(d: SymmetryDescriptor) -> SymmetryDescriptor:
    """Fix the global phase of ``U``: first entry of column 0 with modulus
    above the cutoff becomes real positive.  The action is unchanged."""
    col = d.unitary[:, 0]
    big = np.flatnonzero(np.abs(col) > GAUGE_CUTOFF)
    z = col[big[0]]
    return replace(d, unitary=d.unitary * (np.conj(z) / abs(z)))


def compose(d1: SymmetryDescriptor, d2: SymmetryDescriptor) -> SymmetryDescriptor:
    """Descriptor of ``A -> d1(d2(A))``.

    Both inputs must live in one family: a result with both a complement
    and a sign flip is refused, by :class:`SymmetryDescriptor`.
    """
    if d1.dim != d2.dim:
        raise ValueError(f"dimension mismatch: {d1.dim} vs {d2.dim}")
    comp = d1.complement ^ d2.complement
    sign = d1.sign * d2.sign
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
        lin = np.asarray(self.linear)
        if lin.dtype.kind not in "iuf":  # a float cast would drop complex parts and read bools as 0, 1
            raise ValueError(f"linear part must be real numbers, got dtype {lin.dtype}")
        lin = lin.astype(float, order="C")  # a fresh array, in the layout a query reads
        if np.count_nonzero(np.isfinite(lin)) != lin.size:
            raise ValueError("linear part has non-finite entries")
        if lin.shape != (n * n, n * n):
            raise ValueError(
                f"linear part has shape {lin.shape}, expected {(n * n, n * n)}"
            )
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
    return _affine_evaluator(rep)(as_square_array(a, rep.dim))


def _affine_evaluator(rep: AffineMapRep) -> Callable[[np.ndarray], np.ndarray]:
    """The evaluation of ``rep`` on validated square arrays, its gather
    tables and constant bound once.  The GEMV writes the coordinates into a
    fresh buffer whose last slot is the exact zero :func:`_decode_with` reads."""
    n, linear, constant = rep.dim, rep.linear, rep.constant
    encode_tables, decode_tables = _encode_gather(n), _decode_gather(n)

    def evaluate(m: np.ndarray) -> np.ndarray:
        padded = np.zeros(n * n + 1)
        np.matmul(linear, _encode_with(m, *encode_tables), out=padded[:-1])
        return _decode_with(padded, n, *decode_tables) + constant

    return evaluate


def to_affine_rep(d: SymmetryDescriptor) -> AffineMapRep:
    """Flatten a descriptor to coordinates: evaluate it on the basis stack,
    dim elements at a time, and encode each image as :func:`_encode` does."""
    const = hermitize(apply_symmetry(d, np.zeros((d.dim, d.dim))))
    n = d.dim
    basis, linear = hermitian_basis(n), np.empty((n * n, n * n))
    index, factor = _encode_gather(n)
    for k in range(0, n * n, n):  # temporaries of n**3 entries, not n**4, stay in cache
        images = _apply_symmetry(d, basis[k:k + n]) - const
        terms = images.reshape(n, -1).view(float).T[index] * factor[:, None]  # column j: image k + j
        terms[n:n * n] += terms[n * n:]
        np.add(terms[:n * n], 0.0, out=linear[:, k:k + n])  # + 0.0 as in _encode
    return AffineMapRep(linear=linear, constant=const)


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
    flag.  A complement or sign the family forbids raises ``ValueError``.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if complement and family != AFFINE:
        raise ValueError(f"{family}-family descriptors have no complement")
    if sign not in (None, 1) and family != TRIPLE_HERMITIAN:
        raise ValueError(f"{family}-family descriptors have sign +1")
    s = Stream(seed)
    u = haar_unitary(dim, s.next_u64())
    if kind is None:
        kind = UNITARY if s.integer(2) == 0 else ANTIUNITARY
    if family == AFFINE and complement is None:
        complement = s.integer(2) == 1
    if family == TRIPLE_HERMITIAN and sign is None:
        sign = 1 if s.integer(2) == 0 else -1
    return gauge_normalize(SymmetryDescriptor(
        kind, u, complement=bool(complement), sign=1 if sign is None else sign))
