import hashlib
from types import SimpleNamespace

import numpy as np
import pytest

from effectsym.extension import EffectMapOracle
from effectsym.linalg import hermitize
from effectsym.symmetry import AffineMapRep, _encode, apply_symmetry


class QueryLog(list):
    """(input bytes, answer bytes) of every oracle query, in the order asked."""

    def inputs(self):
        return [q for q, _ in self]

    def digest(self):
        """Query count, sha256 of the concatenated inputs, sha256 of the concatenated answers."""
        return (len(self), hashlib.sha256(b"".join(q for q, _ in self)).hexdigest(),
                hashlib.sha256(b"".join(a for _, a in self)).hexdigest())


@pytest.fixture
def oracle_queries(monkeypatch):
    """Log every ``EffectMapOracle`` query the test makes, at the boundary
    where the benchmark counts them: one entry per ``__call__``, whatever
    oracle (a derived ``then`` map included) answers it."""
    log = QueryLog()
    query = EffectMapOracle.__call__

    def logged(self, a):
        out = query(self, a)
        log.append((np.asarray(a, dtype=complex).tobytes(), out.tobytes()))
        return out

    monkeypatch.setattr(EffectMapOracle, "__call__", logged)
    return log


def _loop_hermitian_basis(dim):
    """The basis written as a double loop over the pairs k < l."""
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    mats = np.zeros((dim * dim, dim, dim), dtype=complex)
    for k in range(dim):
        mats[k, k, k] = 1.0
    idx = dim
    for k in range(dim):
        for l in range(k + 1, dim):
            mats[idx, k, l] = inv_sqrt2
            mats[idx, l, k] = inv_sqrt2
            idx += 1
            mats[idx, k, l] = 1j * inv_sqrt2
            mats[idx, l, k] = -1j * inv_sqrt2
            idx += 1
    return mats


def _per_basis_affine_rep(d):
    """The affine form one basis matrix at a time: a validated evaluation
    and an encoding per element of the double-loop basis, then the columns
    stacked."""
    const = hermitize(apply_symmetry(d, np.zeros((d.dim, d.dim))))
    cols = [_encode(apply_symmetry(d, b) - const) for b in _loop_hermitian_basis(d.dim)]
    return AffineMapRep(linear=np.column_stack(cols), constant=const)


@pytest.fixture
def per_basis():
    """Loop forms of ``hermitian_basis`` (``.basis``) and ``to_affine_rep``
    (``.affine_rep``): the references the gather-built basis and the
    stacked flattening are pinned to, bit for bit."""
    return SimpleNamespace(basis=_loop_hermitian_basis, affine_rep=_per_basis_affine_rep)
