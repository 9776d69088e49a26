import hashlib

import numpy as np
import pytest

from effectsym.extension import EffectMapOracle


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
