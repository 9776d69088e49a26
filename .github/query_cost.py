"""Print how many oracle queries each recovery route asks before its verdict.

Queries are counted at ``EffectMapOracle.__call__``, where the benchmark
counts them.  Each route is run at seed 11 on ``random_symmetry(4, 7,
family)``, which it accepts, and on the shift A -> A + I at dim 4, which
every route refuses.

    python .github/query_cost.py
"""

import numpy as np

from effectsym.extension import EffectMapOracle
from effectsym.recover import MIN_DIM, route
from effectsym.symmetry import random_symmetry

DIM, MAP_SEED, SEED = 4, 7, 11


def queries_to_verdict(family: str, phi: EffectMapOracle) -> tuple[str, int]:
    """The verdict of ``route(family)`` on ``phi`` at ``SEED`` and the queries it asked."""
    ask, count = EffectMapOracle.__call__, 0

    def counted(self, a):
        nonlocal count
        count += 1
        return ask(self, a)

    EffectMapOracle.__call__ = counted
    try:
        return route(family)(phi, seed=SEED).verdict, count
    finally:
        EffectMapOracle.__call__ = ask


if __name__ == "__main__":
    shift = EffectMapOracle(DIM, lambda a: a + np.eye(DIM))
    for family in sorted(MIN_DIM):
        canonical = EffectMapOracle.from_descriptor(random_symmetry(DIM, MAP_SEED, family))
        for label, phi in ((f"random_symmetry({DIM}, {MAP_SEED})", canonical), (f"shift A + I, dim {DIM}", shift)):
            verdict, queries = queries_to_verdict(family, phi)
            print(f"{family:<17} {label:<22} {verdict:<9} {queries} queries")
