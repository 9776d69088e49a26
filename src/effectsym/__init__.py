"""effectsym: the operator interval [0, I], its symmetries, and their recovery.

A small numpy toolkit for finite-dimensional effect algebra: arithmetic
on effects and projections, synthesis of the canonical symmetry
families (unitary/antiunitary conjugations, optionally complemented or
sign-flipped), linear extension of affine effect maps, and
reconstruction of the underlying (anti)unitary from a black-box map,
with seeded verification batteries for every structural claim.

The package exports what the README quick start and the demos use;
everything else is imported from its module (``effectsym.linalg``,
``effectsym.suites``, ...).
"""

from .effects import (
    NotSummableError,
    as_effect,
    is_extreme,
    jordan_triple,
    leq,
    orthocomplement,
    partial_add,
    positive_negative_parts,
    rank_one_projection,
)
from .extension import EffectMapOracle, boundedness_check, extend_linear
from .recover import (
    check_scaling_identity,
    extract_scaling_function,
    recover_affine,
    recover_triple,
    recover_triple_hermitian,
)
from .sampling import random_effect, random_hermitian, random_projection, random_unit_vector
from .symmetry import (
    SymmetryDescriptor,
    apply_affine_rep,
    apply_symmetry,
    compose,
    gauge_normalize,
    hermitian_basis,
    inverse,
    random_symmetry,
    to_affine_rep,
)

__version__ = "0.1.0"

__all__ = [
    "EffectMapOracle",
    "NotSummableError",
    "SymmetryDescriptor",
    "apply_affine_rep",
    "apply_symmetry",
    "as_effect",
    "boundedness_check",
    "check_scaling_identity",
    "compose",
    "extend_linear",
    "extract_scaling_function",
    "gauge_normalize",
    "hermitian_basis",
    "inverse",
    "is_extreme",
    "jordan_triple",
    "leq",
    "orthocomplement",
    "partial_add",
    "positive_negative_parts",
    "random_effect",
    "random_hermitian",
    "random_projection",
    "random_symmetry",
    "random_unit_vector",
    "rank_one_projection",
    "recover_affine",
    "recover_triple",
    "recover_triple_hermitian",
    "to_affine_rep",
]
