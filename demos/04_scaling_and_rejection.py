#!/usr/bin/env python3
"""What the probes catch: scaling-function forensics and the rejection battery.

A genuine triple symmetry scales rank-one projections linearly:
phi(lam P) = lam phi(P).  Corrupted or merely-approximate maps leave
fingerprints the probes are built to see: a bent scaling function, a
broken triple identity, an image of 0 that is neither 0 nor I, an image
of I that is neither I nor -I.
"""

import numpy as np

from effectsym import (
    EffectMapOracle,
    check_scaling_identity,
    extract_scaling_function,
    random_unit_vector,
    rank_one_projection,
    random_symmetry,
    recover_affine,
    recover_triple,
    recover_triple_hermitian,
)
from effectsym.suites import perturbed_conjugation_oracle

np.set_printoptions(precision=4, suppress=True)
dim = 4

# --- a canonical map: f is the identity on the grid ------------------------
# The scaling stage samples the fixed grid {k/16} on the rank-one projection
# onto the Haar unit vector drawn from its seed.
d = random_symmetry(dim, seed=201, family="triple_effects")
phi = EffectMapOracle.from_descriptor(d)
samples = extract_scaling_function(phi, seed=202)
chk = check_scaling_identity(samples)
p = rank_one_projection(random_unit_vector(dim, seed=202))
print("canonical map on the grid {k/16}:")
print("  P drawn from seed 202       :", np.array_equal(samples.projection, p))
print("  f(lam) - lam   max deviation:", f"{chk.max_identity_deviation:.2e}")
print("  f(lam^2)=f(lam)^2 deviation :", f"{chk.max_multiplicative_deviation:.2e}")
print("  f(l^2)+f(1-l^2)=1 deviation :", f"{chk.max_orthoadditive_deviation:.2e}")

# --- a corrupted oracle: f(lam) = lam^2 ------------------------------------
print("\ncorrupted oracle phi(lam P) := lam^2 phi(P):")
p0 = np.diag([1.0, 0, 0, 0]).astype(complex)


def corrupt(a):
    lam = float(np.trace(np.asarray(a)).real)
    return lam * lam * p0


bad = extract_scaling_function(EffectMapOracle(dim, corrupt), seed=204)
bad_chk = check_scaling_identity(bad)
print("  f(k/16), k = 0..16:", bad.values)
print("  identity check passes?", bool(bad_chk),
      f"(max |f(lam) - lam| = {bad_chk.max_identity_deviation:.4f}, at lam = 1/2)")

# --- the rejection battery --------------------------------------------------
print("\nperturbed conjugation phi_eps(A) = (1-eps) UAU* + eps (UAU*)^2, eps = 1e-2:")
eps_oracle = perturbed_conjugation_oracle(dim, seed=203, eps=1e-2)
aff = recover_affine(eps_oracle, seed=1)
tri = recover_triple(eps_oracle, seed=2)
print("  affine route :", aff.verdict, "-", aff.reason[:72])
print("  triple route :", tri.verdict, "-", tri.reason[:72])

print("\nthe complement map A -> I - A is affine but not triple-multiplicative:")
eye = np.eye(dim, dtype=complex)
comp = EffectMapOracle(dim, lambda a: eye - np.asarray(a, dtype=complex))
print("  affine route :", recover_affine(comp, seed=3).verdict)
rep = recover_triple(comp, seed=4)
print("  triple route :", rep.verdict, "-", rep.reason[:60])
print("  witness pair captured?", rep.witness is not None)

print("\nsign dichotomy on the Hermitian domain: the image of I decides,")
print("and anything else is refused:")
neg = EffectMapOracle(dim, lambda a: -np.asarray(a, dtype=complex))
print("  A -> -A   :", recover_triple_hermitian(neg, seed=5).verdict, "(sign -1)")
shift = EffectMapOracle(dim, lambda a: np.asarray(a, dtype=complex) + eye)
rep = recover_triple_hermitian(shift, seed=6)
print("  A -> A + I:", rep.verdict, "-", rep.reason[:48])
