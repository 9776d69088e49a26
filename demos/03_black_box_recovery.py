#!/usr/bin/env python3
"""Recover the hidden (anti)unitary from a black-box map.

Three oracles are built from hidden descriptors, one per family, and
handed to the recovery routines as bare callables.  Each routine probes
the structure it needs (affinity, the image of 0 or I, the triple
identity, projection preservation), rebuilds U column by column from
rank-one projections, and verifies the canonical form on fresh samples.
"""

import numpy as np

from effectsym import (
    EffectMapOracle,
    apply_symmetry,
    boundedness_check,
    extend_linear,
    gauge_normalize,
    random_hermitian,
    random_symmetry,
    recover_affine,
    recover_triple,
    recover_triple_hermitian,
)
from effectsym.recover import SCALING_GRID

np.set_printoptions(precision=4, suppress=True)
dim = 4


def summarize(name, report, d_true):
    print(f"\n{name}: verdict = {report.verdict}")
    if not report.canonical:
        print("  reason:", report.reason)
        return
    d = report.descriptor
    dist = np.linalg.norm(gauge_normalize(d).unitary - gauge_normalize(d_true).unitary)
    print(f"  kind = {d.kind}, complement = {d.complement}, sign = {d.sign:+d}")
    print(f"  ||U_recovered - U_hidden|| = {dist:.2e} (after gauge normalization)")
    print(f"  max residual over fresh samples = {report.max_residual:.2e}")


# --- affine family: an antiunitary conjugation precomposed with I - A ----
hidden = random_symmetry(dim, seed=101, family="affine", kind="antiunitary", complement=True)
oracle = EffectMapOracle.from_descriptor(hidden)
report = recover_affine(oracle, seed=7)
summarize("affine recovery", report, hidden)

print("\n  the recentered linear extension of any effect-to-effect map")
print("  stays bounded by 2 on effects:",
      f"{boundedness_check(oracle):.4f}")

# --- triple family on effects --------------------------------------------
hidden_t = random_symmetry(dim, seed=102, family="triple_effects")
report_t = recover_triple(EffectMapOracle.from_descriptor(hidden_t), seed=8)
summarize("triple recovery", report_t, hidden_t)
print("  probe flags all true:", report_t.probe.all_preserved,
      f"({report_t.probe.samples_used} projection samples)")
dev = float(np.max(np.abs(report_t.scaling.values - SCALING_GRID)))
print(f"  scaling function max |f(lam) - lam| on the 17-point grid: {dev:.2e}")

# --- Hermitian triple family (sign can flip) ------------------------------
hidden_h = random_symmetry(dim, seed=103, family="triple_hermitian", sign=-1)
report_h = recover_triple_hermitian(EffectMapOracle.from_descriptor(hidden_h), seed=9)
summarize("Hermitian-domain recovery", report_h, hidden_h)

# --- the recovered descriptor extends linearly beyond the interval --------
print("\nLinear extension: evaluate the affine oracle's extension on an")
print("unbounded Hermitian matrix and compare with the hidden map:")
zero_fixing = random_symmetry(dim, seed=104, family="affine", complement=False)
phi = EffectMapOracle.from_descriptor(zero_fixing)
h = 3.0 * random_hermitian(dim, seed=105)
print("  ||extend(phi)(H) - phi_canonical(H)|| =",
      np.linalg.norm(extend_linear(phi, h) - apply_symmetry(zero_fixing, h)))
