"""Acceptance battery: one test per release criterion, at full scale.

Every criterion runs the suite of :mod:`effectsym.suites` that
``effectsym verify`` runs, at the pinned counts, and asserts the suite
constants it relies on; criterion 6 adds by hand only the norm bound on
every affine flag combination, which its suite does not draw.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
PASS/FAIL lines; each test also asserts, so a plain pytest run fails
loudly on any regression.
"""

import time

from effectsym.extension import EffectMapOracle, boundedness_check
from effectsym.linalg import nan_max
from effectsym.rng import Stream
from effectsym import extension, suites
from effectsym.suites import (
    affine_roundtrip_suite,
    closure_suite,
    extension_suite,
    hermitian_sign_suite,
    phase_gauge_suite,
    probe_suite,
    rejection_suite,
    triple_roundtrip_suite,
)
from effectsym.symmetry import AFFINE, random_symmetry


def _report(num: int, name: str, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def test_criterion_1_triple_closure():
    assert suites.EIG_BAND_TOL == 1e-9
    start = time.perf_counter()
    results = [closure_suite(dim, seed=1000 + dim, pairs=1000) for dim in range(2, 9)]
    elapsed = time.perf_counter() - start
    ok = all(r.passed for r in results) and elapsed < 10.0
    lo = min(r.details["min_eigenvalue"] for r in results)
    hi = max(r.details["max_eigenvalue"] for r in results)
    _report(1, "triple closure dims 2-8 x1000", ok,
            f"eig range [{lo:.2e}, {1 - hi:.2e} below 1], {elapsed:.1f}s")


def test_criterion_2_affine_roundtrip():
    assert suites.U_MATCH_TOL == 1e-7
    start = time.perf_counter()
    results = [
        affine_roundtrip_suite(dim, seed=2000 + dim, descriptors=100, tol=1e-8)
        for dim in range(2, 7)
    ]
    elapsed = time.perf_counter() - start
    combos_ok = all(len(r.details["combos_seen"]) == 4 for r in results)
    max_u = max(r.details["max_unitary_distance"] for r in results)
    max_res = max(r.details["max_residual"] for r in results)
    ok = all(r.passed for r in results) and combos_ok and elapsed < 60.0
    _report(2, "affine round-trip dims 2-6 x100", ok,
            f"max ‖U_rec − U_true‖ = {max_u:.2e}, max residual = {max_res:.2e}, {elapsed:.1f}s")


def test_criterion_3_triple_roundtrip():
    assert suites.SCALING_TOL == 1e-9
    results = [
        triple_roundtrip_suite(dim, seed=3000 + dim, descriptors=100, tol=1e-8)
        for dim in range(3, 7)
    ]
    max_res = max(r.details["max_residual"] for r in results)
    max_scaling = max(r.details["max_scaling_deviation"] for r in results)
    ok = all(r.passed for r in results)
    _report(3, "triple round-trip dims 3-6 x100", ok,
            f"max residual = {max_res:.2e}, max |f(λ)−λ| = {max_scaling:.2e}")


def test_criterion_4_sign_dichotomy():
    results = [
        hermitian_sign_suite(dim, seed=4000 + dim, descriptors=100, tol=1e-8)
        for dim in range(3, 7)
    ]
    shift_ok = all(r.details["shift_refused"] for r in results)
    ok = all(r.passed for r in results) and shift_ok
    _report(4, "sign dichotomy dims 3-6 x100 + shift refusal", ok,
            f"max residual = {max(r.details['max_residual'] for r in results):.2e}")


def test_criterion_5_rejection_battery():
    assert suites.REJECTION_EPS == 1e-2
    result = rejection_suite(4, seed=5000, oracles=20)
    ok = result.passed and result.details["complemented_rejected"]
    _report(5, "rejection battery (perturbed + complemented)", ok,
            f"oracles = {result.details['oracles']}")


def test_criterion_6_extension_machinery():
    assert suites.LINEARITY_TOL == 1e-8 and suites.BOUND_SLACK == 1e-9
    assert extension.BOUNDEDNESS_TRIALS == 32
    results = [extension_suite(dim, seed=6000 + dim, probes=200) for dim in (2, 3, 4)]
    max_lin = nan_max(*(r.details["max_linearity_deviation"] for r in results))
    max_bound = nan_max(*(r.details["max_extension_norm"] for r in results))
    # the suite draws its norm-bound maps' flags at random; here every affine combo is covered
    s = Stream(6000)
    for dim in (2, 3, 4):
        for k in range(8):
            d = random_symmetry(dim, s.next_u64(), family=AFFINE,
                                kind=("unitary", "antiunitary")[k % 2],
                                complement=(k // 2) % 2 == 1)
            bound = boundedness_check(EffectMapOracle.from_descriptor(d), seed=s.next_u64())
            max_bound = nan_max(max_bound, bound)
    ok = all(r.passed for r in results) and max_bound <= 2.0 + suites.BOUND_SLACK
    _report(6, "extension linearity + norm bound", ok,
            f"max linearity dev = {max_lin:.2e}, max extension norm = {max_bound:.6f}")


def test_criterion_7_proof_step_probes():
    assert suites.ORDER_TOL == 1e-8
    results = [
        probe_suite(dim, seed=7000 + dim, oracles=25, projection_pairs=250)
        for dim in range(3, 7)
    ]
    total_oracles = sum(r.details["oracles"] for r in results)
    total_pairs = sum(r.details["projection_pairs"] for r in results)
    mismatches = sum(r.details["order_pinching_mismatches"] for r in results)
    ok = all(r.passed for r in results) and total_oracles == 100 and total_pairs == 1000
    _report(7, "preservation probes x100 + order/pinching x1000", ok,
            f"mismatches = {mismatches}")


def test_criterion_8_phase_gauge_invariance():
    assert suites.GAUGE_THETAS == (0.0, 1.0, 2.0, 4.0)
    results = [phase_gauge_suite(dim, seed=8000 + dim) for dim in (3, 4)]
    ok = all(r.passed for r in results)
    _report(8, "phase-gauge invariance θ ∈ {0,1,2,4}", ok)
