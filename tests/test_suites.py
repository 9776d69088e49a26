import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effectsym import recover, suites
from effectsym.effects import jordan_triple
from effectsym.recover import CANONICAL, REJECTED, RecoveryReport, recover_triple_hermitian
from effectsym.rng import Stream
from effectsym.sampling import random_effects
from effectsym.symmetry import TRIPLE_EFFECTS

import test_acceptance

# Key order of each suite's details; the verify JSON is written in this order.
VERIFY_DETAIL_KEYS = {
    "triple_closure": ["dim", "pairs", "min_eigenvalue", "max_eigenvalue"],
    "affine_roundtrip": ["dim", "descriptors", "combos_seen", "max_unitary_distance",
                         "max_residual", "failures"],
    "triple_roundtrip": ["dim", "descriptors", "max_unitary_distance", "max_residual",
                         "max_scaling_deviation", "failures"],
    "hermitian_sign": ["dim", "descriptors", "max_unitary_distance", "max_residual",
                       "shift_refused", "failures"],
    "rejection_battery": ["dim", "oracles", "eps", "complemented_rejected", "failures"],
    "scaling_grid": ["dim", "oracles", "max_identity_deviation", "max_multiplicative_deviation",
                     "max_orthoadditive_deviation", "failures"],
    "extension": ["dim", "oracles", "probes", "max_linearity_deviation", "max_extension_norm",
                  "failures"],
    "projection_probes": ["dim", "oracles", "projection_pairs", "order_pinching_mismatches",
                          "failures"],
    "phase_gauge": ["dim", "thetas", "failures"],
}


def plain(value):
    """True iff ``value`` is built from Python's own JSON types only."""
    if type(value) in (list, tuple):
        return all(map(plain, value))
    if type(value) is dict:
        return all(type(k) is str and plain(v) for k, v in value.items())
    return value is None or type(value) in (bool, int, float, str)


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), trials=st.integers(1, 12))
def test_suite_results_hold_plain_python_values(dim, seed, trials):
    for r in suites.run_verify_suites(dim, seed, trials):
        assert type(r.name) is str and type(r.passed) is bool and type(r.skipped) is bool
        assert plain(r.details), (r.name, r.details)


def test_verify_suite_detail_keys_are_pinned():
    results = suites.run_verify_suites(3, 0, 5)
    assert {r.name: list(r.details) for r in results} == VERIFY_DETAIL_KEYS
    assert list(VERIFY_DETAIL_KEYS) == [r.name for r in results]
    assert all(r.passed and not r.skipped for r in results)


# Query count and sha256 of the concatenated inputs and of the concatenated
# answers of every oracle query of run_verify_suites(3, 1, trials=10),
# pinned from the evaluation written as ``sign * (U @ M @ U*)``: the battery
# asks the same queries in the same order and gets the same bits back.
# Re-pinned when the affine route moved φ(0) and the rebuild to after the
# walk's first trial, which reorders its queries and keeps their multiset.
VERIFY_QUERY_SEQUENCE = (2870, "a2ed426844aa8911c8923aaa97da88b460029d85ef0e05c40ea21e9bcff7db90",
                         "a92203f1f8416ab4925f7c2c4e6502d89c99dab42d1bbd05c81f21adbe58e358")


def test_verify_battery_query_sequence_is_pinned(oracle_queries):
    assert all(r.passed for r in suites.run_verify_suites(3, 1, trials=10))
    assert oracle_queries.digest() == VERIFY_QUERY_SEQUENCE


@pytest.mark.parametrize("bad, match", [
    ({"dim": 1}, "verify needs dim >= 2"),
    ({"trials": 0}, "trials must be at least 1"),
    ({"tol": math.nan}, "tol must be finite and positive"),
    ({"tol": math.inf}, "tol must be finite and positive"),
    ({"tol": 0.0}, "tol must be finite and positive"),
], ids=["dim1", "trials0", "tol-nan", "tol-inf", "tol0"])
def test_run_verify_suites_refuses_a_bad_run(bad, match):
    with pytest.raises(ValueError, match=match):
        suites.run_verify_suites(**{"dim": 3, "seed": 1, "trials": 1, **bad})


def test_roundtrip_flag_mismatch_fails_the_suite(monkeypatch):
    def sign_flipped(phi, **kw):
        report = recover_triple_hermitian(phi, **kw)
        if not report.canonical:
            return report
        return replace(report, descriptor=replace(report.descriptor, sign=-report.descriptor.sign))

    monkeypatch.setattr(recover, "recover_triple_hermitian", sign_flipped)
    result = suites.hermitian_sign_suite(3, seed=1, descriptors=2)
    assert not result.passed
    assert result.details["failures"] == [
        "descriptor 0: got kind unitary, sign -1",
        "descriptor 1: got kind antiunitary, sign -1",
    ]
    assert result.details["max_unitary_distance"] == 0.0


def test_rejection_failures_name_the_route(monkeypatch):
    monkeypatch.setattr(recover, "recover_triple", lambda phi, **kw: RecoveryReport(CANONICAL, TRIPLE_EFFECTS))
    result = suites.rejection_suite(3, seed=1, oracles=1)
    assert not result.passed
    assert result.details["failures"] == [
        "oracle 0: triple_effects route accepted a perturbed map",
        "complemented map was not rejected with a triple-identity witness",
    ]


def test_extension_failure_names_only_the_nonlinear_oracle():
    """Oracle 0's check answers the defect and oracle 1's a clean 0; a NaN fails closed."""
    for check, defect, key, failure in [
        ("linearity_defect", 1e-3, "max_linearity_deviation", "oracle 0: linearity deviation 1.000e-03"),
        ("linearity_defect", math.nan, "max_linearity_deviation", "oracle 0: linearity deviation nan"),
        ("boundedness_check", math.nan, "max_extension_norm", "oracle 0: extension norm nan above 2"),
    ]:
        answers = iter([defect, 0.0])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(suites, check, lambda *args, **kwargs: next(answers))
            result = suites.extension_suite(3, 5, probes=2)
        assert not result.passed
        assert result.details["failures"] == [failure]
        assert np.array_equal(result.details[key], defect, equal_nan=True)
        assert result.details["oracles"] == 2


@pytest.mark.parametrize("module, check", [
    (suites, "linearity_defect"),
    (suites, "boundedness_check"),
    (test_acceptance, "boundedness_check"),  # the norm bound it checks by hand
], ids=["suite linearity", "suite bound", "flag-combo bound"])
def test_acceptance_criterion_6_fails_on_a_nan_defect(monkeypatch, module, check):
    """Criterion 6 runs the extension suite, so it fails closed where the suite does."""
    monkeypatch.setattr(module, check, lambda *args, **kwargs: math.nan)
    with pytest.raises(AssertionError, match="ACCEPTANCE 6 .*: FAIL"):
        test_acceptance.test_criterion_6_extension_machinery()


@pytest.mark.parametrize("dim", range(2, 9))
def test_closure_stack_matches_the_per_pair_jordan_triple_loop(dim):
    for seed in range(3):
        ab = random_effects(dim, Stream(seed).u64_block(2 * 100))
        w = np.linalg.eigvalsh(np.array([jordan_triple(a, b) for a, b in zip(ab[0::2], ab[1::2])]))
        details = suites.closure_suite(dim, seed, pairs=100).details
        assert (details["min_eigenvalue"], details["max_eigenvalue"]) == (float(w.min()), float(w.max()))


def test_suites_run_the_routines_bound_in_the_recover_module(monkeypatch):
    families = []

    def stub(family):
        def run(phi, **kw):
            families.append(family)
            return RecoveryReport(REJECTED, family, "stub")
        return run

    for name in ("recover_affine", "recover_triple", "recover_triple_hermitian"):
        monkeypatch.setattr(recover, name, stub(name))
    suites.rejection_suite(3, seed=1, oracles=1)
    suites.hermitian_sign_suite(3, seed=1, descriptors=1)
    assert families == ["recover_affine", "recover_triple", "recover_triple",
                        "recover_triple_hermitian", "recover_triple_hermitian"]
