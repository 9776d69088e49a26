import math

import numpy as np
import pytest

from effectsym.extension import EffectMapOracle
from effectsym.linalg import adjoint, frobenius_norm, operator_norm
from effectsym.recover import (
    REJECTED,
    ReconstructionError,
    SCALING_GRID,
    check_scaling_identity,
    extract_scaling_function,
    preservation_probe,
    reconstruct_unitary_from_projection_action,
    recover_affine,
    recover_triple,
    recover_triple_hermitian,
    verify_descriptor,
)
from effectsym.rng import Stream
from effectsym.sampling import haar_unitary, random_unit_vector
from effectsym.symmetry import (
    AFFINE,
    ANTIUNITARY,
    TRIPLE_EFFECTS,
    TRIPLE_HERMITIAN,
    UNITARY,
    SymmetryDescriptor,
    gauge_normalize,
    random_symmetry,
)


def oracle(dim, func, label=""):
    return EffectMapOracle(dim, func, label=label)


def identity_oracle(dim):
    return oracle(dim, lambda a: np.asarray(a, dtype=complex))


def conjugation_oracle(u):
    return oracle(u.shape[0], lambda a: u @ np.asarray(a, dtype=complex) @ adjoint(u))


def u_distance(d_rec, d_true):
    return frobenius_norm(gauge_normalize(d_rec).unitary - gauge_normalize(d_true).unitary)


# ---------------------------------------------------------------- probes


def test_preservation_probe_identity():
    report = preservation_probe(identity_oracle(4), trials=10)
    assert report.all_preserved
    assert report.samples_used == 10
    assert report.witnesses == ()


def test_preservation_probe_conjugation():
    u0 = haar_unitary(4, 3)
    report = preservation_probe(conjugation_oracle(u0), trials=10)
    assert report.all_preserved


def test_preservation_probe_halving_map():
    report = preservation_probe(oracle(3, lambda a: 0.5 * np.asarray(a, complex)), trials=6)
    assert not report.projections_preserved
    assert report.witnesses
    assert any(w.check == "projections" for w in report.witnesses)
    assert not report.orthocomplement_preserved
    assert set(report.failed_checks()) >= {"projections", "orthocomplement"}


def test_order_reversing_map_gets_a_finite_order_defect():
    eye = np.eye(3, dtype=complex)
    report = preservation_probe(oracle(3, lambda a: eye - np.asarray(a, complex)), trials=8)
    assert not report.order_preserved
    order = [w for w in report.witnesses if w.check == "order"]
    assert order
    for w in order:
        # phi(Q) - phi(P) = P - Q for nested P < Q, whose lowest eigenvalue is -1
        assert w.defect == pytest.approx(1.0, abs=1e-12)


def test_probe_witnesses_iff_flags_false():
    good = preservation_probe(identity_oracle(3), trials=5)
    assert good.all_preserved and not good.witnesses
    bad = preservation_probe(oracle(3, lambda a: 0.5 * np.asarray(a, complex)), trials=5)
    failed = set(bad.failed_checks())
    assert failed == {w.check for w in bad.witnesses}


# ---------------------------------------------------------- reconstruction


def test_reconstruct_identity():
    u, kind = reconstruct_unitary_from_projection_action(identity_oracle(3), 3)
    assert kind == UNITARY
    assert np.allclose(u, np.eye(3), atol=1e-12)


def test_reconstruct_entrywise_conjugation():
    u, kind = reconstruct_unitary_from_projection_action(
        oracle(3, lambda a: np.conj(np.asarray(a, dtype=complex))), 3
    )
    assert kind == ANTIUNITARY
    assert np.allclose(u, np.eye(3), atol=1e-12)


def test_reconstruct_haar_conjugation_roundtrip():
    u0 = haar_unitary(4, 7)
    action = conjugation_oracle(u0)
    u, kind = reconstruct_unitary_from_projection_action(action, 4, tol=1e-9)
    assert kind == UNITARY
    d_rec = SymmetryDescriptor(UNITARY, u)
    d_true = SymmetryDescriptor(UNITARY, u0)
    assert u_distance(d_rec, d_true) <= 1e-9
    # residual on fresh rank-one projections
    for seed in range(5):
        x = random_unit_vector(4, seed + 100)
        px = np.outer(x, np.conj(x))
        assert frobenius_norm(action(px) - u @ px @ adjoint(u)) <= 1e-12


def test_reconstruct_rejects_non_projection_image():
    with pytest.raises(ReconstructionError, match="projection preservation"):
        reconstruct_unitary_from_projection_action(
            oracle(3, lambda a: 0.5 * np.asarray(a, complex)), 3
        )


def test_reconstruct_rejects_non_orthogonal_images():
    e0 = np.zeros((3, 3), dtype=complex)
    e0[0, 0] = 1.0

    def collapse(a):
        # every rank-one projection lands on the same projection
        return e0

    with pytest.raises(ReconstructionError, match="not.*orthogonal|orthogonal"):
        reconstruct_unitary_from_projection_action(oracle(3, collapse), 3)


def test_reconstruct_needs_dim_two():
    with pytest.raises(ValueError):
        reconstruct_unitary_from_projection_action(identity_oracle(1), 1)


# ------------------------------------------------------------- affine


def test_recover_affine_identity():
    report = recover_affine(identity_oracle(3), seed=1)
    assert report.canonical
    d = report.descriptor
    assert d.kind == UNITARY and not d.complement and d.sign == 1
    assert np.allclose(d.unitary, np.eye(3), atol=1e-10)
    assert report.max_residual <= 1e-12


def test_recover_affine_pure_complement():
    eye = np.eye(3, dtype=complex)
    report = recover_affine(oracle(3, lambda a: eye - np.asarray(a, complex)), seed=2)
    assert report.canonical
    assert report.descriptor.complement
    # unitary equals identity up to global phase
    gid = gauge_normalize(report.descriptor).unitary
    assert np.allclose(gid, np.eye(3), atol=1e-10)


def test_recover_affine_antiunitary_complement_roundtrip():
    u0 = haar_unitary(5, 42)
    eye = np.eye(5, dtype=complex)

    def phi(a):
        return u0 @ (eye - np.conj(np.asarray(a, dtype=complex))) @ adjoint(u0)

    report = recover_affine(oracle(5, phi), seed=3)
    assert report.canonical
    assert report.descriptor.kind == ANTIUNITARY
    assert report.descriptor.complement
    assert report.max_residual <= 1e-8
    assert u_distance(report.descriptor, SymmetryDescriptor(ANTIUNITARY, u0, complement=True)) <= 1e-8


def test_recover_affine_rejects_nonaffine():
    phi = oracle(3, lambda a: np.asarray(a, complex) @ np.asarray(a, complex))
    report = recover_affine(phi, seed=4)
    assert not report.canonical
    assert "affine" in report.reason
    assert report.witness is not None


def test_recover_affine_rejects_shifted_zero():
    eye = np.eye(3, dtype=complex)
    phi = oracle(3, lambda a: 0.5 * np.asarray(a, complex) + 0.25 * eye)
    report = recover_affine(phi, seed=5)
    assert not report.canonical
    assert "φ(0) not in {0, I}" in report.reason


def test_recover_affine_rejects_halving():
    report = recover_affine(oracle(3, lambda a: 0.5 * np.asarray(a, complex)), seed=6)
    assert not report.canonical
    assert "projection preservation" in report.reason


def test_recover_affine_needs_dim_two():
    with pytest.raises(ValueError):
        recover_affine(identity_oracle(1))


def test_recover_affine_dim_two_works():
    d = random_symmetry(2, 17, family=AFFINE, kind=ANTIUNITARY, complement=True)
    report = recover_affine(EffectMapOracle.from_descriptor(d), seed=7)
    assert report.canonical
    assert report.descriptor.kind == ANTIUNITARY and report.descriptor.complement


# ------------------------------------------------------------- triple


def test_recover_triple_identity():
    report = recover_triple(identity_oracle(3), seed=1)
    assert report.canonical
    assert report.descriptor.kind == UNITARY
    assert np.allclose(report.descriptor.unitary, np.eye(3), atol=1e-10)
    assert report.probe is not None and report.probe.all_preserved
    assert report.scaling is not None


def test_recover_triple_entrywise_conjugation():
    report = recover_triple(oracle(3, lambda a: np.conj(np.asarray(a, complex))), seed=2)
    assert report.canonical
    assert report.descriptor.kind == ANTIUNITARY


def test_recover_triple_rejects_complement_with_witness():
    eye = np.eye(3, dtype=complex)
    report = recover_triple(oracle(3, lambda a: eye - np.asarray(a, complex)), seed=3)
    assert not report.canonical
    assert "triple identity" in report.reason
    assert report.witness is not None
    a, b = report.witness
    lhs = eye - a @ b @ a
    rhs = (eye - a) @ (eye - b) @ (eye - a)
    assert frobenius_norm(lhs - rhs) > 1e-9


def test_recover_triple_refuses_dim_two():
    with pytest.raises(ValueError):
        recover_triple(identity_oracle(2))


def test_recover_triple_roundtrip_both_kinds():
    for seed, kind in [(5, UNITARY), (6, ANTIUNITARY)]:
        d = random_symmetry(4, seed, family=TRIPLE_EFFECTS, kind=kind)
        report = recover_triple(EffectMapOracle.from_descriptor(d), seed=seed + 10)
        assert report.canonical
        assert report.descriptor.kind == kind
        assert u_distance(report.descriptor, d) <= 1e-7
        assert report.max_residual <= 1e-8
        scaling_dev = float(np.max(np.abs(report.scaling.values - report.scaling.lambdas)))
        assert scaling_dev <= 1e-9


# -------------------------------------------------------- hermitian family


def test_recover_hermitian_negation():
    report = recover_triple_hermitian(oracle(3, lambda a: -np.asarray(a, complex)), seed=1)
    assert report.canonical
    assert report.descriptor.sign == -1
    assert report.descriptor.kind == UNITARY
    assert np.allclose(gauge_normalize(report.descriptor).unitary, np.eye(3), atol=1e-10)


def test_recover_hermitian_antiunitary_roundtrip():
    u0 = haar_unitary(4, 9)
    phi = oracle(4, lambda a: u0 @ np.conj(np.asarray(a, complex)) @ adjoint(u0))
    report = recover_triple_hermitian(phi, seed=2)
    assert report.canonical
    assert report.descriptor.kind == ANTIUNITARY
    assert report.descriptor.sign == 1
    assert u_distance(report.descriptor, SymmetryDescriptor(ANTIUNITARY, u0)) <= 1e-7


def test_recover_hermitian_rejects_shift():
    eye = np.eye(3, dtype=complex)
    report = recover_triple_hermitian(oracle(3, lambda a: np.asarray(a, complex) + eye), seed=3)
    assert not report.canonical
    assert "φ(I) ∉ {I, −I}" in report.reason


def test_recover_hermitian_refuses_dim_two():
    with pytest.raises(ValueError):
        recover_triple_hermitian(identity_oracle(2))


# ------------------------------------------------------------- scaling


def test_scaling_identity_map():
    p = np.diag([1.0, 0.0, 0.0]).astype(complex)
    samples = extract_scaling_function(identity_oracle(3), p, [0.0, 0.25, 0.5, 1.0])
    assert np.allclose(samples.values, [0.0, 0.25, 0.5, 1.0], atol=1e-14)
    assert np.max(samples.residuals) < 1e-14
    chk = check_scaling_identity(samples)
    assert chk.ok and chk.max_identity_deviation < 1e-14


def test_scaling_canonical_descriptor_grid():
    d = random_symmetry(3, 31, family=TRIPLE_EFFECTS)
    phi = EffectMapOracle.from_descriptor(d)
    p = np.outer(*(lambda x: (x, np.conj(x)))(random_unit_vector(3, 5)))
    samples = extract_scaling_function(phi, p, SCALING_GRID)
    chk = check_scaling_identity(samples)
    assert chk.ok
    assert chk.max_identity_deviation <= 1e-9
    assert chk.max_multiplicative_deviation <= 1e-9
    assert chk.max_orthoadditive_deviation <= 1e-9
    # endpoints are fixed
    assert samples.values[0] == pytest.approx(0.0, abs=1e-12)
    assert samples.values[-1] == pytest.approx(1.0, abs=1e-12)


def test_scaling_corrupt_oracle_detected():
    p = np.diag([1.0, 0.0, 0.0]).astype(complex)

    def corrupt(a):
        lam = float(np.trace(np.asarray(a)).real)
        return (lam * lam) * p

    samples = extract_scaling_function(oracle(3, corrupt), p, [0.0, 0.5, 1.0])
    assert samples.values[1] == pytest.approx(0.25)
    chk = check_scaling_identity(samples)
    assert not chk.ok
    assert chk.max_identity_deviation == pytest.approx(0.25)


def test_scaling_rejects_rank_deficient_image():
    squash = oracle(3, lambda a: np.zeros((3, 3), dtype=complex))
    with pytest.raises(ReconstructionError):
        extract_scaling_function(squash, np.diag([1.0, 0, 0]).astype(complex), [0.5])


def test_scaling_square_grid_deviation():
    lam = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    from effectsym.recover import ScalingSamples

    samples = ScalingSamples(
        projection=np.diag([1.0, 0.0]).astype(complex),
        lambdas=lam,
        values=lam ** 2,
        residuals=np.zeros_like(lam),
    )
    chk = check_scaling_identity(samples)
    assert not chk.ok
    assert chk.max_identity_deviation == pytest.approx(0.25)


# ---------------------------------------------------------- verification


def test_verify_descriptor_matching_and_phase_invariance():
    u0 = haar_unitary(3, 77)
    d = SymmetryDescriptor(UNITARY, u0)
    phi = conjugation_oracle(np.exp(0.7j) * u0)  # same map, different phase
    assert verify_descriptor(phi, d, trials=20) <= 1e-12


def test_verify_descriptor_wrong_complement_flag():
    d = SymmetryDescriptor(UNITARY, np.eye(3), complement=True)
    residual = verify_descriptor(identity_oracle(3), d, trials=20)
    assert residual > 0.1


def test_verify_descriptor_hermitian_domain():
    u0 = haar_unitary(3, 78)
    d = SymmetryDescriptor(UNITARY, u0, sign=-1)
    phi = oracle(3, lambda a: -(u0 @ np.asarray(a, complex) @ adjoint(u0)))
    assert verify_descriptor(phi, d, trials=20, domain="hermitian") <= 1e-12
    with pytest.raises(ValueError):
        verify_descriptor(phi, d, trials=5, domain="unit_ball")


# ----------------------------------------------------- round-trip battery


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6, 7, 8])
def test_roundtrip_affine_all_combos(dim):
    s = Stream(1000 + dim)
    combos = [(k, c) for k in (UNITARY, ANTIUNITARY) for c in (False, True)]
    for i in range(8):
        kind, comp = combos[i % 4]
        d = random_symmetry(dim, s.next_u64(), family=AFFINE, kind=kind, complement=comp)
        report = recover_affine(EffectMapOracle.from_descriptor(d), seed=s.next_u64(), trials=20)
        assert report.canonical, report.reason
        assert report.descriptor.kind == kind
        assert report.descriptor.complement == comp
        assert u_distance(report.descriptor, d) <= 1e-7
        assert report.max_residual <= 1e-8


@pytest.mark.parametrize("dim", [3, 4, 5, 6, 7, 8])
def test_roundtrip_triple_and_hermitian(dim):
    s = Stream(2000 + dim)
    for i in range(4):
        kind = (UNITARY, ANTIUNITARY)[i % 2]
        d = random_symmetry(dim, s.next_u64(), family=TRIPLE_EFFECTS, kind=kind)
        report = recover_triple(EffectMapOracle.from_descriptor(d), seed=s.next_u64(), trials=20)
        assert report.canonical, report.reason
        assert report.descriptor.kind == kind
        assert u_distance(report.descriptor, d) <= 1e-7

        sign = (1, -1)[(i // 2) % 2]
        dh = random_symmetry(dim, s.next_u64(), family=TRIPLE_HERMITIAN, kind=kind, sign=sign)
        hreport = recover_triple_hermitian(
            EffectMapOracle.from_descriptor(dh), seed=s.next_u64(), trials=20
        )
        assert hreport.canonical, hreport.reason
        assert hreport.descriptor.sign == sign
        assert hreport.descriptor.kind == kind
        assert u_distance(hreport.descriptor, dh) <= 1e-7


def test_soundness_canonical_implies_residual_within_tol():
    s = Stream(3000)
    for _ in range(20):
        d = random_symmetry(4, s.next_u64(), family=AFFINE)
        report = recover_affine(EffectMapOracle.from_descriptor(d), seed=s.next_u64(), trials=20)
        if report.canonical:
            assert report.max_residual <= 1e-8


def test_rejection_of_perturbed_conjugation():
    from effectsym.suites import perturbed_conjugation_oracle

    for seed in range(5):
        phi = perturbed_conjugation_oracle(4, seed, eps=1e-2)
        assert not recover_affine(phi, seed=seed, trials=8).canonical
        assert not recover_triple(phi, seed=seed, trials=8).canonical


# ------------------------------------------------ report fields per stage


def squared(a):
    return a @ a


def twice_beyond_unit_ball(sign):
    """±A on the unit ball, ±2A beyond: right on effects, wrong on Hermitians."""
    return lambda a: sign * (a if operator_norm(a) <= 1.0 + 1e-12 else 2.0 * a)


def conjugated_on_full_rank(sign):
    """±A on rank-deficient effects, ±VAV* on full-rank ones: every probe
    sees the identity, the effects verify does not."""
    v = haar_unitary(3, 99)

    def evaluate(a):
        full = np.min(np.abs(np.linalg.eigvalsh(a))) > 1e-9
        return sign * (v @ a @ adjoint(v) if full else a)

    return evaluate


def squared_on_scaled_rank_one(a):
    """λP ↦ λ²P on rank-one multiples; the identity elsewhere."""
    w = np.linalg.eigvalsh(a)
    nonzero = w[np.abs(w) > 1e-9]
    if len(nonzero) == 1 and abs(nonzero[0] - 1.0) > 1e-9:
        return nonzero[0] * a
    return a


def phase_breaking(a):
    """The identity, except that the projection onto (e0 + e1)/√2 goes to
    the projection onto e2, which no phase can align."""
    x = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
    if frobenius_norm(a - np.outer(x, x)) < 1e-12:
        return np.diag([0.0, 0.0, 1.0]).astype(complex)
    return a


VERIFY_REASON = "canonical-form residual"
REJECTION_STAGES = [
    # route, evaluator, family, reason prefix, fields set
    (recover_affine, squared, AFFINE, "map is not affine", {"witness"}),
    (recover_affine, lambda a: a / 2 + np.eye(3) / 4, AFFINE, "φ(0) not in {0, I}", set()),
    (recover_affine, lambda a: a / 2, AFFINE, "image of basis projection 0", set()),
    (recover_triple, lambda a: np.eye(3) - a, TRIPLE_EFFECTS, "triple identity violated", {"witness"}),
    (recover_triple, lambda a: 0 * a, TRIPLE_EFFECTS, "projection-structure probe failed",
     {"witness", "probe"}),
    (recover_triple, phase_breaking, TRIPLE_EFFECTS, "phase alignment degenerate", {"probe"}),
    (recover_triple, squared_on_scaled_rank_one, TRIPLE_EFFECTS, "scaling function deviates",
     {"probe", "scaling"}),
    (recover_triple, conjugated_on_full_rank(1), TRIPLE_EFFECTS, VERIFY_REASON,
     {"probe", "scaling", "descriptor"}),
    (recover_triple_hermitian, lambda a: a + np.eye(3), TRIPLE_HERMITIAN, "φ(I) ∉ {I, −I}", set()),
    (recover_triple_hermitian, lambda a: -squared(a), TRIPLE_HERMITIAN, "triple identity violated",
     {"witness"}),
    (recover_triple_hermitian, conjugated_on_full_rank(-1), TRIPLE_HERMITIAN, VERIFY_REASON,
     {"probe", "scaling", "descriptor"}),
    (recover_triple_hermitian, twice_beyond_unit_ball(1), TRIPLE_HERMITIAN, VERIFY_REASON,
     {"probe", "scaling", "descriptor"}),
    (recover_triple_hermitian, twice_beyond_unit_ball(-1), TRIPLE_HERMITIAN, VERIFY_REASON,
     {"probe", "scaling", "descriptor"}),
]


@pytest.mark.parametrize(
    "route, evaluate, family, prefix, fields",
    REJECTION_STAGES,
    ids=[
        "affine-affinity", "affine-phi0", "affine-reconstruct",
        "triple-identity", "triple-probe", "triple-reconstruct", "triple-scaling", "triple-verify",
        "hermitian-phiI", "hermitian-inner-identity", "hermitian-inner-verify",
        "hermitian-verify-plus", "hermitian-verify-minus",
    ],
)
def test_rejection_report_fields(route, evaluate, family, prefix, fields):
    report = route(oracle(3, evaluate), seed=1)
    assert report.verdict == REJECTED
    assert report.family == family
    assert report.reason.startswith(prefix), report.reason
    present = {f for f in ("witness", "probe", "scaling", "descriptor") if getattr(report, f) is not None}
    assert present == fields
    assert math.isnan(report.max_residual) == ("descriptor" not in fields)


@pytest.mark.parametrize("sign", [1, -1])
def test_hermitian_final_verify_reports_the_signed_descriptor(sign):
    report = recover_triple_hermitian(oracle(3, twice_beyond_unit_ball(sign)), seed=1)
    assert report.reason.endswith("on Hermitian samples")
    assert report.descriptor.sign == sign
    assert report.max_residual > 1.0


def test_hermitian_inner_verify_reports_the_signed_candidate():
    report = recover_triple_hermitian(oracle(3, conjugated_on_full_rank(-1)), seed=1)
    assert not report.reason.endswith("on Hermitian samples")
    assert report.descriptor.sign == -1


def test_hermitian_sign_costs_no_extra_oracle_calls(monkeypatch):
    calls = []
    original = EffectMapOracle.__call__

    def counted(self, a):
        calls.append(a)
        return original(self, a)

    monkeypatch.setattr(EffectMapOracle, "__call__", counted)
    u0 = haar_unitary(3, 11)
    counts = {}
    for sign in (1, -1):
        calls.clear()
        d = SymmetryDescriptor(UNITARY, u0, sign=sign)
        assert recover_triple_hermitian(EffectMapOracle.from_descriptor(d), seed=4).canonical
        counts[sign] = len(calls)
    assert counts[1] == counts[-1]
