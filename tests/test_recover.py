import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effectsym.effects import rank_one_projection
from effectsym.extension import AFFINE_PROBE_TRIALS, PROBE_TOL, EffectMapOracle, OracleError, is_affine
from effectsym.linalg import (adjoint, eigenvalues_hermitian, frobenius_norm, hermiticity_defect, hermitize,
                              nan_max, operator_norm)
from effectsym.recover import (
    MIN_DIM,
    RECONSTRUCT_CHECKS,
    REJECTED,
    ProbeReport,
    ProbeWitness,
    ReconstructionError,
    SCALING_GRID,
    TRIPLE_PROBE_PAIRS,
    TRIPLE_PROBE_TRIALS,
    check_run,
    check_scaling_identity,
    extract_scaling_function,
    preservation_probe,
    reconstruct_unitary_from_projection_action,
    recover_affine,
    recover_triple,
    recover_triple_hermitian,
    route,
    verify_descriptor,
)
from effectsym.rng import Stream, _unit_floats
from effectsym.sampling import (
    haar_unitary,
    nested_projection_pairs,
    random_effect,
    random_effects,
    random_hermitian,
    random_projections,
    random_unit_vector,
    random_unit_vectors,
)
from effectsym.symmetry import (
    AFFINE,
    ANTIUNITARY,
    TRIPLE_EFFECTS,
    TRIPLE_HERMITIAN,
    UNITARY,
    SymmetryDescriptor,
    apply_symmetry,
    gauge_normalize,
    random_symmetry,
    to_affine_rep,
)
from effectsym.suites import perturbed_conjugation_oracle, run_verify_suites
from test_sampling import probe_orthogonal_pairs


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
    assert not report.all_preserved
    assert any(w.check == "projections" for w in report.witnesses)
    assert set(report.failed_checks()) >= {"projections", "orthocomplement"}


def test_order_reversing_map_gets_a_finite_order_defect():
    eye = np.eye(3, dtype=complex)
    report = preservation_probe(oracle(3, lambda a: eye - np.asarray(a, complex)), trials=8)
    assert "order" in report.failed_checks()
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


def ref_preservation_probe(phi, trials, seed):
    """The probe as one loop over its trials, each check right after its
    queries: the order check raises where ``eigenvalues_hermitian`` refuses."""
    dim = phi.dim
    eye = np.eye(dim, dtype=complex)
    seeds = Stream(seed).u64_block(3 * trials).reshape(trials, 3)
    samples = zip(random_projections(dim, seeds[:, 0]), nested_projection_pairs(dim, seeds[:, 1]),
                  probe_orthogonal_pairs(dim, seeds[:, 2]))
    witnesses = []
    for p, (p_low, p_high), (q1, q2) in samples:
        img = phi(p)
        defect = nan_max(hermiticity_defect(img), frobenius_norm(img.dot(img) - img))
        if not defect <= PROBE_TOL:
            witnesses.append(ProbeWitness("projections", (p,), defect))
        comp_defect = frobenius_norm(img + phi(eye - p) - eye)
        if not comp_defect <= PROBE_TOL:
            witnesses.append(ProbeWitness("orthocomplement", (p,), comp_defect))
        img_low, img_high = phi(p_low), phi(p_high)
        diff = img_high - img_low
        skew = hermiticity_defect(diff)
        if skew > PROBE_TOL:
            witnesses.append(ProbeWitness("order", (p_low, p_high), skew))
        else:
            gap = eigenvalues_hermitian(hermitize(diff))[0]
            if not gap >= -PROBE_TOL:
                witnesses.append(ProbeWitness("order", (p_low, p_high), float(-gap)))
        prod = frobenius_norm(phi(q1).dot(phi(q2)))
        if not prod <= PROBE_TOL:
            witnesses.append(ProbeWitness("orthogonality", (q1, q2), prod))
    return ProbeReport(witnesses=tuple(witnesses), samples_used=trials)


def probe_outcome(probe, dim, evaluate, trials, seed):
    """The probe's failed checks and witnesses as (check, input bytes, defect
    type and bytes), or the type and message of what it raised, with the
    number of queries it asked."""
    asked = []

    def counted(m):
        asked.append(None)
        return evaluate(m, len(asked))

    try:
        with np.errstate(all="ignore"):  # corrupted answers overflow and make NaN
            report = probe(oracle(dim, counted), trials, seed)
    except Exception as err:  # the raise, whatever its type, is part of the outcome
        return type(err), str(err), len(asked)
    witnesses = [(w.check, tuple(x.tobytes() for x in w.inputs), type(w.defect), np.float64(w.defect).tobytes())
                 for w in report.witnesses]
    return report.failed_checks(), witnesses, report.samples_used, len(asked)


CORRUPTIONS = {
    "nan": lambda x: np.where(np.eye(len(x), dtype=bool), np.nan, x),
    "1e300": lambda x: x * 1e300,
    "non_hermitian": lambda x: x + np.triu(np.ones(x.shape), 1),
    "inf_off_diagonal": lambda x: np.where(np.eye(len(x), k=1, dtype=bool), np.inf, x),
}


def corrupted_at(d, k, how):
    """The descriptor's map with its k-th answer corrupted."""
    return lambda m, n: CORRUPTIONS[how](apply_symmetry(d, m)) if n == k else apply_symmetry(d, m)


def huge_above_trace(d, bound=2.5):
    """Answers 0.5 (X + X*) 1.5e308 for the descriptor's answer X wherever tr A > bound: finite, but
    the order check's difference overflows."""
    def evaluate(m, _):
        x = apply_symmetry(d, m)
        return hermitize(x) * 1.5e308 if np.trace(m).real > bound else x
    return evaluate


def canonical(d):
    return lambda m, _: apply_symmetry(d, m)


PROBE_CASES = {
    **{f"{kind}-d{dim}": (dim, canonical(SymmetryDescriptor(kind, haar_unitary(dim, 3))))
       for kind in (UNITARY, ANTIUNITARY) for dim in (3, 4, 6)},
    "halving": (3, lambda m, _: 0.5 * m),
    "complement": (4, lambda m, _: np.eye(4) - m),
    "determinant": (4, lambda m, _: np.linalg.det(m) * np.eye(4)),
    "partial_transpose": (4, lambda m, _: m.reshape(2, 2, 2, 2).transpose(2, 1, 0, 3).reshape(4, 4)),
    **{f"{how}-at-{k}": (4, corrupted_at(random_symmetry(4, 3, family=TRIPLE_EFFECTS), k, how))
       for how in CORRUPTIONS for k in (1, 3, 4, 6, 10)},
    "huge-repro": (4, huge_above_trace(random_symmetry(4, 3, family=TRIPLE_EFFECTS))),
}


@pytest.mark.parametrize("case", sorted(PROBE_CASES))
def test_stacked_probe_equals_per_trial_loop_bitwise(case):
    dim, evaluate = PROBE_CASES[case]
    expected = probe_outcome(ref_preservation_probe, dim, evaluate, 16, 5)
    if case == "huge-repro":  # the order check of a finite difference that overflows raises at its trial
        assert expected == (ValueError, "matrix has non-finite entries", 10)
    assert probe_outcome(preservation_probe, dim, evaluate, 16, 5) == expected


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6 * 6), st.sampled_from(sorted(CORRUPTIONS)), st.sampled_from([3, 4]),
       st.sampled_from([UNITARY, ANTIUNITARY]))
def test_stacked_probe_equals_per_trial_loop_on_one_corrupted_query_bitwise(k, how, dim, kind):
    evaluate = corrupted_at(SymmetryDescriptor(kind, haar_unitary(dim, 3)), k, how)
    assert probe_outcome(preservation_probe, dim, evaluate, 6, 2) == probe_outcome(
        ref_preservation_probe, dim, evaluate, 6, 2)


# ---------------------------------------------------------- reconstruction


def test_reconstruct_identity():
    u, kind = reconstruct_unitary_from_projection_action(identity_oracle(3))
    assert kind == UNITARY
    assert np.allclose(u, np.eye(3), atol=1e-12)


def test_reconstruct_entrywise_conjugation():
    u, kind = reconstruct_unitary_from_projection_action(
        oracle(3, lambda a: np.conj(np.asarray(a, dtype=complex)))
    )
    assert kind == ANTIUNITARY
    assert np.allclose(u, np.eye(3), atol=1e-12)


def test_reconstruct_haar_conjugation_roundtrip():
    u0 = haar_unitary(4, 7)
    action = conjugation_oracle(u0)
    u, kind = reconstruct_unitary_from_projection_action(action, tol=1e-9)
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
            oracle(3, lambda a: 0.5 * np.asarray(a, complex))
        )


def test_reconstruct_rejects_non_orthogonal_images():
    e0 = np.zeros((3, 3), dtype=complex)
    e0[0, 0] = 1.0

    def collapse(a):
        # every rank-one projection lands on the same projection
        return e0

    with pytest.raises(ReconstructionError, match="reconstruction verification failed"):
        reconstruct_unitary_from_projection_action(oracle(3, collapse))


def corrupted_at_one_rebuild_query(d, where):
    """The descriptor's map, but wrong on one projection the rebuild asks: a
    basis projection or a phase projection by a factor 1 + 1e-7, or the
    kind projection onto (e_0 + i e_1)/sqrt2 by 1e-3 H."""
    eye = np.eye(d.dim, dtype=complex)
    x = {"basis": eye[-1], "phase": (eye[0] + eye[1]) / np.sqrt(2.0),
         "kind": (eye[0] + 1j * eye[1]) / np.sqrt(2.0)}[where]
    h = np.zeros((d.dim, d.dim), dtype=complex)
    h[0, 2] = h[2, 0] = 1.0 / np.sqrt(2.0)

    def evaluate(a):
        out = apply_symmetry(d, a)
        if not np.array_equal(a, np.outer(x, np.conj(x))):
            return out
        return out + 1e-3 * h if where == "kind" else out * (1.0 + 1e-7)
    return oracle(d.dim, evaluate)


@pytest.mark.parametrize("where", ["basis", "phase", "kind"])
@pytest.mark.parametrize("dim", [3, 4])
@pytest.mark.parametrize("family", [AFFINE, TRIPLE_EFFECTS, TRIPLE_HERMITIAN])
def test_rebuild_compares_every_image_it_asked(family, dim, where):
    """Each corruption leaves the rebuilt U and its random checks clean, so
    only the comparison of the asked images with the candidate refuses it."""
    for seed in range(2):
        d = random_symmetry(dim, seed, family=family)
        report = route(family)(corrupted_at_one_rebuild_query(d, where), seed=seed)
        assert report.verdict == REJECTED
        assert report.reason.startswith("reconstruction verification failed"), report.reason


def test_reconstruct_needs_dim_two():
    with pytest.raises(ValueError):
        reconstruct_unitary_from_projection_action(identity_oracle(1))


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
        scaling_dev = float(np.max(np.abs(report.scaling.values - SCALING_GRID)))
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
    samples = extract_scaling_function(identity_oracle(3), seed=5)
    assert samples.projection.tobytes() == rank_one_projection(random_unit_vector(3, 5)).tobytes()
    assert np.allclose(samples.values, SCALING_GRID, atol=1e-14)
    assert np.max(samples.residuals) < 1e-14
    chk = check_scaling_identity(samples)
    assert chk.ok and chk.max_identity_deviation < 1e-14


def test_scaling_canonical_descriptor_grid():
    d = random_symmetry(3, 31, family=TRIPLE_EFFECTS)
    samples = extract_scaling_function(EffectMapOracle.from_descriptor(d), seed=5)
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

    samples = extract_scaling_function(oracle(3, corrupt), seed=1)
    assert samples.values[8] == pytest.approx(0.25)  # f(1/2)
    chk = check_scaling_identity(samples)
    assert not chk.ok
    assert chk.max_identity_deviation == pytest.approx(0.25)


def test_scaling_rejects_rank_deficient_image():
    squash = oracle(3, lambda a: np.zeros((3, 3), dtype=complex))
    with pytest.raises(ReconstructionError):
        extract_scaling_function(squash, seed=1)


def test_scaling_square_grid_deviation():
    from effectsym.recover import ScalingSamples

    samples = ScalingSamples(
        projection=np.diag([1.0, 0.0]).astype(complex),
        values=SCALING_GRID ** 2,
        residuals=np.zeros_like(SCALING_GRID),
    )
    chk = check_scaling_identity(samples)
    assert not chk.ok
    assert chk.max_identity_deviation == pytest.approx(0.25)


def test_scaling_samples_hold_one_sample_per_grid_point():
    from effectsym.recover import ScalingSamples

    p, grid = np.diag([1.0, 0.0]).astype(complex), SCALING_GRID
    for values, residuals in ((grid[:-1], grid[:-1]), (grid, grid[:-1]), (np.append(grid, 1.0), grid)):
        with pytest.raises(ValueError, match="one value and one residual per grid point"):
            ScalingSamples(p, values, residuals)


def ref_check_scaling_identity(samples):
    """The identity check one grid point at a time: (ok, identity,
    multiplicative, orthoadditive, proportionality) deviations."""
    lam, f = SCALING_GRID, samples.values
    id_dev = float(np.max(np.abs(f - lam)))
    prop_res = float(np.max(samples.residuals))

    def grid_index(x):
        hits = np.flatnonzero(np.abs(lam - x) <= 1e-12)
        return int(hits[0]) if len(hits) else None

    mult_dev = ortho_dev = 0.0
    for i, l in enumerate(lam):
        j = grid_index(l * l)
        if j is None:
            continue
        mult_dev = nan_max(mult_dev, abs(f[j] - f[i] ** 2))
        k = grid_index(1.0 - l * l)
        if k is not None:
            ortho_dev = nan_max(ortho_dev, abs(f[j] + f[k] - 1.0))
    return id_dev <= 1e-9 and prop_res <= 1e-9, id_dev, mult_dev, ortho_dev, prop_res


@pytest.mark.parametrize("noise", ["exact", "ulps", "coarse", "nan_values", "nan_residuals"])
def test_stacked_scaling_check_equals_per_point_loop_bitwise(noise):
    from effectsym.recover import ScalingSamples

    lam = SCALING_GRID
    s = Stream(len(lam) + len(noise))
    fields = ("max_identity_deviation", "max_multiplicative_deviation",
              "max_orthoadditive_deviation", "max_proportionality_residual")
    # C pow (a scalar f ** 2) and f * f part in the last bit: a few ulps
    # off 3/16, 5/16 or 6/16, in a third of the draws or more.
    for _ in range(50 if noise in ("ulps", "coarse") else 1):
        values = lam.copy()
        residuals = np.zeros_like(lam)
        if noise in ("ulps", "nan_values"):
            values = lam + 1e-15 * s.gaussian(len(lam))
        if noise == "nan_values":
            values[::3] = np.nan
        elif noise == "coarse":
            values = lam + 1e-3 * s.gaussian(len(lam))
            residuals = 1e-10 * s.uniform(len(lam))
        elif noise == "nan_residuals":
            residuals[1::4] = np.nan
        samples = ScalingSamples(np.diag([1.0, 0.0]).astype(complex), values, residuals)
        got = check_scaling_identity(samples)
        ok, *want = ref_check_scaling_identity(samples)
        assert got.ok == ok
        assert all(type(getattr(got, f)) is float for f in fields)
        assert np.array([getattr(got, f) for f in fields]).tobytes() == np.array(want, dtype=float).tobytes()


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


@pytest.mark.parametrize("route", [recover_affine, recover_triple, recover_triple_hermitian])
@pytest.mark.parametrize("trials", [0, -1])
def test_fewer_than_one_verify_trial_is_refused(route, trials):
    calls = []
    phi = oracle(3, lambda a: calls.append(1) or np.asarray(a, complex))
    with pytest.raises(ValueError, match="trials must be at least 1"):
        route(phi, trials=trials, seed=1)
    with pytest.raises(ValueError, match="trials must be at least 1"):
        verify_descriptor(phi, SymmetryDescriptor(UNITARY, np.eye(3)), trials=trials)
    assert calls == []


# ----------------------------- stacked residuals vs a per-sample reference loop


def ref_apply(d, a):
    m = np.eye(d.dim, dtype=complex) - a if d.complement else a
    m = np.conj(m) if d.kind == ANTIUNITARY else m
    return d.sign * (d.unitary @ m @ adjoint(d.unitary))


def ref_verify(phi, d, trials, seed, domain):
    sampler = random_effect if domain == "effects" else random_hermitian
    worst = 0.0
    for s in Stream(seed).u64_block(trials).tolist():
        a = sampler(d.dim, s)
        worst = max(worst, frobenius_norm(phi(a) - ref_apply(d, a)))
    return worst


def ref_reconstruction_residual(action, u, kind, seed):
    """Over the rebuild's 2 dim asked projections (basis, phase, kind), then its random checks."""
    dim = u.shape[0]
    eye = np.eye(dim, dtype=complex)
    xs = [*eye, *((eye[0] + eye[j]) / np.sqrt(2.0) for j in range(1, dim)),
          (eye[0] + 1j * eye[1]) / np.sqrt(2.0)]
    xs += [random_unit_vector(dim, s) for s in Stream(seed).u64_block(RECONSTRUCT_CHECKS).tolist()]
    worst = 0.0
    for x in xs:
        px = np.outer(x, np.conj(x))
        expected = u @ (np.conj(px) if kind == ANTIUNITARY else px) @ adjoint(u)
        worst = max(worst, frobenius_norm(action(px) - expected))
    return worst


def ref_scaling(phi, p):
    img_p = phi(p)
    denom = float(np.trace(img_p @ img_p).real)
    values, residuals = [], []
    for lam in SCALING_GRID:
        img = phi(lam * p)
        values.append(float(np.trace(img @ img_p).real) / denom)
        residuals.append(frobenius_norm(img - values[-1] * img_p))
    return values, residuals


def flagged_descriptors(dim):
    """Both kinds, with and without the complement, and with sign +1 and -1."""
    for kind in (UNITARY, ANTIUNITARY):
        for complement in (False, True):
            yield random_symmetry(dim, 2 * dim + complement, family=AFFINE, kind=kind, complement=complement)
        for sign in (1, -1):
            yield random_symmetry(dim, 3 * dim + sign, family=TRIPLE_HERMITIAN, kind=kind, sign=sign)


def nan_above_half_trace(d):
    """The descriptor's map, but NaN wherever tr A > dim / 2."""
    return lambda a: np.full((d.dim, d.dim), np.nan) if np.trace(a).real > d.dim / 2 else apply_symmetry(d, a)


def nan_between_traces(d, low, high):
    """The descriptor's map, but NaN wherever low < tr A < high."""
    return lambda a: np.full((d.dim, d.dim), np.nan) if low < np.trace(a).real < high else apply_symmetry(d, a)


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
def test_stacked_residuals_equal_per_sample_loop_bitwise(dim):
    descriptors = list(flagged_descriptors(dim))
    for d, other in zip(descriptors, descriptors[1:] + descriptors[:1]):
        for evaluate in (lambda a: apply_symmetry(d, a), lambda a: apply_symmetry(other, a),
                         nan_above_half_trace(d)):
            phi = oracle(dim, evaluate)
            for domain, trials in (("effects", 30), ("hermitian", 7)):
                assert verify_descriptor(phi, d, trials, seed=dim, domain=domain) == ref_verify(
                    phi, d, trials, dim, domain)

        if d.sign == -1:
            continue
        eye = np.eye(dim, dtype=complex)
        phi = EffectMapOracle.from_descriptor(d)
        action = phi.then(lambda x: eye - x) if d.complement else phi
        u, kind = reconstruct_unitary_from_projection_action(action, seed=dim)
        worst = ref_reconstruction_residual(action, u, kind, dim)
        # The reconstruction accepts exactly when its residual is <= tol.
        reconstruct_unitary_from_projection_action(action, tol=worst, seed=dim)
        with pytest.raises(ReconstructionError, match="reconstruction verification failed"):
            reconstruct_unitary_from_projection_action(action, tol=np.nextafter(worst, -1.0), seed=dim)

        if not d.complement:
            for scaled in (phi, oracle(dim, nan_between_traces(d, 0.3, 0.6))):
                samples = extract_scaling_function(scaled, seed=dim)
                values, residuals = ref_scaling(scaled, rank_one_projection(random_unit_vector(dim, dim)))
                assert np.array_equal(samples.values, values, equal_nan=True)
                assert np.array_equal(samples.residuals, residuals, equal_nan=True)


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


# ------------------------------------------- oracle input sequence and cost


# Query count and sha256 of the concatenated inputs and of the concatenated
# answers (``oracle_queries.digest()``), for the map random_symmetry(4, 7,
# family) and seed 11.  The inputs were pinned from the per-sample
# implementation; the triple routes omit the second φ(A) query that each
# triple-identity pair used to make, and nothing else changed.  The answers
# were pinned from the evaluation written as ``sign * (U @ M @ U*)`` with a
# fresh identity per query, so each answer keeps its bits.
INPUT_SEQUENCES = {
    (AFFINE, 1): (321, "d4e113b85b82e16a067d5532062a7593fa4944d2d124f58454993dae806b5b7b",
                  "00a489677d087c6c1874d828385a351a45d84740196ef88271753e88cd66c288"),
    (TRIPLE_EFFECTS, 1): (290, "35767757064219916e77caed2e28cc8bf29b048aa905dcc141acef57f22e98e5",
                          "08f4f9f6da34674a6cd1f1ea74ad4f0adc3a0a2a75ead979c4ce54e63df049ab"),
    (TRIPLE_HERMITIAN, -1): (391, "e8d6d31b2ffbb2ece97b325fd36df43f791bfe69c16c05810558f88a560bb036",
                             "d1b552b40d1a0cd1fd65bd2d24cd573c21fa1b67d57ac421111d6a6105853275"),
}


@pytest.mark.parametrize("family, sign", sorted(INPUT_SEQUENCES))
def test_oracle_input_sequence_is_pinned(family, sign, oracle_queries):
    d = random_symmetry(4, 7, family=family, **({"sign": sign} if family == TRIPLE_HERMITIAN else {}))
    assert route(family)(oracle(4, lambda m: apply_symmetry(d, m)), seed=11).canonical
    assert oracle_queries.digest() == INPUT_SEQUENCES[family, sign]


# The affine route on the affine-form oracle of the same map with the
# complement set: the same inputs, the answers of the affine-map evaluation.
AFFINE_REP_SEQUENCE = (321, "d4e113b85b82e16a067d5532062a7593fa4944d2d124f58454993dae806b5b7b",
                       "b6a57d5aa606f346ac85a93f534f6910d110674c6d9ce45dbb3c76c42761be72")


def test_affine_rep_oracle_sequence_is_pinned(oracle_queries):
    rep = to_affine_rep(random_symmetry(4, 7, family=AFFINE, complement=True))
    assert recover_affine(EffectMapOracle.from_affine_rep(rep), seed=11).canonical
    assert oracle_queries.digest() == AFFINE_REP_SEQUENCE


# The same at dims 3 and 6, for random_symmetry(dim, 7, family) with the
# complement set on the affine route and sign -1 on the Hermitian one, and
# seed 11, taken from the one-matrix-at-a-time verify and reconstruction
# checks: the stacked checks ask the same inputs in the same order.
STACKED_INPUT_SEQUENCES = {
    (AFFINE, 3): (319, "c81f94262ebe6aef01223ea8f60be3c6dee3aba012242c5c88be2cd87abe4974",
                  "0c93f38da4f630efc1cbba48821ca5af57ba03e5eff585477546d16fd0c8eccd"),
    (TRIPLE_EFFECTS, 3): (288, "0d41dd99bedbcf7ab40f2b3f41b262b4f1f61be91268f013647fbbd9528a9ef4",
                          "41b6453656656cb4cf718816a308e71f616d559958b5900ce25bfff2f04001f8"),
    (TRIPLE_HERMITIAN, 3): (389, "c3340f40e85bd35d880a3b717e3040ed208e22461a96c8720114f4730259134b",
                            "6e1e7ba0dceb78edd2d32943b2a11656f28f2ea8c19f8360066cce7174024312"),
    (AFFINE, 6): (325, "5fdc17eadbe225523e47e5e7c91ce0f876a847fadf8d42fac0737b30a85cb13f",
                  "48d3ae76d3e3df4744f64f25ec0765d6498cf58c59281dc0ecc9af050231e3ca"),
    (TRIPLE_EFFECTS, 6): (294, "7239bc641e0b0518ba77f39e1b46a1e19c74f26346f2b5804d52cd8f4a8d9188",
                          "f6b7b8af8f87fb047e72fc0eb37820c685a047f5ea24460e1b76e5cc95905314"),
    (TRIPLE_HERMITIAN, 6): (395, "5a4d1bf656692a851c653dc688d0b7d1bdf0efbe3e1f1180ca4e49601ead589a",
                            "f094b325dfb3681b0b69001ca8a75a062bd3d1bb79f73286c8663b66a4419e22"),
}
ROUTE_FLAGS = {AFFINE: {"complement": True}, TRIPLE_EFFECTS: {}, TRIPLE_HERMITIAN: {"sign": -1}}


@pytest.mark.parametrize("family, dim", sorted(STACKED_INPUT_SEQUENCES))
def test_stacked_checks_keep_the_input_sequence(family, dim, oracle_queries):
    d = random_symmetry(dim, 7, family=family, **ROUTE_FLAGS[family])
    assert route(family)(oracle(dim, lambda m: apply_symmetry(d, m)), seed=11).canonical
    assert oracle_queries.digest() == STACKED_INPUT_SEQUENCES[family, dim]


FIRST_BASIS_PROJECTION = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)


@pytest.mark.parametrize("family", sorted(MIN_DIM))
@pytest.mark.parametrize("k", [1, 37, 100, "rebuild"])
def test_wrong_shape_at_the_kth_verify_query_stops_there(family, k, oracle_queries):
    d = random_symmetry(4, 7, family=family, **ROUTE_FLAGS[family])
    assert route(family)(oracle(4, lambda m: apply_symmetry(d, m)), seed=11).canonical
    if k == "rebuild":
        # The rebuild's first query; with the complement or sign -1 flag set
        # it reaches the oracle through the derived (complement, negated) map.
        bad_at = oracle_queries.inputs().index(FIRST_BASIS_PROJECTION.tobytes()) + 1
    else:
        bad_at = len(oracle_queries) - 100 + k  # the k-th query of the final verify stage (100 trials)
    queries = []

    def evaluate(m):
        queries.append(m.copy())
        return np.eye(3) if len(queries) == bad_at else apply_symmetry(d, m)

    report = route(family)(oracle(4, evaluate), seed=11)
    assert report.verdict == REJECTED and report.reason.startswith("oracle output has shape")
    assert len(queries) == bad_at
    assert np.array_equal(report.witness[0], queries[-1])
    if k == "rebuild":
        assert np.array_equal(queries[-1], FIRST_BASIS_PROJECTION)
        return
    if family == TRIPLE_HERMITIAN:  # the effects verify's candidate, reported with its sign
        assert report.descriptor.sign == -1

    queries.clear()
    bad_at = k
    with pytest.raises(OracleError) as err:
        verify_descriptor(oracle(4, evaluate), d, trials=100, seed=3)
    assert len(queries) == k and np.array_equal(err.value.query, queries[-1])


def test_queries_to_first_probe_rejection(oracle_queries):
    eye = np.eye(4, dtype=complex)
    for seed in range(3):
        phi = perturbed_conjugation_oracle(4, seed)
        oracle_queries.clear()
        assert not recover_affine(phi, seed=seed).canonical
        assert len(oracle_queries) == 3  # φ(λA + (1 − λ)B), φ(A), φ(B)
        oracle_queries.clear()
        assert not recover_triple(phi, seed=seed).canonical
        assert len(oracle_queries) == 3  # φ(ABA), φ(A), φ(B)
    oracle_queries.clear()
    report = recover_triple(oracle(4, lambda m: eye - m), seed=3)
    assert report.reason.startswith("triple identity violated") and len(oracle_queries) == 3


@pytest.mark.parametrize("stage, route", [("affinity", recover_affine), ("identity", recover_triple)])
def test_first_violation_stages_draw_one_trial_then_blocks(stage, route, monkeypatch):
    import effectsym.extension

    sizes = []
    original = effectsym.extension.random_effects

    def counted(dim, seeds):
        sizes.append(len(seeds))
        return original(dim, seeds)

    monkeypatch.setattr(effectsym.extension, "random_effects", counted)
    route(identity_oracle(4), seed=2)
    trials = [1, 32, 31] if stage == "affinity" else [1, 15]
    assert sizes[:len(trials)] == [2 * n for n in trials]  # A and B of each trial
    sizes.clear()
    route(oracle(4, squared), seed=2)  # rejected at the first trial
    assert sizes == [2]


def squared_after(u, start):
    """U A U* for the first ``start`` queries and U A² U* from then on, with the list of queries asked."""
    asked = []

    def evaluate(m):
        asked.append(None)
        return u @ (m @ m if len(asked) > start else m) @ adjoint(u)

    return asked, evaluate


@pytest.mark.parametrize("stage, k", [("affinity", k) for k in (1, 2, 32, 33, 64)]
                         + [("identity", k) for k in (1, 2, 16)])
def test_blocks_change_no_query_and_no_witness(stage, k):
    """A map that turns non-canonical at trial k is refused there, after 3k queries,
    with trial k's own draw as witness, wherever k falls in the blocks."""
    asked, evaluate = squared_after(haar_unitary(4, 1), 3 * (k - 1))
    if stage == "affinity":
        lam, a, b = is_affine(oracle(4, evaluate), seed=8).witness
        s = Stream(8)
        s.u64_block(3 * (k - 1))
        expected_lam = s.uniform()
        assert type(lam) is float and np.float64(lam).tobytes() == np.float64(expected_lam).tobytes()
    else:
        report = recover_triple(oracle(4, evaluate), seed=8)
        assert report.reason.startswith("triple identity violated")
        a, b = report.witness
        s = Stream(8).spawn()
        s.u64_block(2 * (k - 1))
    expected_a, expected_b = random_effects(4, s.u64_block(2))
    assert len(asked) == 3 * k
    assert a.tobytes() == expected_a.tobytes() and b.tobytes() == expected_b.tobytes()


@pytest.mark.parametrize("route", [recover_affine, recover_triple, recover_triple_hermitian])
@pytest.mark.parametrize("bad", [lambda m: np.eye(3), lambda m: np.ones(4)], ids=["3x3", "1-D"])
def test_wrong_shape_output_is_rejected_with_its_input(route, bad):
    queries = []

    def evaluate(m):
        queries.append(m.copy())
        return bad(m)

    report = route(oracle(4, evaluate), seed=1)
    assert report.verdict == REJECTED
    assert report.reason.startswith("oracle output has shape")
    assert "expected (4, 4)" in report.reason
    (query,) = report.witness
    assert np.array_equal(query, queries[-1])


@pytest.mark.parametrize("bad", ["abc", {"a": 1}, [[1, 2], [3]], object()],
                         ids=["str", "dict", "ragged", "object"])
def test_an_answer_that_is_not_a_complex_array_is_rejected_with_its_input(bad):
    queries = []

    def evaluate(m):
        queries.append(m.copy())
        return bad

    for phi in (oracle(3, evaluate), oracle(3, evaluate).then(np.negative)):
        for family in sorted(MIN_DIM):
            queries.clear()
            report = route(family)(phi, seed=1)
            assert report.verdict == REJECTED and report.reason.startswith("oracle output of type")
            assert len(queries) == 1 and np.array_equal(report.witness[0], queries[0])
        queries.clear()
        with pytest.raises(OracleError, match="is not a complex array") as err:
            verify_descriptor(phi, SymmetryDescriptor(UNITARY, np.eye(3)), trials=5, seed=1)
        assert len(queries) == 1 and np.array_equal(err.value.query, queries[0])


def ref_effect_pair_blocks(dim, stream, total, lead=0):
    """The draw of the first-violation stages written as a generator: blocks of
    one trial, then at most 32, of (lead uniforms, effects A, effects B)."""
    done = 0
    while done < total:
        n = min(32 if done else 1, total - done)
        raw = stream.u64_block((lead + 2) * n).reshape(n, lead + 2)
        ab = random_effects(dim, raw[:, lead:].ravel())
        yield _unit_floats(raw[:, :lead]), ab[0::2], ab[1::2]
        done += n


def ref_is_affine(phi, seed):
    """The affinity probe as its own per-trial loop: (worst, witness)."""
    worst = 0.0
    for lams, a_block, b_block in ref_effect_pair_blocks(phi.dim, Stream(seed), AFFINE_PROBE_TRIALS, lead=1):
        mixes = lams[..., None] * a_block + (1.0 - lams[..., None]) * b_block
        for (lam,), mix, a, b in zip(lams.tolist(), mixes, a_block, b_block):
            lhs = phi(mix)
            rhs = lam * phi(a) + (1.0 - lam) * phi(b)
            dev = frobenius_norm(lhs - rhs)
            worst = max(worst, dev)
            if dev > PROBE_TOL:
                return worst, (lam, a.copy(), b.copy())
    return worst, None


def ref_triple_identity(action, stream, pairs):
    """The triple identity as its own per-trial loop: (deviation, witness) of
    the first violation, or (None, None)."""
    for _, a_block, b_block in ref_effect_pair_blocks(action.dim, stream, pairs):
        for aba, a, b in zip(a_block @ b_block @ a_block, a_block, b_block):
            lhs = action(aba)
            phi_a = action(a)
            dev = frobenius_norm(lhs - phi_a.dot(action(b)).dot(phi_a))
            if dev > PROBE_TOL:
                return dev, (a.copy(), b.copy())
    return None, None


def scripted(u, nan_at=(), square_after=None):
    """U A U*, U A² U* after query ``square_after``, an all-NaN answer at the
    queries numbered in ``nan_at``; with the bytes of every query asked."""
    asked = []

    def evaluate(m):
        asked.append(m.tobytes())
        if len(asked) in nan_at:
            return np.full(m.shape, np.nan)
        squared = square_after is not None and len(asked) > square_after
        return u @ (m @ m if squared else m) @ adjoint(u)

    return asked, evaluate


class WalkDone(Exception):
    pass


WALK_CASES = {
    "canonical": {},
    **{f"refused at trial {k}": {"square_after": 3 * (k - 1)} for k in (1, 2, 33, 64)},
    "NaN at trial 2": {"nan_at": {4}},
    "NaN at trial 2, refused at 33": {"nan_at": {4, 5}, "square_after": 96},
    "NaN throughout": {"nan_at": range(1, 1000)},
}


@pytest.mark.parametrize("case", sorted(WALK_CASES))
@pytest.mark.parametrize("dim, seed", [(3, 5), (4, 8)])
def test_identity_walk_matches_the_per_trial_loops_bitwise(case, dim, seed, monkeypatch):
    """Both structures' walks ask the queries, fold the deviation and keep the
    witness of the per-trial reference loops, bit for bit, on maps refused at
    block edges and maps whose deviation is NaN; the triple walk runs 64 trials here."""
    import effectsym.recover

    u = haar_unitary(dim, seed)

    def bits(x):
        return np.float64(x).tobytes()

    def witness_bytes(w):
        return None if w is None else [np.asarray(x).tobytes() for x in w]

    asked, evaluate = scripted(u, **WALK_CASES[case])
    aff = is_affine(oracle(dim, evaluate), seed)
    ref_asked, ref_evaluate = scripted(u, **WALK_CASES[case])
    ref_worst, ref_witness = ref_is_affine(oracle(dim, ref_evaluate), seed)
    assert ("refused" in case) == (ref_witness is not None)
    assert asked == ref_asked and bits(aff.max_deviation) == bits(ref_worst)
    assert witness_bytes(aff.witness) == witness_bytes(ref_witness)
    assert aff.witness is None or type(aff.witness[0]) is float

    walk, walked = effectsym.recover._identity_walk, []

    def recorded_walk(*args):
        walked.append(walk(*args))
        raise WalkDone

    monkeypatch.setattr(effectsym.recover, "_identity_walk", recorded_walk)
    monkeypatch.setattr(effectsym.recover, "TRIPLE_PROBE_PAIRS", 64)
    asked, evaluate = scripted(u, **WALK_CASES[case])
    with pytest.raises(WalkDone):
        recover_triple(oracle(dim, evaluate), seed=seed)
    ((worst, witness),) = walked
    ref_asked, ref_evaluate = scripted(u, **WALK_CASES[case])
    ref_dev, ref_witness = ref_triple_identity(oracle(dim, ref_evaluate), Stream(seed).spawn(), 64)
    assert ("refused" in case) == (ref_witness is not None)
    assert asked == ref_asked and witness_bytes(witness) == witness_bytes(ref_witness)
    if ref_witness is not None:
        assert bits(worst) == bits(ref_dev)


def similarity_oracle(dim):
    """A -> S A S^-1 for an upper unitriangular S: it keeps the triple
    identity, but its images of Hermitian matrices are not Hermitian."""
    s = np.eye(dim) + 0.3 * np.triu(np.ones((dim, dim)), 1)
    s_inv = np.linalg.inv(s)
    return oracle(dim, lambda a: s @ np.asarray(a, complex) @ s_inv)


def test_order_probe_fails_closed_on_a_non_hermitian_difference():
    report = preservation_probe(similarity_oracle(4), trials=8)
    order = [w for w in report.witnesses if w.check == "order"]
    assert order and all(math.isfinite(w.defect) and w.defect > 1e-9 for w in order)


@pytest.mark.parametrize("route", [recover_affine, recover_triple, recover_triple_hermitian])
def test_non_hermitian_similarity_is_rejected_without_raising(route):
    report = route(similarity_oracle(4), seed=1)
    assert report.verdict == REJECTED
    if route is not recover_affine:
        assert report.reason == "projection-structure probe failed (projections, order not preserved)"
        assert report.witness is not None


@pytest.mark.parametrize("family", sorted(MIN_DIM))
def test_each_route_refuses_a_dimension_below_its_family_minimum(family):
    calls = []
    phi = oracle(MIN_DIM[family] - 1, lambda a: calls.append(1) or np.asarray(a, complex))
    with pytest.raises(ValueError, match=f"{family} recovery needs dim >= {MIN_DIM[family]}"):
        route(family)(phi, seed=1)
    assert calls == []


def nearly_conjugation_oracle(dim, eps=1e-7):
    """(1 - eps) U A U* + eps tr(A) I/dim: canonical only to within eps."""
    u = haar_unitary(dim, 3)
    eye = np.eye(dim)
    return oracle(dim, lambda a: (1 - eps) * (u @ a @ adjoint(u)) + eps * np.trace(a) * eye / dim)


def test_a_tight_tolerance_rejects_the_nearly_canonical_map():
    assert recover_affine(nearly_conjugation_oracle(4), tol=1e-8, seed=1).verdict == REJECTED


@pytest.mark.parametrize("route", [recover_affine, recover_triple, recover_triple_hermitian])
@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
def test_a_tolerance_outside_zero_to_infinity_is_refused(route, tol):
    """A NaN or infinite tolerance would accept the nearly canonical map."""
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        route(nearly_conjugation_oracle(4), tol=tol, seed=1)


@pytest.mark.parametrize("trials", [True, 2.5, "3", None])
def test_a_trials_that_is_not_an_integer_is_refused(trials):
    """True once verified 1 sample and 2.5 verified 3."""
    calls = []
    phi = oracle(3, lambda a: calls.append(1) or np.asarray(a, complex))
    d = SymmetryDescriptor(UNITARY, np.eye(3))
    runs = (*map(route, sorted(MIN_DIM)), preservation_probe, lambda phi, **kw: verify_descriptor(phi, d, **kw))
    for run in runs:
        with pytest.raises(ValueError, match="trials must be an integer"):
            run(phi, trials=trials, seed=1)
    with pytest.raises(ValueError, match="trials must be an integer"):
        run_verify_suites(3, 1, trials)
    assert calls == []


def test_numpy_integer_trials_are_accepted():
    check_run(np.uint8(1), tol=1.0)
    phi = EffectMapOracle.from_descriptor(random_symmetry(3, 2, family=AFFINE))
    got, want = recover_affine(phi, trials=np.int64(7), seed=1), recover_affine(phi, trials=7, seed=1)
    assert got.canonical and got.max_residual == want.max_residual
    assert got.descriptor.unitary.tobytes() == want.descriptor.unitary.tobytes()


# ------------------------------------------ NaN answers that once raised


def nan_on_low_trace(d):
    """The descriptor's map, but NaN wherever 0 < tr A < 0.5: the scaling
    samples lam * P with lam < 0.5 and nothing else the routes ask."""
    def evaluate(a):
        return np.full((d.dim, d.dim), np.nan) if 0.0 < np.trace(a).real < 0.5 else apply_symmetry(d, a)
    return evaluate


def nan_on_rank_one_projections(d):
    def evaluate(a):
        rank_one = abs(np.trace(a).real - 1.0) < 1e-9 and np.allclose(a @ a, a, atol=1e-9)
        return np.full((d.dim, d.dim), np.nan) if rank_one else apply_symmetry(d, a)
    return evaluate


@pytest.mark.parametrize("family, make, prefix", [
    (TRIPLE_EFFECTS, nan_on_low_trace, "scaling function deviates from identity: max |f(λ) − λ| = nan"),
    (TRIPLE_HERMITIAN, nan_on_low_trace, "scaling function deviates from identity: max |f(λ) − λ| = nan"),
    (AFFINE, nan_on_rank_one_projections, "image of basis projection 0 has non-finite entries"),
], ids=["triple-scaling", "hermitian-scaling", "affine-rebuild"])
@pytest.mark.parametrize("map_seed", range(6))
def test_nan_answers_are_rejected_not_raised(family, make, prefix, map_seed):
    d = random_symmetry(4, map_seed, family=family)
    report = route(family)(oracle(4, make(d)), seed=1)
    assert report.verdict == REJECTED
    assert report.reason.startswith(prefix), report.reason
    if family != AFFINE:
        assert np.isnan(report.scaling.values).any()


def nan_on_rank_one_off_diagonal(d):
    """The descriptor's map, but NaN on every rank-one input with a nonzero
    off-diagonal entry: the basis projections pass, the phase alignment does not."""
    def evaluate(a):
        rank_one = abs(np.trace(a).real - 1.0) < 1e-9 and np.allclose(a @ a, a, atol=1e-9)
        off_diagonal = np.count_nonzero(a - np.diag(np.diag(a)))
        return np.full((d.dim, d.dim), np.nan) if rank_one and off_diagonal else apply_symmetry(d, a)
    return evaluate


@pytest.mark.parametrize("map_seed", range(6))
def test_nan_at_phase_alignment_is_rejected_not_raised(map_seed):
    """The NaN overlap once passed the cutoff check and raised LinAlgError from the SVD."""
    d = random_symmetry(4, map_seed, family=AFFINE)
    report = recover_affine(oracle(4, nan_on_rank_one_off_diagonal(d)), seed=1)
    assert report.verdict == REJECTED
    assert report.reason == "phase alignment degenerate for basis column 1 (|overlap| = nan)"


# --------------------------------------- one bad answer at a single query


def answer_corrupted_at(d, k, corrupt):
    """The descriptor's map with its k-th answer (counting from 0) passed
    through ``corrupt``, and the list of the inputs it was asked."""
    asked = []

    def evaluate(m):
        asked.append(m.copy())
        return corrupt(apply_symmetry(d, m)) if len(asked) == k + 1 else apply_symmetry(d, m)
    return oracle(d.dim, evaluate), asked


def nan_diagonal(x):
    return np.where(np.eye(len(x), dtype=bool), np.nan, x)


def check_positions(family, dim):
    """Query positions, counting from 0, of a clean run's checks on answers
    that must fail closed: the probe's P, I - P, Q1 and Q2 on the triple
    routes, the rebuild's ``RECONSTRUCT_CHECKS`` projections, and φ(0) on the
    affine route or φ(I) on the Hermitian one.  Also the position of the
    rebuild's first query, which is the first basis projection."""
    walk = 3 * (AFFINE_PROBE_TRIALS if family == AFFINE else TRIPLE_PROBE_PAIRS)  # φ(x), φ(A), φ(B) per trial
    if family == AFFINE:
        positions, rebuild = [walk], walk + 1  # φ(0) follows the affinity walk
    else:
        first = int(family == TRIPLE_HERMITIAN)  # φ(I) comes first on the Hermitian route
        probe = first + walk  # each probe trial asks P, I - P, P_low, P_high, Q1, Q2
        positions = [0] * first + [probe + 6 * t + i for t in range(TRIPLE_PROBE_TRIALS) for i in (0, 1, 4, 5)]
        rebuild = probe + 6 * TRIPLE_PROBE_TRIALS
    return positions + [rebuild + 2 * dim + j for j in range(RECONSTRUCT_CHECKS)], rebuild


@pytest.mark.parametrize("dim", [3, 4])
@pytest.mark.parametrize("family", [AFFINE, TRIPLE_EFFECTS, TRIPLE_HERMITIAN])
def test_one_nan_answer_at_a_check_fails_closed(family, dim):
    d = random_symmetry(dim, 5, family=family)
    positions, rebuild = check_positions(family, dim)
    phi, asked = answer_corrupted_at(d, -1, nan_diagonal)
    assert route(family)(phi, seed=2).canonical
    assert np.array_equal(asked[rebuild], np.diag(np.eye(dim)[0]).astype(complex))
    accepted = []
    for k in positions:
        with np.errstate(all="ignore"):  # a NaN answer makes NaN products
            report = route(family)(answer_corrupted_at(d, k, nan_diagonal)[0], seed=2)
        if report.verdict != REJECTED:
            accepted.append(k)
    assert accepted == [], f"{len(accepted)} of {len(positions)} positions not rejected"


@pytest.mark.parametrize("dim", [3, 4])
@pytest.mark.parametrize("family", [AFFINE, TRIPLE_EFFECTS, TRIPLE_HERMITIAN])
def test_one_wrong_shape_answer_is_rejected_with_its_query_as_witness(family, dim):
    """A strided sweep over every stage of a clean run's queries."""
    d = random_symmetry(dim, 5, family=family)
    phi, asked = answer_corrupted_at(d, -1, None)
    assert route(family)(phi, seed=2).canonical
    for k in range(0, len(asked), 17):
        phi, asked = answer_corrupted_at(d, k, lambda x: np.eye(dim + 1))
        report = route(family)(phi, seed=2)
        assert report.verdict == REJECTED and report.reason.startswith("oracle output has shape"), k
        assert len(asked) == k + 1 and np.array_equal(report.witness[0], asked[k]), k


@pytest.mark.parametrize("dim", [4, 5, 6])
def test_a_refusal_in_the_rebuild_costs_no_extra_query(dim):
    """The rebuild forms all its inputs before it asks, and still asks one at a
    time: the shift A -> A + I passes the affinity walk, its φ(0) = I sets the
    complement, and the complemented map's image of basis projection 0 is
    -E_00, so the run stops after 192 walk queries, φ(0) and that one image."""
    eye = np.eye(dim, dtype=complex)
    asked = []
    shift = oracle(dim, lambda a: asked.append(a) or np.asarray(a, complex) + eye)
    for seed in range(3):
        asked.clear()
        report = recover_affine(shift, seed=seed)
        assert report.reason.startswith("image of basis projection 0 is not a rank-one projection"), report.reason
        assert len(asked) == 3 * AFFINE_PROBE_TRIALS + 2 == 194


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_the_rebuild_asks_np_outer_projections_in_order_and_a_wrong_answer_carries_its_input(dim):
    """The rebuild's 2 dim + ``RECONSTRUCT_CHECKS`` inputs, formed as one stack,
    are bit for bit the ``np.outer`` projections onto e_i, (e_0 + e_j)/sqrt2,
    (e_0 + i e_1)/sqrt2 and the check vectors, asked in that order; a wrong
    answer to any of them is refused with that input as its witness."""
    d = random_symmetry(dim, 9, family=AFFINE, complement=False)
    phi, asked = answer_corrupted_at(d, -1, None)
    assert recover_affine(phi, seed=4).canonical
    rebuild = 3 * AFFINE_PROBE_TRIALS + 1  # after the affinity walk and φ(0)
    eye, sqrt2 = np.eye(dim, dtype=complex), np.sqrt(2.0)
    rebuild_seed = Stream(4).u64_block(2)[1]  # the affine chain draws the walk's seed, then the rebuild's
    xs = random_unit_vectors(dim, Stream(int(rebuild_seed)).u64_block(RECONSTRUCT_CHECKS))
    expected = ([np.outer(eye[i], eye[i]) for i in range(dim)]
                + [np.outer(x, np.conj(x)) for x in [(eye[0] + eye[j]) / sqrt2 for j in range(1, dim)]]
                + [np.outer(x, np.conj(x)) for x in [(eye[0] + 1j * eye[1]) / sqrt2, *xs]])
    assert len(asked) == rebuild + len(expected) + 100  # then the verify stage's samples
    for k, p in enumerate(expected):
        assert asked[rebuild + k].tobytes() == p.tobytes(), k
        phi, asked_now = answer_corrupted_at(d, rebuild + k, lambda x: np.eye(dim + 1))
        report = recover_affine(phi, seed=4)
        assert report.reason.startswith("oracle output has shape"), (k, report.reason)
        assert len(asked_now) == rebuild + k + 1 and report.witness[0].tobytes() == p.tobytes(), k
