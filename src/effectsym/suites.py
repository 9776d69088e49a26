"""Reusable verification batteries.

Each suite is a seeded, deterministic battery over one structural claim
(closure of the triple product, round-trip recovery per family, the
rejection battery, the scaling-identity grid, the extension machinery,
the projection probes).  The CLI ``verify`` subcommand and the
acceptance tests both run these; the CLI scales sample counts from its
``--trials`` flag, the acceptance suite pins the counts it needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .effects import jordan_triple, leq, rank_one_projection
from .extension import (
    EffectMapOracle,
    boundedness_check,
    extend_linear,
    unit_ball_decomposition,
)
from .linalg import adjoint, frobenius_norm
from .recover import (
    check_scaling_identity,
    extract_scaling_function,
    preservation_probe,
    recover_affine,
    recover_triple,
    recover_triple_hermitian,
    SCALING_GRID,
)
from .rng import Stream
from .sampling import (
    complex_gaussian,
    haar_unitary,
    nested_projections,
    random_effect,
    random_projection,
    random_unit_vector,
)
from .symmetry import (
    AFFINE,
    ANTIUNITARY,
    TRIPLE_EFFECTS,
    TRIPLE_HERMITIAN,
    UNITARY,
    SymmetryDescriptor,
    gauge_normalize,
    random_symmetry,
)

U_MATCH_TOL = 1e-7
RESIDUAL_TOL = 1e-8
EIG_BAND_TOL = 1e-9
SCALING_TOL = 1e-9


@dataclass
class SuiteResult:
    name: str
    passed: bool
    skipped: bool = False
    details: dict[str, Any] = field(default_factory=dict)


def _skipped(name: str, why: str) -> SuiteResult:
    return SuiteResult(name, passed=True, skipped=True, details={"skipped_because": why})


def closure_suite(dim: int, seed: int, pairs: int, tol: float = EIG_BAND_TOL) -> SuiteResult:
    """Triple products of random effect pairs stay inside [0, I]."""
    s = Stream(seed)
    triples = np.empty((pairs, dim, dim), dtype=complex)
    for k in range(pairs):
        a = random_effect(dim, s.next_u64())
        b = random_effect(dim, s.next_u64())
        triples[k] = jordan_triple(a, b)
    w = np.linalg.eigvalsh(triples)
    lo, hi = float(w.min()), float(w.max())
    return SuiteResult(
        "triple_closure",
        passed=(lo >= -tol and hi <= 1.0 + tol),
        details={"dim": dim, "pairs": pairs, "min_eigenvalue": lo, "max_eigenvalue": hi},
    )


def _u_distance(d_rec: SymmetryDescriptor, d_true: SymmetryDescriptor) -> float:
    return frobenius_norm(
        gauge_normalize(d_rec).unitary - gauge_normalize(d_true).unitary
    )


def affine_roundtrip_suite(
    dim: int,
    seed: int,
    descriptors: int,
    verify_trials: int = 50,
    tol: float = RESIDUAL_TOL,
    u_tol: float = U_MATCH_TOL,
) -> SuiteResult:
    """Synthesize affine-family maps (all kind x complement combos),
    recover them, and compare flags, unitary, and residual."""
    s = Stream(seed)
    failures: list[str] = []
    max_u = 0.0
    max_res = 0.0
    combos_seen = set()
    for i in range(descriptors):
        kind = (UNITARY, ANTIUNITARY)[i % 2]
        comp = (i // 2) % 2 == 1
        combos_seen.add((kind, comp))
        d_true = random_symmetry(dim, s.next_u64(), family=AFFINE, kind=kind, complement=comp)
        phi = EffectMapOracle.from_descriptor(d_true)
        report = recover_affine(phi, tol=tol, trials=verify_trials, seed=s.next_u64())
        if not report.canonical:
            failures.append(f"descriptor {i}: {report.reason}")
            continue
        d_rec = report.descriptor
        if d_rec.kind != kind or d_rec.complement != comp:
            failures.append(f"descriptor {i}: flags {d_rec.kind}/{d_rec.complement}")
            continue
        max_u = max(max_u, _u_distance(d_rec, d_true))
        max_res = max(max_res, report.max_residual)
    passed = not failures and max_u <= u_tol and max_res <= tol
    return SuiteResult(
        "affine_roundtrip",
        passed=passed,
        details={
            "dim": dim,
            "descriptors": descriptors,
            "combos_seen": sorted(f"{k}:{c}" for k, c in combos_seen),
            "max_unitary_distance": max_u,
            "max_residual": max_res,
            "failures": failures[:5],
        },
    )


def triple_roundtrip_suite(
    dim: int,
    seed: int,
    descriptors: int,
    verify_trials: int = 50,
    tol: float = RESIDUAL_TOL,
    u_tol: float = U_MATCH_TOL,
    scaling_tol: float = SCALING_TOL,
) -> SuiteResult:
    """Synthesize triple-family maps (both kinds), recover, compare."""
    if dim < 3:
        return _skipped("triple_roundtrip", "needs dim >= 3")
    s = Stream(seed)
    failures: list[str] = []
    max_u = 0.0
    max_res = 0.0
    max_scaling = 0.0
    for i in range(descriptors):
        kind = (UNITARY, ANTIUNITARY)[i % 2]
        d_true = random_symmetry(dim, s.next_u64(), family=TRIPLE_EFFECTS, kind=kind)
        phi = EffectMapOracle.from_descriptor(d_true)
        report = recover_triple(phi, tol=tol, trials=verify_trials, seed=s.next_u64())
        if not report.canonical:
            failures.append(f"descriptor {i}: {report.reason}")
            continue
        if report.descriptor.kind != kind:
            failures.append(f"descriptor {i}: kind {report.descriptor.kind}")
            continue
        max_u = max(max_u, _u_distance(report.descriptor, d_true))
        max_res = max(max_res, report.max_residual)
        max_scaling = max(
            max_scaling, float(np.max(np.abs(report.scaling.values - report.scaling.lambdas)))
        )
    passed = not failures and max_u <= u_tol and max_res <= tol and max_scaling <= scaling_tol
    return SuiteResult(
        "triple_roundtrip",
        passed=passed,
        details={
            "dim": dim,
            "descriptors": descriptors,
            "max_unitary_distance": max_u,
            "max_residual": max_res,
            "max_scaling_deviation": max_scaling,
            "failures": failures[:5],
        },
    )


def hermitian_sign_suite(
    dim: int,
    seed: int,
    descriptors: int,
    verify_trials: int = 50,
    tol: float = RESIDUAL_TOL,
    u_tol: float = U_MATCH_TOL,
) -> SuiteResult:
    """Synthesize sign-family maps (kind x sign combos), recover,
    compare; also check that the shifted map A -> A + I is refused."""
    if dim < 3:
        return _skipped("hermitian_sign", "needs dim >= 3")
    s = Stream(seed)
    failures: list[str] = []
    max_u = 0.0
    max_res = 0.0
    for i in range(descriptors):
        kind = (UNITARY, ANTIUNITARY)[i % 2]
        sign = 1 if (i // 2) % 2 == 0 else -1
        d_true = random_symmetry(dim, s.next_u64(), family=TRIPLE_HERMITIAN, kind=kind, sign=sign)
        phi = EffectMapOracle.from_descriptor(d_true)
        report = recover_triple_hermitian(phi, tol=tol, trials=verify_trials, seed=s.next_u64())
        if not report.canonical:
            failures.append(f"descriptor {i}: {report.reason}")
            continue
        if report.descriptor.sign != sign or report.descriptor.kind != kind:
            failures.append(
                f"descriptor {i}: got kind {report.descriptor.kind}, sign {report.descriptor.sign}"
            )
            continue
        max_u = max(max_u, _u_distance(report.descriptor, d_true))
        max_res = max(max_res, report.max_residual)

    eye = np.eye(dim, dtype=complex)
    shifted = EffectMapOracle(dim, lambda a: np.asarray(a, dtype=complex) + eye, label="shift")
    shift_report = recover_triple_hermitian(shifted, tol=tol, trials=8, seed=s.next_u64())
    shift_refused = (not shift_report.canonical) and "φ(I) ∉ {I, −I}" in shift_report.reason
    if not shift_refused:
        failures.append("shifted map A -> A + I was not refused with the φ(I) reason")

    passed = not failures and max_u <= u_tol and max_res <= tol
    return SuiteResult(
        "hermitian_sign",
        passed=passed,
        details={
            "dim": dim,
            "descriptors": descriptors,
            "max_unitary_distance": max_u,
            "max_residual": max_res,
            "shift_refused": shift_refused,
            "failures": failures[:5],
        },
    )


def perturbed_conjugation_oracle(dim: int, seed: int, eps: float = 1e-2) -> EffectMapOracle:
    """The rejection battery's target: (1-eps) U A U* + eps (U A U*)^2."""
    u = haar_unitary(dim, seed)

    def evaluate(a):
        x = u @ np.asarray(a, dtype=complex) @ adjoint(u)
        return (1.0 - eps) * x + eps * (x @ x)

    return EffectMapOracle(dim, evaluate, label="perturbed")


def rejection_suite(
    dim: int,
    seed: int,
    oracles: int,
    eps: float = 1e-2,
    tol: float = RESIDUAL_TOL,
) -> SuiteResult:
    """Perturbed conjugations must be rejected by both recovery routes;
    the complemented map A -> I - A must be rejected by the triple route
    with a triple-identity witness."""
    s = Stream(seed)
    failures: list[str] = []
    for k in range(oracles):
        phi = perturbed_conjugation_oracle(dim, s.next_u64(), eps)
        affine_report = recover_affine(phi, tol=tol, trials=8, seed=s.next_u64())
        if affine_report.canonical:
            failures.append(f"oracle {k}: affine route accepted a perturbed map")
        if dim >= 3:
            triple_report = recover_triple(phi, tol=tol, trials=8, seed=s.next_u64())
            if triple_report.canonical:
                failures.append(f"oracle {k}: triple route accepted a perturbed map")

    complemented_rejected = None
    if dim >= 3:
        eye = np.eye(dim, dtype=complex)
        comp = EffectMapOracle(dim, lambda a: eye - np.asarray(a, dtype=complex), label="complement")
        report = recover_triple(comp, tol=tol, trials=8, seed=s.next_u64())
        complemented_rejected = (
            (not report.canonical)
            and "triple identity" in report.reason
            and report.witness is not None
        )
        if not complemented_rejected:
            failures.append("complemented map was not rejected with a triple-identity witness")

    return SuiteResult(
        "rejection_battery",
        passed=not failures,
        details={
            "dim": dim,
            "oracles": oracles,
            "eps": eps,
            "complemented_rejected": complemented_rejected,
            "failures": failures[:5],
        },
    )


def scaling_grid_suite(
    dim: int,
    seed: int,
    oracles: int,
    tol: float = SCALING_TOL,
) -> SuiteResult:
    """Canonical triple maps satisfy all three scaling identities on the
    17-point grid {k/16}."""
    if dim < 3:
        return _skipped("scaling_grid", "needs dim >= 3")
    s = Stream(seed)
    max_id = max_mult = max_ortho = 0.0
    failures: list[str] = []
    for k in range(oracles):
        d = random_symmetry(dim, s.next_u64(), family=TRIPLE_EFFECTS)
        phi = EffectMapOracle.from_descriptor(d)
        p = rank_one_projection(random_unit_vector(dim, s.next_u64()))
        samples = extract_scaling_function(phi, p, SCALING_GRID)
        chk = check_scaling_identity(samples, tol)
        max_id = max(max_id, chk.max_identity_deviation)
        max_mult = max(max_mult, chk.max_multiplicative_deviation)
        max_ortho = max(max_ortho, chk.max_orthoadditive_deviation)
        if not chk:
            failures.append(f"oracle {k}: identity deviation {chk.max_identity_deviation:.3e}")
    passed = not failures and max(max_id, max_mult, max_ortho) <= tol
    return SuiteResult(
        "scaling_grid",
        passed=passed,
        details={
            "dim": dim,
            "oracles": oracles,
            "max_identity_deviation": max_id,
            "max_multiplicative_deviation": max_mult,
            "max_orthoadditive_deviation": max_ortho,
            "failures": failures[:5],
        },
    )


def extension_suite(
    dim: int,
    seed: int,
    oracles: int,
    probes: int = 200,
    linearity_tol: float = 1e-8,
    bound_slack: float = 1e-9,
) -> SuiteResult:
    """Linearity of the extension and the norm bound 2 for effect maps."""
    s = Stream(seed)
    failures: list[str] = []
    max_lin = 0.0
    max_bound = 0.0
    for k in range(max(1, oracles)):
        kind = (UNITARY, ANTIUNITARY)[k % 2]
        d = random_symmetry(dim, s.next_u64(), family=AFFINE, kind=kind, complement=False)
        phi = EffectMapOracle.from_descriptor(d)
        lin_stream = s.spawn()
        for _ in range(probes):
            m = complex_gaussian(dim, lin_stream)
            n = complex_gaussian(dim, lin_stream)
            alpha = -2.0 + 4.0 * lin_stream.uniform()
            beta = -2.0 + 4.0 * lin_stream.uniform()
            lhs = extend_linear(phi, alpha * m + beta * n)
            rhs = alpha * extend_linear(phi, m) + beta * extend_linear(phi, n)
            dev = frobenius_norm(lhs - rhs) / (frobenius_norm(m) + frobenius_norm(n))
            max_lin = max(max_lin, dev)
        if max_lin > linearity_tol:
            failures.append(f"oracle {k}: linearity deviation {max_lin:.3e}")

        d_any = random_symmetry(dim, s.next_u64(), family=AFFINE)
        bound = boundedness_check(EffectMapOracle.from_descriptor(d_any), trials=32, seed=s.next_u64())
        max_bound = max(max_bound, bound)
        if bound > 2.0 + bound_slack:
            failures.append(f"oracle {k}: extension norm {bound:.6f} above 2")

        ball_stream = s.spawn()
        g = complex_gaussian(dim, ball_stream)
        g = g / max(np.linalg.norm(g, 2), 1.0)
        parts = unit_ball_decomposition(g)
        recomp = parts[0] - parts[1] + 1j * (parts[2] - parts[3])
        if frobenius_norm(recomp - g) > 1e-12:
            failures.append(f"oracle {k}: unit-ball recomposition error")

    return SuiteResult(
        "extension",
        passed=not failures,
        details={
            "dim": dim,
            "oracles": oracles,
            "probes": probes,
            "max_linearity_deviation": max_lin,
            "max_extension_norm": max_bound,
            "failures": failures[:5],
        },
    )


def probe_suite(
    dim: int,
    seed: int,
    oracles: int,
    projection_pairs: int = 100,
    tol: float = 1e-8,
) -> SuiteResult:
    """Preservation probes pass on canonical maps, and the order
    predicate agrees with the pinching identity P Q P = P."""
    s = Stream(seed)
    failures: list[str] = []
    for k in range(oracles):
        family = TRIPLE_EFFECTS if dim >= 3 else AFFINE
        kw = {"complement": False} if family == AFFINE else {}
        d = random_symmetry(dim, s.next_u64(), family=family, **kw)
        probe = preservation_probe(EffectMapOracle.from_descriptor(d), trials=8, seed=s.next_u64())
        if not probe.all_preserved:
            failures.append(f"oracle {k}: {probe.failed_checks()}")

    mismatches = 0
    for k in range(projection_pairs):
        if k % 2 == 0:
            p, q = nested_projections(dim, s.next_u64())
        else:
            p = random_projection(dim, s.next_u64())
            q = random_projection(dim, s.next_u64())
        order = leq(p, q, tol)
        pinch = frobenius_norm(p @ q @ p - p) <= tol
        if order != pinch:
            mismatches += 1
    if mismatches:
        failures.append(f"{mismatches} order/pinching mismatches")

    return SuiteResult(
        "projection_probes",
        passed=not failures,
        details={
            "dim": dim,
            "oracles": oracles,
            "projection_pairs": projection_pairs,
            "order_pinching_mismatches": mismatches,
            "failures": failures[:5],
        },
    )


def phase_gauge_suite(
    dim: int,
    seed: int,
    thetas=(0.0, 1.0, 2.0, 4.0),
) -> SuiteResult:
    """Oracles built from exp(i theta) U recover one gauge-normalized U,
    bitwise identical after rounding entries to 1e-12."""
    s = Stream(seed)
    failures: list[str] = []
    families = [AFFINE] + ([TRIPLE_EFFECTS] if dim >= 3 else [])
    for family in families:
        recover = recover_affine if family == AFFINE else recover_triple
        u0 = haar_unitary(dim, s.next_u64())
        rec_seed = s.next_u64()
        rounded: list[np.ndarray] = []
        for theta in thetas:
            d = SymmetryDescriptor(UNITARY, np.exp(1j * theta) * u0)
            report = recover(EffectMapOracle.from_descriptor(d), trials=8, seed=rec_seed)
            if not report.canonical:
                failures.append(f"{family}, theta={theta}: {report.reason}")
                continue
            rounded.append(np.round(gauge_normalize(report.descriptor).unitary, 12))
        for k in range(1, len(rounded)):
            if not np.array_equal(rounded[0], rounded[k]):
                failures.append(f"{family}: recovered U differs at theta={thetas[k]}")
    return SuiteResult(
        "phase_gauge",
        passed=not failures,
        details={"dim": dim, "thetas": list(thetas), "failures": failures[:5]},
    )


def run_verify_suites(dim: int, seed: int, trials: int, tol: float = RESIDUAL_TOL) -> list[SuiteResult]:
    """The battery behind the CLI ``verify`` subcommand."""
    s = Stream(seed)
    n_desc = max(1, trials // 10)
    results = [
        closure_suite(dim, s.next_u64(), pairs=trials),
        affine_roundtrip_suite(dim, s.next_u64(), descriptors=n_desc, tol=tol),
        triple_roundtrip_suite(dim, s.next_u64(), descriptors=n_desc, tol=tol),
        hermitian_sign_suite(dim, s.next_u64(), descriptors=n_desc, tol=tol),
        rejection_suite(dim, s.next_u64(), oracles=max(1, min(5, n_desc)), tol=tol),
        scaling_grid_suite(dim, s.next_u64(), oracles=max(1, min(10, n_desc))),
        extension_suite(dim, s.next_u64(), oracles=2, probes=max(10, min(trials, 200))),
        probe_suite(dim, s.next_u64(), oracles=max(1, min(10, n_desc)), projection_pairs=trials),
        phase_gauge_suite(dim, s.next_u64()),
    ]
    return results
