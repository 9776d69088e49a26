"""Reusable verification batteries.

Each suite is a seeded, deterministic battery over one structural claim
(closure of the triple product, round-trip recovery per family, the
rejection battery, the scaling-identity grid, the extension machinery,
the projection probes).  The CLI ``verify`` subcommand and the
acceptance tests both run these; the CLI scales sample counts from its
``--trials`` flag, the acceptance suite pins the counts it needs.

Every suite but the closure one builds its result with one builder: it
passes iff nothing failed and the suite's bounds hold, and its details
are ``dim``, the suite's own keys, then the first five failures.  The
extension suite's linearity check is
:func:`effectsym.extension.linearity_defect`, which acceptance
criterion 6 runs too.

Only the recovery tolerance ``tol`` (the CLI's ``--tol``, default
``RESIDUAL_TOL``, which is ``recover.ACCEPT_TOL = 1e-8``) is a
parameter.  Every other bound is a module constant:

* ``U_MATCH_TOL = 1e-7``: gauge-normalized unitary distance in the
  three round-trip suites, which verify each recovery on
  ``VERIFY_TRIALS = 50`` samples;
* ``SCALING_TOL = 1e-9``: scaling-function deviation, in the triple
  round-trip and the scaling grid;
* ``EIG_BAND_TOL = 1e-9``: eigenvalue slack of the closure band [0, 1];
* ``ORDER_TOL = 1e-8``: order and pinching tolerance of the probe suite;
* ``LINEARITY_TOL = 1e-8`` and ``BOUND_SLACK = 1e-9``: the extension
  suite's linearity defect and its slack over the norm bound 2, on
  ``EXTENSION_ORACLES = 2`` maps;
* ``REJECTION_EPS = 1e-2``: the perturbation of the rejection battery;
* ``GAUGE_THETAS = (0, 1, 2, 4)``: the phases of the gauge suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .effects import leq
from .extension import EffectMapOracle, boundedness_check, linearity_defect, unit_ball_decomposition
from .linalg import adjoint, frobenius_norm, nan_max
from .recover import (
    ACCEPT_TOL,
    MIN_DIM,
    check_run,
    check_scaling_identity,
    extract_scaling_function,
    preservation_probe,
    route,
)
from .rng import Stream
from .sampling import (
    complex_gaussian,
    haar_unitary,
    nested_projection_pairs,
    random_effects,
    random_projections,
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
RESIDUAL_TOL = ACCEPT_TOL
EIG_BAND_TOL = 1e-9
SCALING_TOL = 1e-9
ORDER_TOL = 1e-8
LINEARITY_TOL = 1e-8
BOUND_SLACK = 1e-9
VERIFY_TRIALS = 50
REJECTION_EPS = 1e-2
GAUGE_THETAS = (0.0, 1.0, 2.0, 4.0)
EXTENSION_ORACLES = 2


@dataclass
class SuiteResult:
    name: str
    passed: bool
    skipped: bool = False
    details: dict[str, Any] = field(default_factory=dict)


def _skipped(name: str, family: str) -> SuiteResult:
    """The suite does not run below ``family``'s minimum dimension."""
    why = f"needs dim >= {MIN_DIM[family]}"
    return SuiteResult(name, passed=True, skipped=True, details={"skipped_because": why})


def _result(name: str, failures: list[str], dim: int, ok: bool = True, **details) -> SuiteResult:
    """Passed (a plain bool, as every value of a result is plain Python) iff nothing
    failed and ``ok``; details are ``dim``, the suite's own, then the first five failures."""
    return SuiteResult(name, passed=bool(not failures and ok),
                       details={"dim": dim, **details, "failures": failures[:5]})


def closure_suite(dim: int, seed: int, pairs: int) -> SuiteResult:
    """Triple products of random effect pairs stay inside [0, I]."""
    ab = random_effects(dim, Stream(seed).u64_block(2 * pairs))  # A and B of each pair
    a, b = ab[0::2], ab[1::2]
    w = np.linalg.eigvalsh(a @ b @ a)  # each ABA, as effects.jordan_triple forms it
    lo, hi = float(w.min()), float(w.max())
    return SuiteResult(
        "triple_closure",
        passed=(lo >= -EIG_BAND_TOL and hi <= 1.0 + EIG_BAND_TOL),
        details={"dim": dim, "pairs": pairs, "min_eigenvalue": lo, "max_eigenvalue": hi},
    )


def _roundtrip(
    s: Stream, dim: int, descriptors: int, family: str, flags, tol: float
) -> tuple[list[str], float, float, list]:
    """Synthesize ``family`` maps with ``flags(i)``, recover each and
    compare; return the failures, the worst unitary distance and
    residual, and the canonical reports whose flags match."""
    failures: list[str] = []
    reports = []
    max_u = 0.0
    max_res = 0.0
    for i in range(descriptors):
        want = flags(i)
        d_true = random_symmetry(dim, s.next_u64(), family=family, **want)
        phi = EffectMapOracle.from_descriptor(d_true)
        report = route(family)(phi, tol=tol, trials=VERIFY_TRIALS, seed=s.next_u64())
        if not report.canonical:
            failures.append(f"descriptor {i}: {report.reason}")
            continue
        got = {key: getattr(report.descriptor, key) for key in want}
        if got != want:
            failures.append(f"descriptor {i}: got {', '.join(f'{k} {v}' for k, v in got.items())}")
            continue
        reports.append(report)
        u_rec, u_true = gauge_normalize(report.descriptor).unitary, gauge_normalize(d_true).unitary
        max_u = nan_max(max_u, frobenius_norm(u_rec - u_true))
        max_res = nan_max(max_res, report.max_residual)
    return failures, max_u, max_res, reports


def _kind(i: int) -> str:
    return (UNITARY, ANTIUNITARY)[i % 2]


def affine_roundtrip_suite(dim: int, seed: int, descriptors: int, tol: float = RESIDUAL_TOL) -> SuiteResult:
    """Synthesize affine-family maps (all kind x complement combos),
    recover them, and compare flags, unitary, and residual."""
    def flags(i):
        return {"kind": _kind(i), "complement": (i // 2) % 2 == 1}

    failures, max_u, max_res, _ = _roundtrip(Stream(seed), dim, descriptors, AFFINE, flags, tol)
    combos_seen = {(f["kind"], f["complement"]) for f in map(flags, range(descriptors))}
    return _result(
        "affine_roundtrip", failures, dim, max_u <= U_MATCH_TOL and max_res <= tol,
        descriptors=descriptors, combos_seen=sorted(f"{k}:{c}" for k, c in combos_seen),
        max_unitary_distance=max_u, max_residual=max_res,
    )


def triple_roundtrip_suite(dim: int, seed: int, descriptors: int, tol: float = RESIDUAL_TOL) -> SuiteResult:
    """Synthesize triple-family maps (both kinds), recover, compare."""
    if dim < MIN_DIM[TRIPLE_EFFECTS]:
        return _skipped("triple_roundtrip", TRIPLE_EFFECTS)
    failures, max_u, max_res, reports = _roundtrip(
        Stream(seed), dim, descriptors, TRIPLE_EFFECTS, lambda i: {"kind": _kind(i)}, tol
    )
    max_scaling = nan_max(0.0, *(check_scaling_identity(r.scaling).max_identity_deviation for r in reports))
    return _result(
        "triple_roundtrip", failures, dim,
        max_u <= U_MATCH_TOL and max_res <= tol and max_scaling <= SCALING_TOL,
        descriptors=descriptors, max_unitary_distance=max_u, max_residual=max_res,
        max_scaling_deviation=max_scaling,
    )


def hermitian_sign_suite(dim: int, seed: int, descriptors: int, tol: float = RESIDUAL_TOL) -> SuiteResult:
    """Synthesize sign-family maps (kind x sign combos), recover,
    compare; also check that the shifted map A -> A + I is refused."""
    if dim < MIN_DIM[TRIPLE_HERMITIAN]:
        return _skipped("hermitian_sign", TRIPLE_HERMITIAN)
    s = Stream(seed)
    failures, max_u, max_res, _ = _roundtrip(
        s, dim, descriptors, TRIPLE_HERMITIAN,
        lambda i: {"kind": _kind(i), "sign": 1 if (i // 2) % 2 == 0 else -1}, tol,
    )

    eye = np.eye(dim, dtype=complex)
    shifted = EffectMapOracle(dim, lambda a: np.asarray(a, dtype=complex) + eye, label="shift")
    shift_report = route(TRIPLE_HERMITIAN)(shifted, tol=tol, trials=8, seed=s.next_u64())
    shift_refused = (not shift_report.canonical) and "φ(I) ∉ {I, −I}" in shift_report.reason
    if not shift_refused:
        failures.append("shifted map A -> A + I was not refused with the φ(I) reason")

    return _result(
        "hermitian_sign", failures, dim, max_u <= U_MATCH_TOL and max_res <= tol,
        descriptors=descriptors, max_unitary_distance=max_u, max_residual=max_res,
        shift_refused=shift_refused,
    )


def perturbed_conjugation_oracle(dim: int, seed: int, eps: float = REJECTION_EPS) -> EffectMapOracle:
    """The rejection battery's target: (1-eps) U A U* + eps (U A U*)^2."""
    u = haar_unitary(dim, seed)
    u_adj = adjoint(u)  # once for every query, as a descriptor binds it

    def evaluate(a):
        x = u @ np.asarray(a, dtype=complex) @ u_adj
        return (1.0 - eps) * x + eps * (x @ x)

    return EffectMapOracle(dim, evaluate, label="perturbed")


def rejection_suite(dim: int, seed: int, oracles: int, tol: float = RESIDUAL_TOL) -> SuiteResult:
    """Perturbed conjugations must be rejected by both recovery routes;
    the complemented map A -> I - A must be rejected by the triple route
    with a triple-identity witness."""
    s = Stream(seed)
    failures: list[str] = []
    families = [AFFINE] + ([TRIPLE_EFFECTS] if dim >= MIN_DIM[TRIPLE_EFFECTS] else [])
    for k in range(oracles):
        phi = perturbed_conjugation_oracle(dim, s.next_u64())
        for family in families:
            if route(family)(phi, tol=tol, trials=8, seed=s.next_u64()).canonical:
                failures.append(f"oracle {k}: {family} route accepted a perturbed map")

    complemented_rejected = None
    if TRIPLE_EFFECTS in families:
        eye = np.eye(dim, dtype=complex)
        comp = EffectMapOracle(dim, lambda a: eye - np.asarray(a, dtype=complex), label="complement")
        report = route(TRIPLE_EFFECTS)(comp, tol=tol, trials=8, seed=s.next_u64())
        complemented_rejected = (
            (not report.canonical)
            and "triple identity" in report.reason
            and report.witness is not None
        )
        if not complemented_rejected:
            failures.append("complemented map was not rejected with a triple-identity witness")

    return _result(
        "rejection_battery", failures, dim,
        oracles=oracles, eps=REJECTION_EPS, complemented_rejected=complemented_rejected,
    )


def scaling_grid_suite(dim: int, seed: int, oracles: int) -> SuiteResult:
    """Canonical triple maps satisfy all three scaling identities on the
    17-point grid {k/16}, each sampled on one projection drawn from ``seed``'s stream."""
    if dim < MIN_DIM[TRIPLE_EFFECTS]:
        return _skipped("scaling_grid", TRIPLE_EFFECTS)
    s = Stream(seed)
    max_id = max_mult = max_ortho = 0.0
    failures: list[str] = []
    for k in range(oracles):
        d = random_symmetry(dim, s.next_u64(), family=TRIPLE_EFFECTS)
        phi = EffectMapOracle.from_descriptor(d)
        chk = check_scaling_identity(extract_scaling_function(phi, s.next_u64()))
        max_id = nan_max(max_id, chk.max_identity_deviation)
        max_mult = nan_max(max_mult, chk.max_multiplicative_deviation)
        max_ortho = nan_max(max_ortho, chk.max_orthoadditive_deviation)
        if not chk:
            failures.append(f"oracle {k}: identity deviation {chk.max_identity_deviation:.3e}")
    return _result(
        "scaling_grid", failures, dim, nan_max(max_id, max_mult, max_ortho) <= SCALING_TOL,
        oracles=oracles, max_identity_deviation=max_id,
        max_multiplicative_deviation=max_mult, max_orthoadditive_deviation=max_ortho,
    )


def extension_suite(dim: int, seed: int, probes: int = 200) -> SuiteResult:
    """Linearity of the extension and the norm bound 2 for ``EXTENSION_ORACLES`` effect maps."""
    s = Stream(seed)
    failures: list[str] = []
    max_lin = 0.0
    max_bound = 0.0
    for k in range(EXTENSION_ORACLES):
        d = random_symmetry(dim, s.next_u64(), family=AFFINE, kind=_kind(k), complement=False)
        lin = linearity_defect(EffectMapOracle.from_descriptor(d), s.spawn(), probes)
        max_lin = nan_max(max_lin, lin)
        if not lin <= LINEARITY_TOL:
            failures.append(f"oracle {k}: linearity deviation {lin:.3e}")

        d_any = random_symmetry(dim, s.next_u64(), family=AFFINE)
        bound = boundedness_check(EffectMapOracle.from_descriptor(d_any), seed=s.next_u64())
        max_bound = nan_max(max_bound, bound)
        if not bound <= 2.0 + BOUND_SLACK:
            failures.append(f"oracle {k}: extension norm {bound:.6f} above 2")

        ball_stream = s.spawn()
        g = complex_gaussian(dim, ball_stream)
        g = g / max(np.linalg.norm(g, 2), 1.0)
        parts = unit_ball_decomposition(g)
        recomp = parts[0] - parts[1] + 1j * (parts[2] - parts[3])
        if not frobenius_norm(recomp - g) <= 1e-12:
            failures.append(f"oracle {k}: unit-ball recomposition error")

    return _result(
        "extension", failures, dim, oracles=EXTENSION_ORACLES, probes=probes,
        max_linearity_deviation=max_lin, max_extension_norm=max_bound,
    )


def probe_suite(dim: int, seed: int, oracles: int, projection_pairs: int = 100) -> SuiteResult:
    """Preservation probes pass on canonical maps, and the order
    predicate agrees with the pinching identity P Q P = P."""
    s = Stream(seed)
    failures: list[str] = []
    for k in range(oracles):
        family = TRIPLE_EFFECTS if dim >= MIN_DIM[TRIPLE_EFFECTS] else AFFINE
        kw = {"complement": False} if family == AFFINE else {}
        d = random_symmetry(dim, s.next_u64(), family=family, **kw)
        probe = preservation_probe(EffectMapOracle.from_descriptor(d), trials=8, seed=s.next_u64())
        if not probe.all_preserved:
            failures.append(f"oracle {k}: {probe.failed_checks()}")

    # Pair k draws one seed (a nested pair) if k is even, else two (two projections).
    seeds = s.u64_block(projection_pairs + projection_pairs // 2)
    nested = iter(nested_projection_pairs(dim, seeds[0::3]))
    plain = zip(random_projections(dim, seeds[1::3]), random_projections(dim, seeds[2::3]))
    mismatches = 0
    for k in range(projection_pairs):
        p, q = next(nested) if k % 2 == 0 else next(plain)
        order = leq(p, q, ORDER_TOL)
        pinch = frobenius_norm(p @ q @ p - p) <= ORDER_TOL
        if order != pinch:
            mismatches += 1
    if mismatches:
        failures.append(f"{mismatches} order/pinching mismatches")

    return _result(
        "projection_probes", failures, dim, oracles=oracles,
        projection_pairs=projection_pairs, order_pinching_mismatches=mismatches,
    )


def phase_gauge_suite(dim: int, seed: int) -> SuiteResult:
    """Oracles built from exp(i theta) U recover one gauge-normalized U,
    bitwise identical after rounding entries to 1e-12."""
    s = Stream(seed)
    failures: list[str] = []
    families = [AFFINE] + ([TRIPLE_EFFECTS] if dim >= MIN_DIM[TRIPLE_EFFECTS] else [])
    for family in families:
        u0 = haar_unitary(dim, s.next_u64())
        rec_seed = s.next_u64()
        rounded: list[np.ndarray] = []
        for theta in GAUGE_THETAS:
            d = SymmetryDescriptor(UNITARY, np.exp(1j * theta) * u0)
            report = route(family)(EffectMapOracle.from_descriptor(d), trials=8, seed=rec_seed)
            if not report.canonical:
                failures.append(f"{family}, theta={theta}: {report.reason}")
                continue
            rounded.append(np.round(gauge_normalize(report.descriptor).unitary, 12))
        for k in range(1, len(rounded)):
            if not np.array_equal(rounded[0], rounded[k]):
                failures.append(f"{family}: recovered U differs at theta={GAUGE_THETAS[k]}")
    return _result("phase_gauge", failures, dim, thetas=list(GAUGE_THETAS))


def run_verify_suites(dim: int, seed: int, trials: int, tol: float = RESIDUAL_TOL) -> list[SuiteResult]:
    """The CLI ``verify`` battery; ValueError on dim < MIN_DIM[AFFINE] or a run
    that :func:`effectsym.recover.check_run` refuses."""
    if dim < MIN_DIM[AFFINE]:
        raise ValueError(f"verify needs dim >= {MIN_DIM[AFFINE]}, got {dim}")
    check_run(trials, tol)
    s = Stream(seed)
    n_desc = max(1, trials // 10)
    results = [
        closure_suite(dim, s.next_u64(), pairs=trials),
        affine_roundtrip_suite(dim, s.next_u64(), descriptors=n_desc, tol=tol),
        triple_roundtrip_suite(dim, s.next_u64(), descriptors=n_desc, tol=tol),
        hermitian_sign_suite(dim, s.next_u64(), descriptors=n_desc, tol=tol),
        rejection_suite(dim, s.next_u64(), oracles=max(1, min(5, n_desc)), tol=tol),
        scaling_grid_suite(dim, s.next_u64(), oracles=max(1, min(10, n_desc))),
        extension_suite(dim, s.next_u64(), probes=max(10, min(trials, 200))),
        probe_suite(dim, s.next_u64(), oracles=max(1, min(10, n_desc)), projection_pairs=trials),
        phase_gauge_suite(dim, s.next_u64()),
    ]
    return results
