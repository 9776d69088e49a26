"""Reconstruction of canonical symmetries from black-box maps.

Given only an evaluator over effects (or over all Hermitian matrices),
the routines here decide whether the map is one of the canonical
symmetry families and, if so, recover a :class:`SymmetryDescriptor`
for it:

* :func:`recover_affine` handles affine bijection candidates (dim >= 2):
  probe affinity, classify the image of 0 (must be 0 or I, fixing the
  complement flag), rebuild the (anti)unitary from the action on
  rank-one projections, then verify on random effects.
* :func:`recover_triple` handles triple-multiplicative candidates on
  effects (dim >= 3): probe the triple identity and the structural
  preservation properties, rebuild, check the rank-one scaling function
  against the identity, then verify.
* :func:`recover_triple_hermitian` handles the unbounded self-adjoint
  domain (dim >= 3): classify the image of I (must be +-I, fixing the
  sign), reduce to the effect-interval pipeline, then verify on
  Gaussian Hermitian samples.

Every universally quantified hypothesis is checked on seeded samples,
never proven; reports record the sample counts and carry witnesses for
whichever probe fails first.  Runs are deterministic given (seed,
oracle).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .effects import rank_one_projection
from .extension import EffectMapOracle, is_affine
from .linalg import (
    adjoint,
    eigenvalues_hermitian,
    frobenius_norm,
    hermitize,
    hermiticity_defect,
    matching_dims,
)
from .rng import Stream
from .sampling import (
    nested_projections,
    orthogonal_projections,
    random_effect,
    random_hermitian,
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
    apply_symmetry,
    gauge_normalize,
)

ACCEPT_TOL = 1e-8
PROBE_TOL = 1e-9
CLASSIFY_TOL = 1e-6
RANK_ONE_TOL = 1e-6
PHASE_CUTOFF = 1e-6

SCALING_GRID = np.arange(17) / 16.0

CANONICAL = "canonical"
REJECTED = "rejected"

EFFECTS_DOMAIN = "effects"
HERMITIAN_DOMAIN = "hermitian"


class ReconstructionError(RuntimeError):
    """The action does not come from a single (anti)unitary conjugation."""


@dataclass(frozen=True)
class ProbeWitness:
    check: str
    inputs: tuple
    defect: float


@dataclass(frozen=True)
class ProbeReport:
    """Outcome of the structural preservation probe on random projections."""

    projections_preserved: bool
    order_preserved: bool
    orthogonality_preserved: bool
    orthocomplement_preserved: bool
    witnesses: tuple[ProbeWitness, ...]
    samples_used: int

    @property
    def all_preserved(self) -> bool:
        return (
            self.projections_preserved
            and self.order_preserved
            and self.orthogonality_preserved
            and self.orthocomplement_preserved
        )

    def failed_checks(self) -> list[str]:
        flags = {
            "projections": self.projections_preserved,
            "order": self.order_preserved,
            "orthogonality": self.orthogonality_preserved,
            "orthocomplement": self.orthocomplement_preserved,
        }
        return [name for name, ok in flags.items() if not ok]


@dataclass(frozen=True)
class ScalingSamples:
    """Samples of the scalar function f with phi(lam*P) = f(lam) * phi(P).

    ``residuals`` holds the rank-one proportionality defect per sample;
    a sample is trustworthy only when its residual is small.
    """

    projection: np.ndarray
    lambdas: np.ndarray
    values: np.ndarray
    residuals: np.ndarray

    def __post_init__(self):
        if not (np.all(np.isfinite(self.lambdas)) and np.all(np.isfinite(self.values))):
            raise ValueError("scaling samples must be finite")
        if not (len(self.lambdas) == len(self.values) == len(self.residuals)):
            raise ValueError("scaling sample arrays must have matching lengths")

    @property
    def pairs(self) -> list[tuple[float, float]]:
        return list(zip(self.lambdas.tolist(), self.values.tolist()))


@dataclass(frozen=True)
class ScalingCheck:
    """Deviations of sampled f from the identity and its support identities."""

    ok: bool
    max_identity_deviation: float
    max_multiplicative_deviation: float
    max_orthoadditive_deviation: float
    max_proportionality_residual: float

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class RecoveryReport:
    verdict: str
    family: str
    reason: str = ""
    descriptor: SymmetryDescriptor | None = None
    max_residual: float = math.nan
    probe: ProbeReport | None = None
    scaling: ScalingSamples | None = None
    witness: tuple | None = None

    @property
    def canonical(self) -> bool:
        return self.verdict == CANONICAL


def _rejected(family: str, reason: str, **kw) -> RecoveryReport:
    return RecoveryReport(verdict=REJECTED, family=family, reason=reason, **kw)


def preservation_probe(
    phi: EffectMapOracle,
    trials: int = 20,
    tol: float = PROBE_TOL,
    seed: int = 0,
) -> ProbeReport:
    """Check that images of random projections behave like projections.

    Per trial: one Haar projection (is its image an idempotent, and do
    the images of P and I - P sum to I?), one nested pair (is order
    preserved?), one orthogonal pair (do images multiply to 0?).
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    dim = phi.dim
    eye = np.eye(dim, dtype=complex)
    s = Stream(seed)
    flags = {"projections": True, "order": True, "orthogonality": True, "orthocomplement": True}
    witnesses: list[ProbeWitness] = []

    def fail(check: str, inputs: tuple, defect: float):
        flags[check] = False
        witnesses.append(ProbeWitness(check, inputs, defect))

    for _ in range(trials):
        p = random_projection(dim, s.next_u64())
        img = phi(p)
        defect = max(hermiticity_defect(img), frobenius_norm(img @ img - img))
        if defect > tol:
            fail("projections", (p,), defect)
        comp_defect = frobenius_norm(img + phi(eye - p) - eye)
        if comp_defect > tol:
            fail("orthocomplement", (p,), comp_defect)

        p_low, p_high = nested_projections(dim, s.next_u64())
        img_low, img_high = phi(p_low), phi(p_high)
        matching_dims(img_low, img_high)
        gap = eigenvalues_hermitian(img_high - img_low)[0]
        if not gap >= -tol:
            fail("order", (p_low, p_high), float(-gap))

        q1, q2 = orthogonal_projections(dim, s.next_u64())
        prod = frobenius_norm(phi(q1) @ phi(q2))
        if prod > tol:
            fail("orthogonality", (q1, q2), prod)

    return ProbeReport(
        projections_preserved=flags["projections"],
        order_preserved=flags["order"],
        orthogonality_preserved=flags["orthogonality"],
        orthocomplement_preserved=flags["orthocomplement"],
        witnesses=tuple(witnesses),
        samples_used=trials,
    )


def _rank_one_vector(img: np.ndarray, what: str) -> np.ndarray:
    """Certified top eigenvector of a near rank-one projection image."""
    herm = hermiticity_defect(img)
    w, v = np.linalg.eigh(hermitize(img))
    rest = float(np.max(np.abs(w[:-1]))) if len(w) > 1 else 0.0
    if herm > RANK_ONE_TOL or abs(w[-1] - 1.0) > RANK_ONE_TOL or rest > RANK_ONE_TOL:
        raise ReconstructionError(
            f"{what} is not a rank-one projection (projection preservation fails): "
            f"top eigenvalue {w[-1]:.6f}, residual spectrum {rest:.3e}, "
            f"hermiticity defect {herm:.3e}"
        )
    return v[:, -1]


def _nearest_unitary(frame: np.ndarray) -> np.ndarray:
    w, _, vh = np.linalg.svd(frame)
    return w @ vh


def reconstruct_unitary_from_projection_action(
    action,
    dim: int,
    tol: float = ACCEPT_TOL,
    seed: int = 0,
    checks: int = 20,
) -> tuple[np.ndarray, str]:
    """Rebuild (U, kind) from an action on rank-one projections.

    The algorithm mirrors the classical reconstruction: take the image
    vectors f_i of the basis projections, align the phase of each f_j
    (j >= 1) against the image of the projection onto (e_0 + e_j)/sqrt2,
    decide unitary vs antiunitary from the image of the projection onto
    (e_0 + i e_1)/sqrt2, then verify on random rank-one projections.
    Raises :class:`ReconstructionError` whenever the action strays from
    a single-conjugation form.
    """
    if dim < 2:
        raise ValueError("reconstruction needs dim >= 2")
    eye = np.eye(dim, dtype=complex)

    frame = []
    for i in range(dim):
        img = np.asarray(action(np.outer(eye[i], eye[i])), dtype=complex)
        frame.append(_rank_one_vector(img, f"image of basis projection {i}"))

    for i in range(dim):
        for j in range(i + 1, dim):
            overlap = abs(np.vdot(frame[i], frame[j]))
            if overlap > RANK_ONE_TOL:
                raise ReconstructionError(
                    f"images of orthogonal basis projections {i}, {j} are not "
                    f"orthogonal (overlap {overlap:.3e})"
                )

    sqrt2 = np.sqrt(2.0)
    for j in range(1, dim):
        x = (eye[0] + eye[j]) / sqrt2
        r = np.asarray(action(np.outer(x, np.conj(x))), dtype=complex)
        z = np.vdot(frame[j], r @ frame[0])
        if abs(z) < PHASE_CUTOFF:
            raise ReconstructionError(
                f"phase alignment degenerate for basis column {j} (|overlap| = {abs(z):.3e})"
            )
        frame[j] = (z / abs(z)) * frame[j]

    x = (eye[0] + 1j * eye[1]) / sqrt2
    s_img = np.asarray(action(np.outer(x, np.conj(x))), dtype=complex)
    plus = (frame[0] + 1j * frame[1]) / sqrt2
    minus = (frame[0] - 1j * frame[1]) / sqrt2
    d_plus = frobenius_norm(s_img - np.outer(plus, np.conj(plus)))
    d_minus = frobenius_norm(s_img - np.outer(minus, np.conj(minus)))
    kind = UNITARY if d_plus <= d_minus else ANTIUNITARY

    u = _nearest_unitary(np.column_stack(frame))
    u = gauge_normalize(SymmetryDescriptor(kind, u)).unitary

    vs = Stream(seed)
    worst = 0.0
    for _ in range(checks):
        x = random_unit_vector(dim, vs.next_u64())
        px = np.outer(x, np.conj(x))
        expected = u @ (np.conj(px) if kind == ANTIUNITARY else px) @ adjoint(u)
        worst = max(worst, frobenius_norm(np.asarray(action(px), dtype=complex) - expected))
    if worst > tol:
        raise ReconstructionError(
            f"reconstruction verification failed: rank-one residual {worst:.3e} "
            f"above {tol:g}"
        )
    return u, kind


def verify_descriptor(
    phi,
    d: SymmetryDescriptor,
    trials: int = 100,
    seed: int = 0,
    domain: str = EFFECTS_DOMAIN,
) -> float:
    """Max Frobenius residual between the oracle and the descriptor.

    ``domain`` picks the sampling measure: random effects, or Gaussian
    Hermitian matrices for maps defined on all self-adjoints.
    """
    if domain not in (EFFECTS_DOMAIN, HERMITIAN_DOMAIN):
        raise ValueError(f"unknown sampling domain {domain!r}")
    s = Stream(seed)
    worst = 0.0
    for _ in range(trials):
        if domain == EFFECTS_DOMAIN:
            a = random_effect(d.dim, s.next_u64())
        else:
            a = random_hermitian(d.dim, s.next_u64())
        worst = max(worst, frobenius_norm(np.asarray(phi(a), dtype=complex) - apply_symmetry(d, a)))
    return worst


def extract_scaling_function(phi, p: np.ndarray, lambdas) -> ScalingSamples:
    """Sample f(lam) = tr(phi(lam P) phi(P)) / tr(phi(P)^2) on a rank-one P.

    Each sample's proportionality residual ||phi(lam P) - f(lam) phi(P)||
    is recorded; a large residual marks the sample invalid (no scalar
    scaling law holds there), which :func:`check_scaling_identity`
    turns into a failure.
    """
    p = np.asarray(p, dtype=complex)
    img_p = np.asarray(phi(p), dtype=complex)
    _rank_one_vector(img_p, "image of the scaling projection")
    denom = float(np.trace(img_p @ img_p).real)
    lams = np.asarray(lambdas, dtype=float)
    values = np.empty_like(lams)
    residuals = np.empty_like(lams)
    for i, lam in enumerate(lams):
        img = np.asarray(phi(lam * p), dtype=complex)
        f = float(np.trace(img @ img_p).real) / denom
        values[i] = f
        residuals[i] = frobenius_norm(img - f * img_p)
    return ScalingSamples(projection=p, lambdas=lams, values=values, residuals=residuals)


def check_scaling_identity(samples: ScalingSamples, tol: float = PROBE_TOL) -> ScalingCheck:
    """Compare sampled f with the identity.

    Passing requires max |f(lam) - lam| <= tol and trustworthy samples
    (proportionality residuals <= tol).  The multiplicative identity
    f(lam^2) = f(lam)^2 and the orthoadditive identity
    f(lam^2) + f(1 - lam^2) = 1 are evaluated wherever the grid contains
    the needed points and reported as diagnostics.
    """
    lam = samples.lambdas
    f = samples.values
    id_dev = float(np.max(np.abs(f - lam))) if len(lam) else 0.0
    prop_res = float(np.max(samples.residuals)) if len(lam) else 0.0

    def grid_index(x: float) -> int | None:
        hits = np.flatnonzero(np.abs(lam - x) <= 1e-12)
        return int(hits[0]) if len(hits) else None

    mult_dev = 0.0
    ortho_dev = 0.0
    for i, l in enumerate(lam):
        j = grid_index(l * l)
        if j is None:
            continue
        mult_dev = max(mult_dev, abs(f[j] - f[i] ** 2))
        k = grid_index(1.0 - l * l)
        if k is not None:
            ortho_dev = max(ortho_dev, abs(f[j] + f[k] - 1.0))

    ok = id_dev <= tol and prop_res <= tol
    return ScalingCheck(ok, id_dev, mult_dev, ortho_dev, prop_res)


def recover_affine(
    phi: EffectMapOracle,
    tol: float = ACCEPT_TOL,
    trials: int = 100,
    seed: int = 0,
    probe_trials: int = 64,
    probe_tol: float = PROBE_TOL,
) -> RecoveryReport:
    """Classify an affine bijection candidate; see the module docstring."""
    dim = phi.dim
    if dim < 2:
        raise ValueError("recover_affine needs dim >= 2")
    s = Stream(seed)
    eye = np.eye(dim, dtype=complex)

    aff = is_affine(phi, probe_trials, probe_tol, seed=s.next_u64())
    if not aff:
        return _rejected(
            AFFINE,
            f"map is not affine: convex-combination defect {aff.max_deviation:.3e}",
            witness=aff.witness,
        )

    zero_img = phi(np.zeros((dim, dim)))
    dist0 = frobenius_norm(zero_img)
    dist1 = frobenius_norm(zero_img - eye)
    if dist0 <= CLASSIFY_TOL:
        comp = False
    elif dist1 <= CLASSIFY_TOL:
        comp = True
    else:
        return _rejected(
            AFFINE,
            f"φ(0) not in {{0, I}} (‖φ(0)‖ = {dist0:.3e}, ‖φ(0) − I‖ = {dist1:.3e})",
        )

    action = (lambda p: eye - phi(p)) if comp else phi
    try:
        u, kind = reconstruct_unitary_from_projection_action(
            action, dim, tol=tol, seed=s.next_u64()
        )
    except ReconstructionError as err:
        return _rejected(AFFINE, str(err))

    d = gauge_normalize(SymmetryDescriptor(kind, u, complement=comp))
    residual = verify_descriptor(phi, d, trials, seed=s.next_u64(), domain=EFFECTS_DOMAIN)
    if residual > tol:
        return _rejected(
            AFFINE,
            f"canonical-form residual {residual:.3e} above tolerance {tol:g}",
            descriptor=d,
            max_residual=residual,
        )
    return RecoveryReport(
        verdict=CANONICAL, family=AFFINE, descriptor=d, max_residual=residual
    )


def recover_triple(
    phi: EffectMapOracle,
    tol: float = ACCEPT_TOL,
    trials: int = 100,
    seed: int = 0,
    probe_tol: float = PROBE_TOL,
    probe_pairs: int = 16,
    probe_trials: int = 16,
    grid=None,
) -> RecoveryReport:
    """Classify a triple-multiplicative candidate on effects (dim >= 3)."""
    dim = phi.dim
    if dim < 3:
        raise ValueError("recover_triple needs dim >= 3")
    s = Stream(seed)
    grid = SCALING_GRID if grid is None else np.asarray(grid, dtype=float)

    pair_stream = s.spawn()
    for _ in range(probe_pairs):
        a = random_effect(dim, pair_stream.next_u64())
        b = random_effect(dim, pair_stream.next_u64())
        lhs = phi(a @ b @ a)
        rhs = phi(a) @ phi(b) @ phi(a)
        dev = frobenius_norm(lhs - rhs)
        if dev > probe_tol:
            return _rejected(
                TRIPLE_EFFECTS,
                f"triple identity violated: ‖φ(ABA) − φ(A)φ(B)φ(A)‖ = {dev:.3e}",
                witness=(a, b),
            )

    probe = preservation_probe(phi, probe_trials, probe_tol, seed=s.next_u64())
    if not probe.all_preserved:
        failed = ", ".join(probe.failed_checks())
        first = probe.witnesses[0]
        return _rejected(
            TRIPLE_EFFECTS,
            f"projection-structure probe failed ({failed} not preserved)",
            probe=probe,
            witness=first.inputs,
        )

    try:
        u, kind = reconstruct_unitary_from_projection_action(
            phi, dim, tol=tol, seed=s.next_u64()
        )
    except ReconstructionError as err:
        return _rejected(TRIPLE_EFFECTS, str(err), probe=probe)

    d = gauge_normalize(SymmetryDescriptor(kind, u))

    p = rank_one_projection(random_unit_vector(dim, s.next_u64()))
    try:
        samples = extract_scaling_function(phi, p, grid)
    except ReconstructionError as err:
        return _rejected(TRIPLE_EFFECTS, str(err), probe=probe)
    scaling_check = check_scaling_identity(samples, probe_tol)
    if not scaling_check:
        return _rejected(
            TRIPLE_EFFECTS,
            "scaling function deviates from identity: "
            f"max |f(λ) − λ| = {scaling_check.max_identity_deviation:.3e}, "
            f"max proportionality residual = {scaling_check.max_proportionality_residual:.3e}",
            probe=probe,
            scaling=samples,
        )

    residual = verify_descriptor(phi, d, trials, seed=s.next_u64(), domain=EFFECTS_DOMAIN)
    if residual > tol:
        return _rejected(
            TRIPLE_EFFECTS,
            f"canonical-form residual {residual:.3e} above tolerance {tol:g}",
            descriptor=d,
            max_residual=residual,
            probe=probe,
            scaling=samples,
        )
    return RecoveryReport(
        verdict=CANONICAL,
        family=TRIPLE_EFFECTS,
        descriptor=d,
        max_residual=residual,
        probe=probe,
        scaling=samples,
    )


def recover_triple_hermitian(
    phi: EffectMapOracle,
    tol: float = ACCEPT_TOL,
    trials: int = 100,
    seed: int = 0,
    probe_tol: float = PROBE_TOL,
    probe_pairs: int = 16,
    probe_trials: int = 16,
) -> RecoveryReport:
    """Classify a triple-multiplicative candidate on all self-adjoints.

    The image of I fixes the sign; the sign-corrected restriction to
    [0, I] must pass the effect-interval pipeline; the final residual is
    taken over unbounded Gaussian Hermitian samples.
    """
    dim = phi.dim
    if dim < 3:
        raise ValueError("recover_triple_hermitian needs dim >= 3")
    s = Stream(seed)
    eye = np.eye(dim, dtype=complex)

    eye_img = phi(eye)
    dist_plus = frobenius_norm(eye_img - eye)
    dist_minus = frobenius_norm(eye_img + eye)
    if dist_plus <= CLASSIFY_TOL:
        sign = 1
    elif dist_minus <= CLASSIFY_TOL:
        sign = -1
    else:
        return _rejected(
            TRIPLE_HERMITIAN,
            f"φ(I) ∉ {{I, −I}} (‖φ(I) − I‖ = {dist_plus:.3e}, ‖φ(I) + I‖ = {dist_minus:.3e})",
        )

    if sign == -1:
        psi = EffectMapOracle(dim, lambda a: -np.asarray(phi(a), dtype=complex), label="sign_fixed")
    else:
        psi = phi

    inner = recover_triple(
        psi,
        tol=tol,
        trials=trials,
        seed=s.next_u64(),
        probe_tol=probe_tol,
        probe_pairs=probe_pairs,
        probe_trials=probe_trials,
    )
    if not inner.canonical:
        return replace(inner, family=TRIPLE_HERMITIAN)

    d = gauge_normalize(
        SymmetryDescriptor(inner.descriptor.kind, inner.descriptor.unitary, sign=sign)
    )
    residual = verify_descriptor(phi, d, trials, seed=s.next_u64(), domain=HERMITIAN_DOMAIN)
    if residual > tol:
        return _rejected(
            TRIPLE_HERMITIAN,
            f"canonical-form residual {residual:.3e} above tolerance {tol:g} "
            f"on Hermitian samples",
            descriptor=d,
            max_residual=residual,
            probe=inner.probe,
            scaling=inner.scaling,
        )
    return RecoveryReport(
        verdict=CANONICAL,
        family=TRIPLE_HERMITIAN,
        descriptor=d,
        max_residual=residual,
        probe=inner.probe,
        scaling=inner.scaling,
    )
