"""Reconstruction of canonical symmetries from black-box maps.

Given only an evaluator over effects (or over all Hermitian matrices),
the routines here decide whether the map is one of the canonical
symmetry families and, if so, recover a :class:`SymmetryDescriptor`
for it.  Each family is one chain of stages run by one runner; a stage
that refuses the map ends the chain, and the runner builds the report
from the fields found so far plus those of the refusing stage.

* :func:`recover_affine` (dim >= 2): affinity probe (``witness``);
  classify φ(0) ∈ {0, I}, fixing the complement flag; rebuild the
  (anti)unitary from the action on rank-one projections; verify on
  random effects (``descriptor``, ``max_residual``).
* :func:`recover_triple` (dim >= 3): triple identity on effect pairs
  (``witness``); preservation probe on projections (``probe``, plus
  the first probe witness); rebuild; rank-one scaling function against
  the identity (``scaling``); verify on random effects (``descriptor``,
  ``max_residual``).
* :func:`recover_triple_hermitian` (dim >= 3): classify φ(I) ∈ {I, −I},
  fixing the sign; the triple chain on the sign-fixed map, whose verify
  stage proposes a candidate (a rejection there reports it with the
  sign); verify the signed descriptor on Gaussian Hermitian samples,
  which replaces the candidate's ``descriptor`` and ``max_residual``.

A rebuild failure (:class:`ReconstructionError`) adds no field.  Sample
counts are module constants: ``TRIPLE_PROBE_PAIRS`` effect pairs,
``TRIPLE_PROBE_TRIALS`` probe rounds, the ``SCALING_GRID`` {k/16},
``RECONSTRUCT_CHECKS`` rank-one checks of a rebuilt unitary (the
affinity probe's count lives in :mod:`effectsym.extension`).  Probes
and the scaling check compare against ``extension.PROBE_TOL``,
classifications against ``CLASSIFY_TOL``.  Every
universally quantified hypothesis is checked on seeded samples, never
proven.  Runs are deterministic given (seed, oracle).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .effects import rank_one_projection
from .extension import PROBE_TOL, EffectMapOracle, is_affine
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
CLASSIFY_TOL = 1e-6
RANK_ONE_TOL = 1e-6
PHASE_CUTOFF = 1e-6

SCALING_GRID = np.arange(17) / 16.0
TRIPLE_PROBE_PAIRS = 16
TRIPLE_PROBE_TRIALS = 16
RECONSTRUCT_CHECKS = 20

CANONICAL = "canonical"
REJECTED = "rejected"

EFFECTS_DOMAIN = "effects"
HERMITIAN_DOMAIN = "hermitian"


class ReconstructionError(RuntimeError):
    """The action does not come from a single (anti)unitary conjugation."""


class _Rejected(Exception):
    """A stage refuses the map: the reason plus the report fields it found."""

    def __init__(self, reason: str, **fields):
        super().__init__(reason)
        self.fields = fields


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


def preservation_probe(phi: EffectMapOracle, trials: int = 20, seed: int = 0) -> ProbeReport:
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
        if defect > PROBE_TOL:
            fail("projections", (p,), defect)
        comp_defect = frobenius_norm(img + phi(eye - p) - eye)
        if comp_defect > PROBE_TOL:
            fail("orthocomplement", (p,), comp_defect)

        p_low, p_high = nested_projections(dim, s.next_u64())
        img_low, img_high = phi(p_low), phi(p_high)
        matching_dims(img_low, img_high)
        gap = eigenvalues_hermitian(img_high - img_low)[0]
        if not gap >= -PROBE_TOL:
            fail("order", (p_low, p_high), float(-gap))

        q1, q2 = orthogonal_projections(dim, s.next_u64())
        prod = frobenius_norm(phi(q1) @ phi(q2))
        if prod > PROBE_TOL:
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
) -> tuple[np.ndarray, str]:
    """Rebuild (U, kind) from an action on rank-one projections.

    The algorithm mirrors the classical reconstruction: take the image
    vectors f_i of the basis projections, align the phase of each f_j
    (j >= 1) against the image of the projection onto (e_0 + e_j)/sqrt2,
    decide unitary vs antiunitary from the image of the projection onto
    (e_0 + i e_1)/sqrt2, then verify on ``RECONSTRUCT_CHECKS`` random
    rank-one projections.
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
    for _ in range(RECONSTRUCT_CHECKS):
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


def check_scaling_identity(samples: ScalingSamples) -> ScalingCheck:
    """Compare sampled f with the identity.

    Passing requires max |f(lam) - lam| <= PROBE_TOL and trustworthy
    samples (proportionality residuals <= PROBE_TOL).  The multiplicative
    identity f(lam^2) = f(lam)^2 and the orthoadditive identity
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

    ok = id_dev <= PROBE_TOL and prop_res <= PROBE_TOL
    return ScalingCheck(ok, id_dev, mult_dev, ortho_dev, prop_res)


def _classify(img: np.ndarray, candidates: tuple, reason: str) -> int:
    """Index of the first candidate within CLASSIFY_TOL of ``img``; if
    none is, reject with ``reason`` formatted with every distance."""
    dists = [frobenius_norm(img - c) for c in candidates]
    for i, dist in enumerate(dists):
        if dist <= CLASSIFY_TOL:
            return i
    raise _Rejected(reason.format(*dists))


def _verify(found: dict, phi, d: SymmetryDescriptor, tol: float, trials: int, seed: int,
            domain: str, where: str = "") -> None:
    """Accept the gauge-normalized ``d`` if its residual is within tol."""
    d = gauge_normalize(d)
    residual = verify_descriptor(phi, d, trials, seed=seed, domain=domain)
    if residual > tol:
        raise _Rejected(
            f"canonical-form residual {residual:.3e} above tolerance {tol:g}{where}",
            descriptor=d,
            max_residual=residual,
        )
    found.update(descriptor=d, max_residual=residual)


def _affine_chain(found: dict, phi: EffectMapOracle, tol: float, trials: int, s: Stream) -> None:
    dim = phi.dim
    eye = np.eye(dim, dtype=complex)
    aff = is_affine(phi, seed=s.next_u64())
    if not aff:
        raise _Rejected(
            f"map is not affine: convex-combination defect {aff.max_deviation:.3e}",
            witness=aff.witness,
        )
    comp = bool(_classify(
        phi(np.zeros((dim, dim))),
        (0, eye),
        "φ(0) not in {{0, I}} (‖φ(0)‖ = {:.3e}, ‖φ(0) − I‖ = {:.3e})",
    ))
    action = (lambda p: eye - phi(p)) if comp else phi
    u, kind = reconstruct_unitary_from_projection_action(action, dim, tol=tol, seed=s.next_u64())
    _verify(found, phi, SymmetryDescriptor(kind, u, complement=comp), tol, trials,
            s.next_u64(), EFFECTS_DOMAIN)


def _triple_chain(found: dict, phi: EffectMapOracle, tol: float, trials: int, s: Stream) -> None:
    dim = phi.dim
    pair_stream = s.spawn()
    for _ in range(TRIPLE_PROBE_PAIRS):
        a = random_effect(dim, pair_stream.next_u64())
        b = random_effect(dim, pair_stream.next_u64())
        dev = frobenius_norm(phi(a @ b @ a) - phi(a) @ phi(b) @ phi(a))
        if dev > PROBE_TOL:
            raise _Rejected(
                f"triple identity violated: ‖φ(ABA) − φ(A)φ(B)φ(A)‖ = {dev:.3e}",
                witness=(a, b),
            )

    probe = preservation_probe(phi, TRIPLE_PROBE_TRIALS, seed=s.next_u64())
    if not probe.all_preserved:
        raise _Rejected(
            f"projection-structure probe failed ({', '.join(probe.failed_checks())} not preserved)",
            probe=probe,
            witness=probe.witnesses[0].inputs,
        )
    found["probe"] = probe

    u, kind = reconstruct_unitary_from_projection_action(phi, dim, tol=tol, seed=s.next_u64())

    p = rank_one_projection(random_unit_vector(dim, s.next_u64()))
    samples = extract_scaling_function(phi, p, SCALING_GRID)
    scaling_check = check_scaling_identity(samples)
    if not scaling_check:
        raise _Rejected(
            "scaling function deviates from identity: "
            f"max |f(λ) − λ| = {scaling_check.max_identity_deviation:.3e}, "
            f"max proportionality residual = {scaling_check.max_proportionality_residual:.3e}",
            scaling=samples,
        )
    found["scaling"] = samples

    _verify(found, phi, SymmetryDescriptor(kind, u), tol, trials, s.next_u64(), EFFECTS_DOMAIN)


def _hermitian_chain(found: dict, phi: EffectMapOracle, tol: float, trials: int, s: Stream) -> None:
    dim = phi.dim
    eye = np.eye(dim, dtype=complex)
    sign = (1, -1)[_classify(
        phi(eye),
        (eye, -eye),
        "φ(I) ∉ {{I, −I}} (‖φ(I) − I‖ = {:.3e}, ‖φ(I) + I‖ = {:.3e})",
    )]
    if sign == 1:
        psi = phi
    else:
        # One validation per query: negate phi's evaluator, not phi itself.
        psi = EffectMapOracle(
            dim, lambda m: -np.asarray(phi.evaluator(m), dtype=complex), label="sign_fixed"
        )

    try:
        _triple_chain(found, psi, tol, trials, Stream(s.next_u64()))
    except _Rejected as err:
        if "descriptor" in err.fields:
            err.fields["descriptor"] = replace(err.fields["descriptor"], sign=sign)
        raise
    candidate = found["descriptor"]
    _verify(found, phi, SymmetryDescriptor(candidate.kind, candidate.unitary, sign=sign), tol,
            trials, s.next_u64(), HERMITIAN_DOMAIN, " on Hermitian samples")


def _run(family: str, chain, phi: EffectMapOracle, tol: float, trials: int, seed: int) -> RecoveryReport:
    """Run one family's chain; every report, canonical or rejected, is built here."""
    found: dict = {}
    try:
        chain(found, phi, tol, trials, Stream(seed))
    except (_Rejected, ReconstructionError) as err:
        fields = {**found, **getattr(err, "fields", {})}
        return RecoveryReport(verdict=REJECTED, family=family, reason=str(err), **fields)
    return RecoveryReport(verdict=CANONICAL, family=family, **found)


def recover_affine(
    phi: EffectMapOracle, tol: float = ACCEPT_TOL, trials: int = 100, seed: int = 0
) -> RecoveryReport:
    """Classify an affine bijection candidate; see the module docstring."""
    if phi.dim < 2:
        raise ValueError("recover_affine needs dim >= 2")
    return _run(AFFINE, _affine_chain, phi, tol, trials, seed)


def recover_triple(
    phi: EffectMapOracle, tol: float = ACCEPT_TOL, trials: int = 100, seed: int = 0
) -> RecoveryReport:
    """Classify a triple-multiplicative candidate on effects (dim >= 3)."""
    if phi.dim < 3:
        raise ValueError("recover_triple needs dim >= 3")
    return _run(TRIPLE_EFFECTS, _triple_chain, phi, tol, trials, seed)


def recover_triple_hermitian(
    phi: EffectMapOracle, tol: float = ACCEPT_TOL, trials: int = 100, seed: int = 0
) -> RecoveryReport:
    """Classify a triple-multiplicative candidate on all self-adjoints.

    The image of I fixes the sign; the sign-corrected restriction to
    [0, I] must pass the effect-interval chain; the final residual is
    taken over unbounded Gaussian Hermitian samples.
    """
    if phi.dim < 3:
        raise ValueError("recover_triple_hermitian needs dim >= 3")
    return _run(TRIPLE_HERMITIAN, _hermitian_chain, phi, tol, trials, seed)
