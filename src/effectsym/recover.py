"""Reconstruction of canonical symmetries from black-box maps.

Given only an evaluator over effects (or over all Hermitian matrices),
the routines here decide whether the map is one of the canonical
symmetry families and, if so, recover a :class:`SymmetryDescriptor`
for it.  Each family is one chain of stages run by one runner.  A stage
records what it found in ``found`` and refuses the map through one path,
``_require``: unless every defect it is given is ``<= bound``, it raises
:class:`ReconstructionError` carrying the reason and the stage's witness.
The runner records that witness and builds every report from ``found``.

* :func:`recover_affine`: affinity probe (``witness``); classify
  φ(0) ∈ {0, I}, fixing the complement flag; rebuild the (anti)unitary
  from the action on rank-one projections; verify on random effects
  (``descriptor``, ``max_residual``).
* :func:`recover_triple`: triple identity on effect pairs
  (``witness``); preservation probe on projections (``probe``, plus
  the first probe witness); rebuild; the scaling function f with
  φ(λP) = f(λ)φ(P) against the identity, sampled over ``SCALING_GRID``
  on one rank-one P drawn from the stage's seed (``scaling``); verify on
  random effects (``descriptor``, ``max_residual``).
* :func:`recover_triple_hermitian`: classify φ(I) ∈ {I, −I}, fixing
  the sign; the triple chain with that sign, whose stages before the
  verify ask the sign-fixed map ±φ and whose verify checks φ against
  the signed candidate; verify that candidate on Gaussian Hermitian
  samples, which replaces its ``descriptor`` and ``max_residual``.

This module owns which routine decides a family (:func:`route`, which the
CLI and the suites call) and the run rules (:func:`check_run`: ``trials``
an integer, not a bool, of at least 1, and ``0 < tol < inf``), which the
runner, :func:`verify_descriptor`, :func:`preservation_probe` and the
verify battery apply.  The runner also checks ``phi.dim >= MIN_DIM[family]``
(the table the CLI and the suites read); a broken rule raises ``ValueError``.

A rebuild failure adds no field; an answer of the wrong shape
(:class:`OracleError`), also from the complement or sign-fixed map
(``phi.then``), has its input as witness.  Sample counts are module
constants: ``TRIPLE_PROBE_PAIRS`` effect pairs, ``TRIPLE_PROBE_TRIALS``
probe rounds, the 17-point ``SCALING_GRID`` {k/16}, ``RECONSTRUCT_CHECKS``
rank-one checks of a rebuilt unitary (the affinity probe's count lives
in :mod:`effectsym.extension`).  Probes and the scaling check compare
against ``extension.PROBE_TOL``, classifications against
``CLASSIFY_TOL``.  Every universally quantified hypothesis is checked on
seeded samples, never proven.  Runs are deterministic given (seed,
oracle).

Stages that query every sample whatever the answers (the verify stage,
the rank-one checks of a rebuilt unitary, the scaling samples) ask through
:meth:`EffectMapOracle.answers`, then take the residuals' norms over the
whole stack in one ``linalg.frobenius_norms`` pass, which keeps the bits of
a norm per matrix.  The rebuild forms all 2 dim + ``RECONSTRUCT_CHECKS`` of
its rank-one projections as one broadcast outer product of their vectors
(the bits of ``np.outer`` of each) and asks the first 2 dim one at a time,
checking between them.  The preservation probe builds its 5
projections per trial as one ``sampling`` slice stack.  The affinity probe
and the triple identity stop at their first violation: both are the identity
walk of :mod:`effectsym.extension`, the triple one forming ABA as
``A @ B @ A`` on the block (the bits of ``a.dot(b).dot(a)``) and its
per-trial products with ``ndarray.dot``, which at dim >= 2 gives the bits
of ``@`` without its per-call set-up.
The preservation probe keeps every witness: it asks per trial and checks
on the stack of answers, except that a trial whose order check could raise
(a difference with an entry that is not finite or near overflow) runs that
check in the loop, so the probe raises where a per-trial loop would.

Every check on answers fails when ``not (defect <= bound)`` and folds with
``nan_max``, so a NaN defect fails it; every refusal is a ``_require`` call.
A lint over ``src/`` (``tests/test_lint.py``) holds the rule: it fails on a
``raise ReconstructionError`` outside ``_require``, on a ``<`` or ``>``
against a bound that is not under ``not``, and on a builtin ``max`` or a
hand-written full pass (a comprehension calling ``phi``, or a loop whose
body is one assignment calling it) here or in :mod:`effectsym.extension`.
Its allowlist is the three sites ROADMAP item 1 leaves for a benchmark
change: the identity walk's ``max`` and ``>``, which pass over a NaN
deviation, the verify stage's ``max``, which passes over a NaN norm, and
the probe's in-loop order check, whose ``skew > PROBE_TOL`` lets a NaN
skew through to a raise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .effects import rank_one_projection
from .extension import PROBE_TOL, EffectMapOracle, OracleError, _identity_walk, _require_count, is_affine
from .linalg import (
    adjoint,
    eigenvalues_hermitian,
    frobenius_norm,
    frobenius_norms,
    hermitize,
    hermiticity_defect,
    nan_max,
)
from .rng import Stream
from .sampling import (
    _frames,
    _slice_projections,
    random_effects,
    random_hermitians,
    random_unit_vector,
    random_unit_vectors,
)
from .symmetry import (
    AFFINE,
    ANTIUNITARY,
    TRIPLE_EFFECTS,
    TRIPLE_HERMITIAN,
    UNITARY,
    SymmetryDescriptor,
    _apply_symmetry,
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

MIN_DIM = {AFFINE: 2, TRIPLE_EFFECTS: 3, TRIPLE_HERMITIAN: 3}

EFFECTS_DOMAIN = "effects"
HERMITIAN_DOMAIN = "hermitian"


class ReconstructionError(RuntimeError):
    """A recovery stage (the rebuild among them) refuses the map as not canonical;
    ``witness`` holds the inputs that show it, when the stage has them."""

    def __init__(self, message: str, witness: tuple | None = None):
        super().__init__(message)
        self.witness = witness


def _require(defects, bound, reason: str, *values, witness: tuple | None = None) -> None:
    """Refuse the map unless every defect (a float, or a tuple of them) is
    ``<= bound``, so a NaN defect refuses it: raise :class:`ReconstructionError`
    with ``reason.format(*values)`` and ``witness``.  The one refusal of the
    module; the reason is formatted only on refusal."""
    for defect in defects if type(defects) is tuple else (defects,):
        if not defect <= bound:
            raise ReconstructionError(reason.format(*values), witness)


@dataclass(frozen=True)
class ProbeWitness:
    check: str
    inputs: tuple
    defect: float


PROBE_CHECKS = ("projections", "order", "orthogonality", "orthocomplement")


@dataclass(frozen=True)
class ProbeReport:
    """Outcome of the structural preservation probe on random projections;
    a check failed exactly when it has a witness."""

    witnesses: tuple[ProbeWitness, ...]
    samples_used: int

    def failed_checks(self) -> list[str]:
        failed = {w.check for w in self.witnesses}
        return [name for name in PROBE_CHECKS if name in failed]

    @property
    def all_preserved(self) -> bool:
        return not self.witnesses


@dataclass(frozen=True)
class ScalingSamples:
    """Samples of the scalar f with phi(lam*P) = f(lam) * phi(P), one per lam in ``SCALING_GRID``.

    ``residuals`` holds the rank-one proportionality defect per sample;
    a sample is trustworthy only when its residual is small.
    """

    projection: np.ndarray
    values: np.ndarray
    residuals: np.ndarray

    def __post_init__(self):
        if not (len(SCALING_GRID) == len(self.values) == len(self.residuals)):
            raise ValueError("scaling samples must hold one value and one residual per grid point")


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
    preserved?  a difference of images that is not Hermitian fails it
    with its hermiticity defect), one orthogonal pair (do images
    multiply to 0?).  The oracle is asked per trial, in that order; the
    checks then run on the stack of answers, and the witnesses are listed
    per trial in that order.  An order check that can raise (a difference
    whose squared entries do not sum to a finite number) runs in the loop,
    so it raises at its trial, before the orthogonal pair is asked.
    """
    check_run(trials)
    dim = phi.dim
    eye = np.eye(dim, dtype=complex)
    u, rank, y = _frames(dim, Stream(seed).u64_block(3 * trials))
    (r_p, r_n, r_o), (_, y_n, y_o) = rank.reshape(trials, 3).T, y.reshape(trials, 3).T
    f, zero = 3 * np.arange(trials), np.zeros_like(r_o)
    # per trial P from frame 3t, the nested pair from frame 3t + 1, the orthogonal pair from frame 3t + 2
    proj = _slice_projections(  # P, P_low, P_high, Q1, Q2 of every trial
        u, np.concatenate((f, f + 1, f + 1, f + 2, f + 2)), np.concatenate((zero, zero, zero, zero, r_o)),
        np.concatenate((r_p, 1 + y_n % r_n, r_n, r_o, 1 + y_o % (dim - r_o)))).reshape(5, trials, dim, dim)
    samples = list(zip(zip(proj[0]), zip(*proj[1:3]), zip(*proj[3:])))  # per trial (P,), the nested and orthogonal pair
    img = np.empty((trials, 6, dim, dim), dtype=complex)  # φ of P, I - P, P_low, P_high, Q1, Q2
    order = {}  # the order defect of each trial checked in the loop: its skew, or minus its least eigenvalue

    for t, ((p,), (p_low, p_high), (q1, q2)) in enumerate(samples):
        img[t, 0], img[t, 1], img[t, 2], img[t, 3] = phi(p), phi(eye - p), phi(p_low), phi(p_high)
        diff = img[t, 3] - img[t, 2]
        if not np.vdot(diff, diff).real < math.inf:  # an entry not finite or near overflow
            # ROADMAP item 1: raises on a non-finite difference, and the bench pins that raise
            skew = hermiticity_defect(diff)
            order[t] = skew if skew > PROBE_TOL else float(-eigenvalues_hermitian(hermitize(diff))[0])
        img[t, 4], img[t, 5] = phi(q1), phi(q2)

    p_img, c_img, low, high, q1_img, q2_img = img.swapaxes(0, 1)
    herm, idem = frobenius_norms(p_img - adjoint(p_img)), frobenius_norms(p_img @ p_img - p_img)
    diffs = high - low
    skews = frobenius_norms(diffs - adjoint(diffs)).tolist()
    within = [t for t in range(trials) if t not in order and skews[t] <= PROBE_TOL]
    # eigenvalues_hermitian(hermitize(diff)) symmetrizes twice; a finite diff passes its checks
    gaps = np.linalg.eigvalsh(hermitize(hermitize(diffs[within])))[:, 0]
    order = {**dict(enumerate(skews)), **dict(zip(within, (-gaps).tolist())), **order}
    table = (  # (check, its defect per trial, the index of its inputs in a trial's sample)
        ("projections", np.maximum(herm, idem).tolist(), 0),
        ("orthocomplement", frobenius_norms(p_img + c_img - eye).tolist(), 0),
        ("order", order, 1),  # a skew, or minus a least eigenvalue
        ("orthogonality", frobenius_norms(q1_img @ q2_img).tolist(), 2),
    )
    witnesses = [ProbeWitness(check, samples[t][i], defects[t])
                 for t in range(trials) for check, defects, i in table if not defects[t] <= PROBE_TOL]
    return ProbeReport(witnesses=tuple(witnesses), samples_used=trials)


def _rank_one_vector(img: np.ndarray, what: str) -> np.ndarray:
    """Certified top eigenvector of a near rank-one projection image."""
    _require(img.size - np.count_nonzero(np.isfinite(img)), 0,
             "{} has non-finite entries (projection preservation fails)", what)
    herm = hermiticity_defect(img)
    w, v = np.linalg.eigh(hermitize(img))
    rest = float(np.max(np.abs(w[:-1]))) if len(w) > 1 else 0.0
    _require((herm, abs(w[-1] - 1.0), rest), RANK_ONE_TOL,
             "{} is not a rank-one projection (projection preservation fails): "
             "top eigenvalue {:.6f}, residual spectrum {:.3e}, hermiticity defect {:.3e}", what, w[-1], rest, herm)
    return v[:, -1]


def reconstruct_unitary_from_projection_action(
    phi: EffectMapOracle,
    tol: float = ACCEPT_TOL,
    seed: int = 0,
) -> tuple[np.ndarray, str]:
    """Rebuild (U, kind) from the action of ``phi`` on rank-one projections.

    The algorithm mirrors the classical reconstruction: take the image
    vectors f_i of the basis projections, align the phase of each f_j
    (j >= 1) against the image of the projection onto (e_0 + e_j)/sqrt2,
    decide unitary vs antiunitary from the image of the projection onto
    (e_0 + i e_1)/sqrt2, then compare the candidate with these 2 dim
    images and on ``RECONSTRUCT_CHECKS`` random rank-one projections.
    Raises :class:`ReconstructionError` whenever the action strays from
    a single-conjugation form.
    """
    dim = phi.dim
    if dim < 2:
        raise ValueError("reconstruction needs dim >= 2")
    eye = np.eye(dim, dtype=complex)
    sqrt2 = np.sqrt(2.0)
    # the unit vectors of the projections asked, in order: e_i, (e_0 + e_j)/sqrt2, (e_0 + i e_1)/sqrt2, the checks
    x = np.concatenate((eye, (eye[0] + eye[1:]) / sqrt2, [(eye[0] + 1j * eye[1]) / sqrt2],
                        random_unit_vectors(dim, Stream(seed).u64_block(RECONSTRUCT_CHECKS))))
    inputs = x[:, :, None] * np.concatenate((eye, x[dim:].conj()))[:, None, :]  # np.outer of each, bit for bit
    images = np.empty_like(inputs)

    frame = []
    for i in range(dim):
        img = images[i] = phi(inputs[i])
        frame.append(_rank_one_vector(img, f"image of basis projection {i}"))

    for j in range(1, dim):
        r = images[dim - 1 + j] = phi(inputs[dim - 1 + j])
        z = np.vdot(frame[j], r @ frame[0])
        # a float difference is <= 0 exactly when |z| >= PHASE_CUTOFF; NaN refuses
        _require(PHASE_CUTOFF - abs(z), 0.0, "phase alignment degenerate for basis column {} (|overlap| = {:.3e})",
                 j, abs(z))
        frame[j] = (z / abs(z)) * frame[j]

    s_img = images[2 * dim - 1] = phi(inputs[2 * dim - 1])
    plus = (frame[0] + 1j * frame[1]) / sqrt2
    minus = (frame[0] - 1j * frame[1]) / sqrt2
    d_plus = frobenius_norm(s_img - np.outer(plus, np.conj(plus)))
    d_minus = frobenius_norm(s_img - np.outer(minus, np.conj(minus)))
    kind = UNITARY if d_plus <= d_minus else ANTIUNITARY

    w, _, vh = np.linalg.svd(np.column_stack(frame))  # the nearest unitary to the frame
    d = gauge_normalize(SymmetryDescriptor(kind, w @ vh))
    images[2 * dim:] = phi.answers(inputs[2 * dim:])
    worst = nan_max(*frobenius_norms(images - _apply_symmetry(d, inputs)).tolist())
    _require(worst, tol, "reconstruction verification failed: rank-one residual {:.3e} above {:g}", worst, tol)
    return d.unitary, kind


def verify_descriptor(
    phi: EffectMapOracle,
    d: SymmetryDescriptor,
    trials: int = 100,
    seed: int = 0,
    domain: str = EFFECTS_DOMAIN,
) -> float:
    """Max Frobenius residual between the oracle and the descriptor.

    ``domain`` picks the sampling measure: random effects, or Gaussian
    Hermitian matrices for maps defined on all self-adjoints.  The oracle
    is asked in order, then d is applied to the whole stack and the norms
    taken in one pass; a NaN norm is passed over, as by a running ``max``.
    """
    if domain not in (EFFECTS_DOMAIN, HERMITIAN_DOMAIN):
        raise ValueError(f"unknown sampling domain {domain!r}")
    check_run(trials)
    sampler = random_effects if domain == EFFECTS_DOMAIN else random_hermitians
    samples = sampler(d.dim, Stream(seed).u64_block(trials))
    # ROADMAP item 1: this max passes over a NaN norm, and the bench pins that acceptance
    return max([0.0, *frobenius_norms(phi.answers(samples) - _apply_symmetry(d, samples)).tolist()])


def extract_scaling_function(phi: EffectMapOracle, seed: int) -> ScalingSamples:
    """Sample f(lam) = tr(phi(lam P) phi(P)) / tr(phi(P)^2) over ``SCALING_GRID``
    on the rank-one projection P onto the Haar unit vector drawn from ``seed``.

    Each sample's proportionality residual ||phi(lam P) - f(lam) phi(P)||
    is recorded; a large residual marks the sample invalid (no scalar
    scaling law holds there), which :func:`check_scaling_identity`
    turns into a failure.
    """
    p = rank_one_projection(random_unit_vector(phi.dim, seed))
    img_p = phi(p)
    _rank_one_vector(img_p, "image of the scaling projection")
    denom = float(np.trace(img_p @ img_p).real)
    images = phi.answers(SCALING_GRID[:, None, None] * p)
    values = np.trace(images @ img_p, axis1=-2, axis2=-1).real / denom
    residuals = frobenius_norms(images - values[:, None, None] * img_p)
    return ScalingSamples(projection=p, values=values, residuals=residuals)


def check_scaling_identity(samples: ScalingSamples) -> ScalingCheck:
    """Compare sampled f with the identity.

    Passing requires max |f(lam) - lam| <= PROBE_TOL and trustworthy
    samples (proportionality residuals <= PROBE_TOL).  The multiplicative
    identity f(lam^2) = f(lam)^2 and the orthoadditive identity
    f(lam^2) + f(1 - lam^2) = 1 are evaluated at the grid points whose
    square is on the grid and reported as diagnostics.  A NaN value or
    residual fails the check.
    """
    f = samples.values
    id_dev = float(np.max(np.abs(f - SCALING_GRID)))
    prop_res = float(np.max(samples.residuals))

    # Grid points k/16, k in {0, 4, 8, 12, 16}, square onto the grid at k²/16, with the complement
    # at 16 − k²/16.  float_power is C pow, as a scalar f[i] ** 2 is; f * f can differ in the last bit.
    root = np.arange(0, 17, 4)
    sq = root * root // 16
    mult = np.abs(f[sq] - np.float_power(f, 2)[root])
    ortho = np.abs(f[sq] + f[16 - sq] - 1.0)
    mult_dev, ortho_dev = nan_max(0.0, *mult), nan_max(0.0, *ortho)

    ok = id_dev <= PROBE_TOL and prop_res <= PROBE_TOL
    return ScalingCheck(ok, id_dev, mult_dev, ortho_dev, prop_res)


def _classify(img: np.ndarray, candidates: tuple, reason: str) -> int:
    """Index of the candidate nearest ``img``, which must lie within CLASSIFY_TOL
    of it (the candidates lie far more than 2 CLASSIFY_TOL apart, so at most one
    does); if none does, reject with ``reason`` formatted with every distance."""
    dists = [frobenius_norm(img - c) for c in candidates]
    i = dists.index(min(dists))
    _require(dists[i], CLASSIFY_TOL, reason, *dists)
    return i


def _verify(found: dict, phi, d: SymmetryDescriptor, tol: float, trials: int, seed: int,
            domain: str) -> None:
    """Record the gauge-normalized ``d`` and its residual; reject it above tol."""
    d = gauge_normalize(d)
    residual = verify_descriptor(phi, d, trials, seed=seed, domain=domain)
    found.update(descriptor=d, max_residual=residual)
    _require(residual, tol, "canonical-form residual {:.3e} above tolerance {:g}{}", residual, tol,
             " on Hermitian samples" if domain == HERMITIAN_DOMAIN else "")


def _affine_chain(found: dict, phi: EffectMapOracle, tol: float, trials: int, s: Stream) -> None:
    dim = phi.dim
    eye = np.eye(dim, dtype=complex)
    aff = is_affine(phi, seed=s.next_u64())
    # the walk's worst deviation is <= PROBE_TOL exactly when it found no witness
    _require(aff.max_deviation, PROBE_TOL, "map is not affine: convex-combination defect {:.3e}",
             aff.max_deviation, witness=aff.witness)
    comp = bool(_classify(
        phi(np.zeros((dim, dim))),
        (0, eye),
        "φ(0) not in {{0, I}} (‖φ(0)‖ = {:.3e}, ‖φ(0) − I‖ = {:.3e})",
    ))
    action = phi.then(lambda x: eye - x) if comp else phi
    u, kind = reconstruct_unitary_from_projection_action(action, tol=tol, seed=s.next_u64())
    _verify(found, phi, SymmetryDescriptor(kind, u, complement=comp), tol, trials,
            s.next_u64(), EFFECTS_DOMAIN)


def _triple_chain(found: dict, phi: EffectMapOracle, tol: float, trials: int, s: Stream, sign: int = 1) -> None:
    action = phi if sign == 1 else phi.then(np.negative)
    worst, witness = _identity_walk(action, s.next_u64(), TRIPLE_PROBE_PAIRS, 0,
                                    lambda _, a, b: a @ b @ a, lambda phi_a, phi_b: phi_a.dot(phi_b).dot(phi_a))
    _require(worst, PROBE_TOL, "triple identity violated: ‖φ(ABA) − φ(A)φ(B)φ(A)‖ = {:.3e}", worst,
             witness=witness)

    probe = found["probe"] = preservation_probe(action, TRIPLE_PROBE_TRIALS, seed=s.next_u64())
    # every witness's defect fails PROBE_TOL, so this refuses exactly when the probe has a witness
    _require(tuple(w.defect for w in probe.witnesses), PROBE_TOL,
             "projection-structure probe failed ({} not preserved)", ", ".join(probe.failed_checks()),
             witness=probe.witnesses[0].inputs if probe.witnesses else None)

    u, kind = reconstruct_unitary_from_projection_action(action, tol=tol, seed=s.next_u64())

    samples = found["scaling"] = extract_scaling_function(action, s.next_u64())
    check = check_scaling_identity(samples)
    deviations = (check.max_identity_deviation, check.max_proportionality_residual)
    _require(deviations, PROBE_TOL, "scaling function deviates from identity: "
             "max |f(λ) − λ| = {:.3e}, max proportionality residual = {:.3e}", *deviations)

    _verify(found, phi, SymmetryDescriptor(kind, u, sign=sign), tol, trials, s.next_u64(), EFFECTS_DOMAIN)


def _hermitian_chain(found: dict, phi: EffectMapOracle, tol: float, trials: int, s: Stream) -> None:
    eye = np.eye(phi.dim, dtype=complex)
    sign = (1, -1)[_classify(phi(eye), (eye, -eye),
                             "φ(I) ∉ {{I, −I}} (‖φ(I) − I‖ = {:.3e}, ‖φ(I) + I‖ = {:.3e})")]
    _triple_chain(found, phi, tol, trials, Stream(s.next_u64()), sign)
    _verify(found, phi, found["descriptor"], tol, trials, s.next_u64(), HERMITIAN_DOMAIN)


def check_run(trials, tol: float = ACCEPT_TOL) -> None:
    """Refuse a run whose ``trials`` is not an integer of at least 1 (a bool
    is not one; numpy integers are) or whose ``tol`` is not finite and positive."""
    _require_count(trials, "trials")
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {tol!r}")


def _run(family: str, chain, phi: EffectMapOracle, tol: float, trials: int, seed: int) -> RecoveryReport:
    """Run one family's chain after checking the run's input rules; every
    report is built here, from ``found``."""
    if phi.dim < MIN_DIM[family]:
        raise ValueError(f"{family} recovery needs dim >= {MIN_DIM[family]}, got {phi.dim}")
    check_run(trials, tol)
    found: dict = {}
    try:
        chain(found, phi, tol, trials, Stream(seed))
    except (OracleError, ReconstructionError) as err:
        found["witness"] = (err.query,) if isinstance(err, OracleError) else err.witness
        return RecoveryReport(REJECTED, family, str(err), **found)
    return RecoveryReport(CANONICAL, family, **found)


def recover_affine(
    phi: EffectMapOracle, tol: float = ACCEPT_TOL, trials: int = 100, seed: int = 0
) -> RecoveryReport:
    """Classify an affine bijection candidate; see the module docstring."""
    return _run(AFFINE, _affine_chain, phi, tol, trials, seed)


def recover_triple(
    phi: EffectMapOracle, tol: float = ACCEPT_TOL, trials: int = 100, seed: int = 0
) -> RecoveryReport:
    """Classify a triple-multiplicative candidate on effects."""
    return _run(TRIPLE_EFFECTS, _triple_chain, phi, tol, trials, seed)


def recover_triple_hermitian(
    phi: EffectMapOracle, tol: float = ACCEPT_TOL, trials: int = 100, seed: int = 0
) -> RecoveryReport:
    """Classify a triple-multiplicative candidate on all self-adjoints.

    The image of I fixes the sign; the sign-corrected restriction to
    [0, I] must pass the effect-interval chain; the final residual is
    taken over unbounded Gaussian Hermitian samples.
    """
    return _run(TRIPLE_HERMITIAN, _hermitian_chain, phi, tol, trials, seed)


def route(family: str):
    """The recovery routine of ``family``, looked up per call, so a
    ``recover_*`` rebound in this module after import is the one run."""
    return {AFFINE: recover_affine, TRIPLE_EFFECTS: recover_triple,
            TRIPLE_HERMITIAN: recover_triple_hermitian}[family]
