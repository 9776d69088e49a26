"""Workload inputs, ground truth and the output checker of the benchmark.

A workload is a fixed cycle of ops.  Every op is one decision: a
recovery (verdict plus descriptor or witness) or one verify battery.
The cycle's inputs are drawn from the workload seed alone; the program
receives only the generated maps and flags.  Every op's output is
checked against ground truth the benchmark holds itself (the map it
built, the descriptor file it asked ``synth`` for, or the verdict the
map must get), with the suites' own bounds restated here so that a
change to the program cannot loosen the check.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import random
import re
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np

MODULES = (
    "rng", "linalg", "sampling", "effects", "symmetry",
    "extension", "recover", "suites", "serialize", "cli",
)

U_TOL = 1e-7          # gauge-normalised unitary distance (suites.U_MATCH_TOL)
RESIDUAL_TOL = 1e-8   # canonical-form residual (suites.RESIDUAL_TOL)
GAUGE_CUTOFF = 1e-8   # first entry of column 0 above this is made real positive

AFFINE, TRIPLE, HERMITIAN = "affine", "triple_effects", "triple_hermitian"
ROUTES = {AFFINE: "recover_affine", TRIPLE: "recover_triple", HERMITIAN: "recover_triple_hermitian"}
KINDS = ("unitary", "antiunitary")


@dataclass(frozen=True)
class KnownDefect:
    """A defect of the program that an op is known to hit, and the
    failure it causes (a regular expression the checker's whole message
    matches)."""

    what: str
    failure: str


NAN_DEFECT = "ROADMAP open item 1: NaN outputs pass the affine checks and raise in recover_triple"
KNOWN_NAN_FAILURES = {
    AFFINE: KnownDefect(NAN_DEFECT, "verdict canonical, expected rejected"),
    TRIPLE: KnownDefect(NAN_DEFECT, r"raised ValueError: .*"),
}
# phase_gauge_suite rounds each recovered U to 1e-12 and demands equal
# arrays.  Recoveries that agree to ~1e-16 then differ wherever an entry
# lies within rounding noise of a rounding boundary, which happens for a
# few seeds in a hundred.  No other suite and no other message is excused.
PHASE_GAUGE_DEFECT = KnownDefect(
    "suites.phase_gauge_suite compares U after rounding to 1e-12, so rounding noise fails it for some seeds",
    r"exit code 1; suites failed: \['phase_gauge'\]: "
    r"\[('(affine|triple_effects): recovered U differs at theta=[0-9.]+'(, )?)+\]",
)


class SetupError(RuntimeError):
    """The program failed while the workload inputs were being generated."""


def load_program() -> SimpleNamespace:
    """effectsym and all its modules, imported if they are not yet."""
    package = importlib.import_module("effectsym")
    mods = {name: importlib.import_module(f"effectsym.{name}") for name in MODULES}
    return SimpleNamespace(package=package, **mods)


def import_program() -> SimpleNamespace:
    """Import effectsym afresh, dropping any earlier import, as a new process would."""
    for name in [n for n in sys.modules if n == "effectsym" or n.startswith("effectsym.")]:
        del sys.modules[name]
    return load_program()


# -- ground truth --------------------------------------------------------


@dataclass(frozen=True)
class Truth:
    """What a canonical op must recover; ``None`` in its place means rejected."""

    kind: str
    unitary: np.ndarray
    complement: bool
    sign: int


@dataclass(frozen=True)
class Outcome:
    """A recovery result read either from a report object or its JSON form."""

    verdict: str
    family: str
    reason: str
    residual: float
    descriptor: Truth | None


def truth_of(d) -> Truth:
    return Truth(d.kind, np.array(d.unitary, dtype=complex), bool(d.complement), int(d.sign))


def _matrix(obj) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in obj["data"]], dtype=complex)


def truth_from_json(obj) -> Truth:
    return Truth(obj["kind"], _matrix(obj["u"]), bool(obj["complement"]), int(obj["sign"]))


def outcome_of_report(report) -> Outcome:
    d = report.descriptor
    return Outcome(
        report.verdict, report.family, report.reason, float(report.max_residual),
        None if d is None else truth_of(d),
    )


def outcome_of_json(obj) -> Outcome:
    r = obj["report"]
    d = r.get("descriptor")
    residual = math.nan if r["max_residual"] is None else float(r["max_residual"])
    return Outcome(r["verdict"], r["family"], r["reason"], residual,
                   None if d is None else truth_from_json(d))


def gauge(u: np.ndarray) -> np.ndarray:
    col = u[:, 0]
    z = col[np.flatnonzero(np.abs(col) > GAUGE_CUTOFF)[0]]
    return u * (np.conj(z) / abs(z))


def check_outcome(out: Outcome, family: str, truth: Truth | None) -> str | None:
    """None when the outcome matches ground truth, else why it does not."""
    if out.family != family:
        return f"family {out.family}, expected {family}"
    if truth is None:
        return None if out.verdict == "rejected" else f"verdict {out.verdict}, expected rejected"
    if out.verdict != "canonical":
        return f"verdict {out.verdict} ({out.reason}), expected canonical"
    got = out.descriptor
    if (got.kind, got.complement, got.sign) != (truth.kind, truth.complement, truth.sign):
        return f"flags {got.kind}/{got.complement}/{got.sign}, expected {truth.kind}/{truth.complement}/{truth.sign}"
    dist = float(np.linalg.norm(gauge(got.unitary) - gauge(truth.unitary)))
    if not dist <= U_TOL:
        return f"unitary off ground truth by {dist:.3e}"
    if not out.residual <= RESIDUAL_TOL:
        return f"residual {out.residual:.3e} above {RESIDUAL_TOL:g}"
    return None


def digest_outcome(out: Outcome) -> bytes:
    h = hashlib.sha256(f"{out.verdict}|{out.family}|{out.reason}|{out.residual!r}".encode())
    if out.descriptor is not None:
        d = out.descriptor
        h.update(f"|{d.kind}|{d.complement}|{d.sign}|".encode())
        h.update(np.ascontiguousarray(d.unitary, dtype=complex).tobytes())
    return h.digest()


TIMING_KEYS = frozenset(("wall_time_s", "timing"))  # the reports' only non-deterministic fields


def _without_timing(obj):
    if isinstance(obj, dict):
        return {k: _without_timing(v) for k, v in obj.items() if k not in TIMING_KEYS}
    if isinstance(obj, list):
        return [_without_timing(v) for v in obj]
    return obj


def report_file_digest(obj) -> bytes:
    """sha256 of a CLI report with its timing fields removed."""
    return hashlib.sha256(json.dumps(_without_timing(obj), sort_keys=True).encode()).digest()


# -- ops -----------------------------------------------------------------


@dataclass
class Op:
    """One decision.  ``run`` performs it; ``check`` returns None when the
    result matches ground truth, else why not; ``digest`` hashes the
    output.  An op tagged ``known_defect`` may fail in the way the defect
    does without making the run incorrect; such failures still count as
    failed ops, and any other failure of the op is a real one."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    digest: Callable[[object], bytes]
    known_defect: KnownDefect | None = None

    def excused(self, failure: str) -> bool:
        """Whether ``failure`` is the one the op's known defect causes."""
        return (self.known_defect is not None
                and re.fullmatch(self.known_defect.failure, failure, re.DOTALL) is not None)


def lib_op(mods, family: str, oracle, seed: int, truth: Truth | None, label: str,
           known_defect: KnownDefect | None = None) -> Op:
    route = ROUTES[family]

    def run():
        return getattr(mods.recover, route)(oracle, seed=seed)

    return Op(
        label, run,
        lambda report: check_outcome(outcome_of_report(report), family, truth),
        lambda report: digest_outcome(outcome_of_report(report)),
        known_defect,
    )


def _cli(mods, argv: list[str]) -> int:
    try:
        return mods.cli.main(argv)
    except SystemExit as exc:  # argparse rejects flags by exiting
        return exc.code


def _load(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def cli_op(mods, argv: list[str], out_path: str, label: str, check_report,
           known_defect: KnownDefect | None = None) -> Op:
    """An ``effectsym`` CLI call that must exit 0 and write a report that
    ``check_report`` accepts."""
    argv = [*argv, "--output", out_path]

    def run():
        Path(out_path).unlink(missing_ok=True)
        return _cli(mods, argv)

    def check(code):
        if not Path(out_path).is_file():
            return f"exit code {code}, no report written"
        problem = check_report(_load(out_path))
        if code == 0 and problem is None:
            return None
        return f"exit code {code}" + (f"; {problem}" if problem else ", expected 0")

    return Op(label, run, check, lambda code: report_file_digest(_load(out_path)), known_defect)


def cli_recover_op(mods, family: str, input_path: str, truth: Truth, label: str) -> Op:
    return cli_op(
        mods, ["recover", "--family", family, "--input", input_path], f"report-{label}.json", label,
        lambda obj: check_outcome(outcome_of_json(obj), family, truth),
    )


def _suites_passed(obj) -> str | None:
    failing = [s for s in obj["suites"] if not (s["passed"] or s["skipped"])]
    if not failing:
        return None
    names = [s["name"] for s in failing]
    whys = [w for s in failing for w in s.get("details", {}).get("failures", [])]
    return f"suites failed: {names}: {whys}"


def cli_verify_op(mods, dim: int, seed: int, label: str) -> Op:
    argv = ["verify", "--dim", str(dim), "--seed", str(seed), "--trials", "100"]
    return cli_op(mods, argv, f"verify-{label}.json", label, _suites_passed, PHASE_GAUGE_DEFECT)


# -- workloads -----------------------------------------------------------

# (family, kind, complement, sign): every family, both kinds, both flags.
SMALL_CONFIGS = (
    [(AFFINE, k, c, 1) for k in KINDS for c in (False, True)]
    + [(TRIPLE, k, False, 1) for k in KINDS]
    + [(HERMITIAN, k, False, s) for k in KINDS for s in (1, -1)]
)
AFFINE16_CONFIGS = (
    (AFFINE, "unitary", True, 1),
    (AFFINE, "antiunitary", False, 1),
    (TRIPLE, "unitary", False, 1),
    (TRIPLE, "antiunitary", False, 1),
    (HERMITIAN, "unitary", False, -1),
    (HERMITIAN, "antiunitary", False, 1),
)


def _flags(family: str, complement: bool, sign: int) -> dict:
    if family == AFFINE:
        return {"complement": complement}
    if family == HERMITIAN:
        return {"sign": sign}
    return {}


def _config_label(family, kind, complement, sign, dim) -> str:
    flag = "-comp" if complement else ("-neg" if sign == -1 else "")
    return f"{family}-{kind}{flag}-d{dim}"


# Draws per reject_mix case: 33 inputs would put the tail over inputs
# (ten beyond it) among the fast rejections; 99 put it among the slow ones.
REJECT_DRAWS = 3


def build_recover_small(mods, rng: random.Random) -> list[Op]:
    ops = []
    for dim in (3, 4, 5, 6):
        for family, kind, complement, sign in SMALL_CONFIGS:
            d = mods.symmetry.random_symmetry(
                dim, rng.getrandbits(63), family=family, kind=kind, **_flags(family, complement, sign)
            )
            oracle = mods.extension.EffectMapOracle.from_descriptor(d)
            label = _config_label(family, kind, complement, sign, dim)
            ops.append(lib_op(mods, family, oracle, rng.getrandbits(32), truth_of(d), label))
    return ops


def build_recover_affine16(mods, rng: random.Random) -> list[Op]:
    ops = []
    for family, kind, complement, sign in AFFINE16_CONFIGS:
        label = _config_label(family, kind, complement, sign, 16)
        argv = ["synth", "--dim", "16", "--seed", str(rng.getrandbits(32)),
                "--family", family, "--kind", kind, "--output", f"{label}.json"]
        if complement:
            argv.append("--complement")
        if sign == -1:
            argv += ["--sign", "-1"]
        code = _cli(mods, argv)
        if code != 0:
            raise SetupError(f"synth {label} exited with {code}")
        truth = truth_from_json(_load(f"{label}.json"))
        ops.append(cli_recover_op(mods, family, f"{label}.affine.json", truth, label))
    return ops


def _shift(eye):
    return lambda a: np.asarray(a, dtype=complex) + eye


def _complement(eye):
    return lambda a: eye - np.asarray(a, dtype=complex)


def _nan_above_trace(mods, d):
    """The item-1 repro: a canonical map that returns NaN when tr A > 1.5."""

    def evaluate(a):
        out = mods.symmetry.apply_symmetry(d, a)
        if np.trace(a).real > 1.5:
            out = np.full_like(out, np.nan)
        return out

    return evaluate


def build_reject_mix(mods, rng: random.Random) -> list[Op]:
    oracle_cls = mods.extension.EffectMapOracle
    ops = []
    for dim in (4, 5, 6):
        eye = np.eye(dim, dtype=complex)
        for draw in range(REJECT_DRAWS):
            cases = [
                ("perturbed", mods.suites.perturbed_conjugation_oracle(dim, rng.getrandbits(63), 1e-2),
                 (AFFINE, TRIPLE, HERMITIAN)),
                ("shift", oracle_cls(dim, _shift(eye), label="shift"), (AFFINE, TRIPLE, HERMITIAN)),
                ("complement", oracle_cls(dim, _complement(eye), label="complement"), (TRIPLE, HERMITIAN)),
            ]
            for name, oracle, families in cases:
                for family in families:
                    ops.append(lib_op(mods, family, oracle, rng.getrandbits(32), None,
                                      f"{name}-{family}-d{dim}-r{draw}"))
            for family in (AFFINE, TRIPLE, HERMITIAN):
                base = mods.symmetry.random_symmetry(
                    dim, rng.getrandbits(63), family=family, **_flags(family, False, 1)
                )
                oracle = oracle_cls(dim, _nan_above_trace(mods, base), label="nan_repro")
                ops.append(lib_op(mods, family, oracle, rng.getrandbits(32), None,
                                  f"nan-{family}-d{dim}-r{draw}",
                                  known_defect=KNOWN_NAN_FAILURES.get(family)))
    return ops


def build_verify_battery(mods, rng: random.Random) -> list[Op]:
    seed = rng.getrandbits(32)
    return [cli_verify_op(mods, dim, seed, f"d{dim}") for dim in (3, 6)]


WORKLOADS = {
    "recover_small": build_recover_small,
    "recover_affine16": build_recover_affine16,
    "reject_mix": build_reject_mix,
    "verify_battery": build_verify_battery,
}


def build(workload: str, mods, seed: int) -> list[Op]:
    return WORKLOADS[workload](mods, random.Random(f"{workload}:{seed}"))


# -- execution -----------------------------------------------------------


@dataclass
class Result:
    failure: str | None
    digest: bytes


def execute(op: Op) -> tuple[int, Result]:
    """Run one op; returns (latency in ns, checked result).  An uncaught
    exception is a failure of the op, never of the run."""
    t0 = time.perf_counter_ns()
    try:
        out = op.run()
        raised = None
    except Exception as exc:  # the op boundary: record and keep running
        raised = f"raised {type(exc).__name__}: {exc}"
    t1 = time.perf_counter_ns()
    failure = raised
    if failure is None:
        try:
            failure = op.check(out)
            if failure is None:
                return t1 - t0, Result(None, op.digest(out))
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            failure = f"output unreadable: {type(exc).__name__}: {exc}"
    return t1 - t0, Result(failure, hashlib.sha256(failure.encode()).digest())


def checker_self_check(mods) -> str | None:
    """Feed the checker a deliberately wrong expectation: it must fail.

    Returns None when the checker behaves, else what went wrong."""
    d = mods.symmetry.random_symmetry(3, 20261017, family=AFFINE)
    oracle = mods.extension.EffectMapOracle.from_descriptor(d)
    right = lib_op(mods, AFFINE, oracle, 7, truth_of(d), "self-check-right")
    wrong_verdict = lib_op(mods, AFFINE, oracle, 7, None, "self-check-wrong-verdict")
    off = truth_of(d)
    wrong_unitary = lib_op(mods, AFFINE, oracle, 7,
                           Truth(off.kind, off.unitary[:, ::-1], off.complement, off.sign),
                           "self-check-wrong-unitary")
    if execute(right)[1].failure is not None:
        return "a correct recovery was counted as a failure"
    for op in (wrong_verdict, wrong_unitary):
        if execute(op)[1].failure is None:
            return f"{op.label}: a wrong expectation was not counted as a failure"
    return None
