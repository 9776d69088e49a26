"""Command-line front end: synthesize maps, recover them, run the suites.

Subcommands:

* ``synth``: write a seeded random symmetry descriptor (JSON) plus its
  flattened affine-map form next to it (``<output>.affine.json``).
* ``recover``: read a map file (descriptor or affine form), run the
  recovery for the requested family, write a report file.
* ``verify``: run the verification suites at one dimension and report
  per-suite pass/fail.

Exit codes: 0 success / canonical / all suites passed; 1 rejected map or
failing suite; 2 invalid flags or unreadable input; 3 I/O failure while
writing results.  Reports are deterministic given (config, inputs)
except for their wall-clock field.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

from . import __version__
from .recover import recover_affine, recover_triple, recover_triple_hermitian
from .serialize import (
    affine_rep_to_obj,
    descriptor_to_obj,
    dump_json,
    load_json,
    oracle_from_obj,
    report_to_obj,
)
from .suites import run_verify_suites
from .symmetry import (
    AFFINE,
    FAMILIES,
    TRIPLE_EFFECTS,
    TRIPLE_HERMITIAN,
    random_symmetry,
    to_affine_rep,
)

EXIT_OK = 0
EXIT_REJECTED = 1
EXIT_BAD_INPUT = 2
EXIT_IO = 3


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="effectsym",
        description="Synthesize, recover, and verify symmetries of the operator interval [0, I].",
    )
    parser.add_argument("--version", action="version", version=f"effectsym {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="write a random descriptor and its affine form")
    synth.add_argument("--dim", type=int, required=True)
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--family", choices=FAMILIES, default=AFFINE)
    synth.add_argument("--kind", choices=["unitary", "antiunitary", "random"], default="random")
    synth.add_argument("--complement", action="store_true", help="affine family: precompose with A -> I - A")
    synth.add_argument("--sign", type=int, choices=[1, -1], default=1, help="Hermitian family: overall sign")
    synth.add_argument("--output", required=True, help="descriptor path; affine form goes to <output>.affine.json")

    recover = sub.add_parser("recover", help="recover a canonical form from a map file")
    recover.add_argument("--family", choices=FAMILIES, default=AFFINE)
    recover.add_argument("--input", required=True, help="descriptor or affine-map JSON")
    recover.add_argument("--output", help="report path (stdout when omitted)")
    recover.add_argument("--dim", type=int, help="expected dimension (checked against the file)")
    recover.add_argument("--seed", type=int, default=0)
    recover.add_argument("--tol", type=float, default=1e-8)
    recover.add_argument("--trials", type=int, default=100)

    verify = sub.add_parser("verify", help="run the verification suites at one dimension")
    verify.add_argument("--dim", type=int, required=True)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--trials", type=int, default=100)
    verify.add_argument("--tol", type=float, default=1e-8)
    verify.add_argument("--output", help="report path (stdout when omitted)")
    return parser


def _config_echo(args: argparse.Namespace, keys: tuple[str, ...]) -> dict:
    return {key: getattr(args, key, None) for key in keys}


def _affine_output_path(path: str) -> str:
    if path.endswith(".json"):
        return path[: -len(".json")] + ".affine.json"
    return path + ".affine.json"


def _write(obj, path: str | None) -> None:
    try:
        dump_json(obj, path)
    except OSError as err:
        raise CliError(f"cannot write output: {err}", EXIT_IO) from err


def cmd_synth(args: argparse.Namespace) -> int:
    if args.dim < 2:
        raise CliError("synth needs --dim >= 2", EXIT_BAD_INPUT)
    if args.family in (TRIPLE_EFFECTS, TRIPLE_HERMITIAN) and args.dim < 3:
        raise CliError(f"family {args.family} needs --dim >= 3", EXIT_BAD_INPUT)
    if args.family != AFFINE and args.complement:
        raise CliError(f"--complement is only legal for the {AFFINE} family", EXIT_BAD_INPUT)
    if args.family != TRIPLE_HERMITIAN and args.sign != 1:
        raise CliError(f"--sign -1 is only legal for the {TRIPLE_HERMITIAN} family", EXIT_BAD_INPUT)
    kind = None if args.kind == "random" else args.kind
    try:
        descriptor = random_symmetry(
            args.dim,
            args.seed,
            family=args.family,
            kind=kind,
            complement=args.complement if args.family == AFFINE else None,
            sign=args.sign if args.family == TRIPLE_HERMITIAN else None,
        )
    except ValueError as err:
        raise CliError(str(err), EXIT_BAD_INPUT) from err
    _write(descriptor_to_obj(descriptor), args.output)
    _write(affine_rep_to_obj(to_affine_rep(descriptor)), _affine_output_path(args.output))
    return EXIT_OK


_RECOVER_DISPATCH = {
    AFFINE: recover_affine,
    TRIPLE_EFFECTS: recover_triple,
    TRIPLE_HERMITIAN: recover_triple_hermitian,
}


def cmd_recover(args: argparse.Namespace) -> int:
    if args.trials < 1:
        raise CliError("recover needs --trials >= 1", EXIT_BAD_INPUT)
    if not 0 < args.tol < math.inf:
        raise CliError("recover needs a finite --tol > 0", EXIT_BAD_INPUT)
    try:
        obj = load_json(args.input)
    except (OSError, json.JSONDecodeError) as err:
        raise CliError(f"cannot read map file: {err}", EXIT_BAD_INPUT) from err
    try:
        oracle, form = oracle_from_obj(obj)
    except ValueError as err:
        raise CliError(f"bad map file: {err}", EXIT_BAD_INPUT) from err
    if args.dim is not None and args.dim != oracle.dim:
        raise CliError(
            f"--dim {args.dim} does not match the map file dimension {oracle.dim}",
            EXIT_BAD_INPUT,
        )
    start = time.perf_counter()
    try:
        report = _RECOVER_DISPATCH[args.family](
            oracle, tol=args.tol, trials=args.trials, seed=args.seed
        )
    except ValueError as err:
        raise CliError(str(err), EXIT_BAD_INPUT) from err
    elapsed = time.perf_counter() - start
    out = {
        "config": _config_echo(args, ("family", "input", "output", "dim", "seed", "tol", "trials")),
        "input_form": form,
        "report": report_to_obj(report),
        "wall_time_s": elapsed,
        "version": __version__,
    }
    _write(out, args.output)
    return EXIT_OK if report.canonical else EXIT_REJECTED


def cmd_verify(args: argparse.Namespace) -> int:
    if args.dim < 2:
        raise CliError("verify needs --dim >= 2", EXIT_BAD_INPUT)
    if args.trials < 1:
        raise CliError("verify needs --trials >= 1", EXIT_BAD_INPUT)
    if not 0 < args.tol < math.inf:
        raise CliError("verify needs a finite --tol > 0", EXIT_BAD_INPUT)
    start = time.perf_counter()
    results = run_verify_suites(args.dim, args.seed, args.trials, tol=args.tol)
    elapsed = time.perf_counter() - start
    all_passed = all(r.passed for r in results)
    out = {
        "config": _config_echo(args, ("dim", "seed", "trials", "tol", "output")),
        "suites": [
            {"name": r.name, "passed": r.passed, "skipped": r.skipped, "details": r.details}
            for r in results
        ],
        "all_passed": all_passed,
        "wall_time_s": elapsed,
        "version": __version__,
    }
    _write(out, args.output)
    for r in results:
        status = "SKIP" if r.skipped else ("PASS" if r.passed else "FAIL")
        print(f"{status} {r.name}", file=sys.stderr)
    return EXIT_OK if all_passed else EXIT_REJECTED


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {"synth": cmd_synth, "recover": cmd_recover, "verify": cmd_verify}[args.command]
    try:
        return handler(args)
    except CliError as err:
        print(f"effectsym: {err}", file=sys.stderr)
        return err.code


if __name__ == "__main__":
    sys.exit(main())
