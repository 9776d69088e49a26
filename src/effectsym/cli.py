"""Command-line front end: synthesize maps, recover them, run the suites.

Subcommands:

* ``synth``: write a seeded random symmetry descriptor (JSON) plus its
  flattened affine-map form next to it (``<output>.affine.json``).
* ``recover``: read a map file (descriptor or affine form), run the
  recovery for the requested family, write a report file.
* ``verify``: run the verification suites at one dimension (a run the
  battery refuses exits 2) and report per-suite pass/fail.

Exit codes: 0 success / canonical / all suites passed; 1 rejected map or
failing suite; 2 invalid flags or unreadable input; 3 I/O failure while
writing results.  Reports are deterministic given (config, inputs)
except for their wall-clock field.
"""

from __future__ import annotations

import argparse
import sys
import time
from functools import cache

from . import __version__
from .recover import ACCEPT_TOL, MIN_DIM, route
from .serialize import (
    affine_rep_to_obj,
    descriptor_to_obj,
    dump_json,
    load_json,
    oracle_from_obj,
    report_to_obj,
)
from .suites import run_verify_suites
from .symmetry import AFFINE, FAMILIES, random_symmetry, to_affine_rep

EXIT_OK = 0
EXIT_REJECTED = 1
EXIT_BAD_INPUT = 2
EXIT_IO = 3


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


@cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser; ``parse_args`` leaves it as it was."""
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
    recover.add_argument("--tol", type=float, default=ACCEPT_TOL)
    recover.add_argument("--trials", type=int, default=100)

    verify = sub.add_parser("verify", help="run the verification suites at one dimension")
    verify.add_argument("--dim", type=int, required=True)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--trials", type=int, default=100)
    verify.add_argument("--tol", type=float, default=ACCEPT_TOL)
    verify.add_argument("--output", help="report path (stdout when omitted)")
    return parser


def _write(obj, path: str | None) -> None:
    try:
        dump_json(obj, path)
    except OSError as err:
        raise CliError(f"cannot write output: {err}", EXIT_IO) from err


def _write_report(args: argparse.Namespace, elapsed: float, **body) -> None:
    """Write a report: the parser's echo of the flags, ``body``, the wall time, the version."""
    config = {key: value for key, value in vars(args).items() if key != "command"}
    _write({"config": config, **body, "wall_time_s": elapsed, "version": __version__}, args.output)


def cmd_synth(args: argparse.Namespace) -> int:
    if args.dim < MIN_DIM[args.family]:
        raise CliError(f"family {args.family} needs --dim >= {MIN_DIM[args.family]}", EXIT_BAD_INPUT)
    kind = None if args.kind == "random" else args.kind
    try:
        descriptor = random_symmetry(
            args.dim, args.seed, family=args.family, kind=kind,
            complement=args.complement, sign=args.sign,
        )
    except ValueError as err:
        raise CliError(str(err), EXIT_BAD_INPUT) from err
    _write(descriptor_to_obj(descriptor), args.output)
    _write(affine_rep_to_obj(to_affine_rep(descriptor)), args.output.removesuffix(".json") + ".affine.json")
    return EXIT_OK


def cmd_recover(args: argparse.Namespace) -> int:
    try:
        obj = load_json(args.input)
    except (OSError, ValueError, RecursionError) as err:  # ValueError: not UTF-8 or not JSON
        raise CliError(f"cannot read map file: {err}", EXIT_BAD_INPUT) from err
    try:
        oracle = oracle_from_obj(obj)
    except ValueError as err:
        raise CliError(f"bad map file: {err}", EXIT_BAD_INPUT) from err
    if args.dim is not None and args.dim != oracle.dim:
        raise CliError(
            f"--dim {args.dim} does not match the map file dimension {oracle.dim}",
            EXIT_BAD_INPUT,
        )
    start = time.perf_counter()
    try:
        report = route(args.family)(oracle, tol=args.tol, trials=args.trials, seed=args.seed)
    except ValueError as err:
        raise CliError(str(err), EXIT_BAD_INPUT) from err
    elapsed = time.perf_counter() - start
    _write_report(args, elapsed, input_form=oracle.label, report=report_to_obj(report))
    return EXIT_OK if report.canonical else EXIT_REJECTED


def cmd_verify(args: argparse.Namespace) -> int:
    start = time.perf_counter()
    try:
        results = run_verify_suites(args.dim, args.seed, args.trials, tol=args.tol)
    except ValueError as err:
        raise CliError(str(err), EXIT_BAD_INPUT) from err
    elapsed = time.perf_counter() - start
    all_passed = all(r.passed for r in results)
    suites = [{"name": r.name, "passed": r.passed, "skipped": r.skipped, "details": r.details} for r in results]
    _write_report(args, elapsed, suites=suites, all_passed=all_passed)
    for r in results:
        status = "SKIP" if r.skipped else ("PASS" if r.passed else "FAIL")
        print(f"{status} {r.name}", file=sys.stderr)
    return EXIT_OK if all_passed else EXIT_REJECTED


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {"synth": cmd_synth, "recover": cmd_recover, "verify": cmd_verify}[args.command]
    try:
        return handler(args)
    except CliError as err:
        print(f"effectsym: {err}", file=sys.stderr)
        return err.code


if __name__ == "__main__":
    sys.exit(main())
