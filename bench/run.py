"""effectsym benchmark: decision latency and oracle-query cost.

Usage (from the root of a checkout):

    python3 bench/run.py --workload recover_small --seed 1 --seconds 20 --trace 0

Each run imports effectsym from ``src/`` of the checkout, builds the
workload's inputs from ``--seed``, and drives the workload's fixed
cycle of ops as a closed loop with one client until ``--seconds`` have
passed (whole cycles only, so every run has the same share of each
case).  Every op is checked against ground truth.  BLAS threads are
capped at the number of CPUs the process may use.  Times are scaled to
the speed of a reference machine by a calibration kernel timed between
ops (see ``harness.py``); the raw times go to the results file.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
cycle untraced and then traced for ``--seconds`` each and prints the
per-layer metrics of the traced part (per decision unless the unit says
otherwise) with the tracing overhead.  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``; lines before it, starting with ``#``, give the
environment, the output digest and the failures.  A fuller record is
written to ``.bench_results/`` and the trace spans next to it.

Workloads (why each one is here is in BENCHMARK.json):

* ``recover_small``: in-process recoveries, every family, both kinds,
  complement and sign, dims 3-6.
* ``recover_affine16``: ``effectsym recover`` on dim-16 affine-form map
  files written by ``effectsym synth`` during set-up.
* ``reject_mix``: maps the recovery must reject, dims 4-6, including the
  NaN repro of ROADMAP item 1, whose mishandling at the affine and
  triple-effects routes is a known defect counted as failed ops.
* ``verify_battery``: ``effectsym verify --trials 100`` at dims 3 and 6.

Seeds 1-10 are the tuning seeds; confirm a claimed gain on the held-out
seed ``HELD_OUT_SEED`` as well.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import sys
from pathlib import Path

HELD_OUT_SEED = 4242
SETUP_REPS = 5
TRACED_SETUP_REPS = 2
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BENCH_DIR = Path(__file__).resolve().parent


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# -- environment ---------------------------------------------------------


def _git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(root: Path, np, blas_cap: int) -> dict:
    source = hashlib.sha256()
    for path in sorted((root / "src" / "effectsym").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy has no dict form; the record is informational
        blas_version = "unknown"
    return {
        "git_commit": _git_commit(root),
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "blas_threads_cap": blas_cap,
    }


# -- run -----------------------------------------------------------------


def run(args, root: Path) -> dict:
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(nproc)
    sys.path.insert(0, str(root / "src"))
    import numpy as np

    import harness as hn
    import tracer as tm
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; choose from {sorted(wl.WORKLOADS)}")

    env = environment(root, np, nproc)
    work = root / ".bench_work" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    results = root / ".bench_results"
    results.mkdir(exist_ok=True)
    work.mkdir(parents=True, exist_ok=True)
    cwd = os.getcwd()
    os.chdir(work)
    try:
        mods = wl.import_program()
        source = Path(mods.package.__file__).resolve()
        if not source.is_relative_to((root / "src").resolve()):
            raise SystemExit(f"effectsym was imported from {source}, not from this checkout")
        problem = wl.checker_self_check(mods)
        if problem is not None:
            raise SystemExit(f"checker self-check failed: {problem}")

        cal = hn.Calibration()
        tracer = None
        if args.trace:
            tracer = tm.Tracer()
            tracer.enabled = True
            for _ in range(TRACED_SETUP_REPS):
                hn.setup(wl, args.workload, args.seed, cal, tracer)
            tracer.enabled = False
        setup_raw, setup_scaled = [], []
        for _ in range(1 if args.trace else SETUP_REPS):
            raw, scaled, mods, ops = hn.setup(wl, args.workload, args.seed, cal)
            setup_raw.append(raw)
            setup_scaled.append(scaled)
        counter = hn.install_query_counter(mods.extension.EffectMapOracle)

        first_digests: dict[int, bytes] = {}
        phase = hn.measure(wl, ops, args.seconds, counter, first_digests, cal)
        phases = [phase]
        if args.trace:
            tracer.install(mods.package, [getattr(mods, m) for m in wl.MODULES])
            tracer.set_phase("ops")
            tracer.enabled = True
            traced = hn.measure(wl, ops, args.seconds, counter, first_digests, cal, tracer)
            tracer.enabled = False
            phases.append(traced)
            metrics = hn.per_layer(tm, tracer, traced, phase, len(ops), TRACED_SETUP_REPS)
            notes = {"samples": traced.ops, "spans": tracer.span_count,
                     "spans_op_stride": tracer.op_stride, "spans_dropped": tracer.dropped}
        else:
            metrics, notes = hn.end_to_end(phase, len(ops), setup_raw, setup_scaled, cal)
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    digest = hashlib.sha256(b"".join(first_digests[i] for i in range(len(ops)))).hexdigest()
    failures = [f for p in phases for f in p.failures]
    attempted = sum(p.ops for p in phases)
    unexpected = [f for f in failures if not f[2]]
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write(results / f"{stem}.spans.npz")

    reference = _reference_digest(args.workload, args.seed)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "output_digest": digest,
        "reference_digest": reference,
        "attempted": attempted,
        "failed": len(failures),
        "failures": _summarise(failures),
        "notes": notes,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(results / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)

    print(f"# environment {json.dumps(env)}")
    print(f"# workload {args.workload} seed {args.seed} (held-out seed {HELD_OUT_SEED}) notes {json.dumps(notes)}")
    if reference is None:
        print(f"# output_digest {digest} (no reference recorded for this seed)")
    elif reference == digest:
        print(f"# output_digest {digest} (matches the reference)")
    else:
        print(f"# output_digest {digest} DIFFERS from the reference {reference}")
    for line in _summarise(failures):
        print(f"# failed {line}")
    return {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def _reference_digest(workload: str, seed: int) -> str | None:
    path = BENCH_DIR / "reference_digests.json"
    if not path.is_file():
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh).get("digests", {}).get(workload, {}).get(str(seed))


def _summarise(failures) -> list[str]:
    counts: dict[tuple[str, str], int] = {}
    for label, why, known in failures:
        key = (label, why + (f" [known defect: {known}]" if known else ""))
        counts[key] = counts.get(key, 0) + 1
    return [f"{label} x{n}: {why}" for (label, why), n in sorted(counts.items())]


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "effectsym" / "__init__.py").is_file():
        print(f"bench: no effectsym sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("bench: --seconds must be positive", file=sys.stderr)
        return 2
    result = run(args, root)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
