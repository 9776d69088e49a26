"""Timed closed loop, speed calibration and metric computation.

Shared virtual machines lend their cores to other tenants, and their
speed drifts by up to a factor of two within a minute.  So the
loop times a fixed kernel of the benchmark's own
(:class:`Calibration`, no effectsym code) every ``CAL_EVERY_S`` seconds
and before and after each set-up, and scales every latency by the
reference kernel time over the mean of the two kernel timings just
before and just after it.  The speed changes within seconds, so pairing
each op with the nearest timings tracks it better than a median over a
wider window, whose lag shows as run-to-run spread.  Times are therefore
reported at the speed of the reference machine, on which the kernel
took ``CAL_REF_NS``; the raw figures go to the results file.  On a
steady machine the factor is close to 1.

Throughput counts every timed op: ops over the sum of their latencies.
The latency samples for p50 and the tail are the cycle's inputs, each
at its median latency over the run's repetitions of the cycle.  Per-op
latencies on such a machine carry additive stalls of tens of
milliseconds, which an extreme percentile over all ops picks up run by
run; the median per input does not, and the tail over inputs is then
the slowest inputs' cost.
"""

from __future__ import annotations

import contextlib
import io
import resource
import statistics
import time

import numpy as np

CAL_REF_NS = 6_000_000   # kernel time on the reference machine (2-vCPU Intel Xeon VM)
CAL_EVERY_S = 0.25
CAL_LAPACK_ROUNDS = 40
CAL_PYTHON_ROUNDS = 300


class Calibration:
    """A fixed kernel in the work mix of the program: small dense linear
    algebra (QR and Hermitian eigensolves of 5x5 complex matrices, small
    products and norms) and an interpreter-bound loop of validation and
    arithmetic on 4x4 arrays, as the program runs per sample."""

    def __init__(self):
        self.samples_ns: list[int] = []

    def measure(self) -> int:
        rng = np.random.default_rng(12345)
        a = 0.5 * np.eye(4, dtype=complex)
        acc = 0.0
        t0 = time.perf_counter_ns()
        for _ in range(CAL_LAPACK_ROUNDS):
            g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
            q, _ = np.linalg.qr(g)
            h = (q * rng.uniform(size=5)) @ q.conj().T
            _, v = np.linalg.eigh(0.5 * (h + h.conj().T))
            acc += float(np.linalg.norm(h @ h - h)) + float(np.abs(np.trace(v)))
        for i in range(CAL_PYTHON_ROUNDS):
            x = np.asarray(a, dtype=complex)
            if x.ndim != 2 or x.shape[0] != x.shape[1] or not np.all(np.isfinite(x)):
                raise RuntimeError("calibration input changed")
            y = x @ x.conj().T - x
            acc += float(np.abs(np.trace(y))) + float(np.max(np.abs(y - y.conj().T)))
            row = {"index": i, "pair": [i, i + 1]}
            acc += 1e-9 * sum(row["pair"]) + len(row)
        ns = time.perf_counter_ns() - t0
        if not np.isfinite(acc):
            raise RuntimeError("calibration kernel produced a non-finite value")
        self.samples_ns.append(ns)
        return ns

    @staticmethod
    def factor(before_ns: int, after_ns: int) -> float:
        return 2.0 * CAL_REF_NS / (before_ns + after_ns)


def install_query_counter(oracle_cls) -> list[int]:
    """Count oracle evaluations at ``EffectMapOracle.__call__``."""
    count = [0]
    original = oracle_cls.__call__

    def counted(self, a):
        count[0] += 1
        return original(self, a)

    oracle_cls.__call__ = counted
    return count


class Phase:
    """Latencies, query counts and checked results of one timed loop."""

    def __init__(self):
        self.raw_ns: list[int] = []
        self.scaled_ns: list[float] = []
        self.queries = 0
        self.failures: list[tuple[str, str, str]] = []  # (label, why, known defect)

    @property
    def ops(self) -> int:
        return len(self.raw_ns)

    def per_input_ms(self, k: int, scaled: bool = True) -> list[float]:
        """Median latency of each of the cycle's ``k`` inputs over the
        run's cycles (the loop runs whole cycles only)."""
        ns = self.scaled_ns if scaled else self.raw_ns
        return [statistics.median(ns[i::k]) / 1e6 for i in range(k)]

    def ops_per_s(self, scaled: bool = True) -> float:
        """Decisions per second of op time over all timed ops."""
        return self.ops / (sum(self.scaled_ns if scaled else self.raw_ns) / 1e9)


def measure(wl, ops, seconds, counter, first_digests, cal, tracer=None) -> Phase:
    """Run whole cycles of ``ops`` until ``seconds`` have passed.

    The first cycle's per-op digests are stored in ``first_digests``;
    later cycles must reproduce them (same inputs, same outputs)."""
    phase = Phase()
    kernel_ns = [cal.measure()]
    segment = []  # per op: index of the kernel timing just before it
    start = time.perf_counter()
    deadline = start + seconds
    segment_start = start
    with contextlib.redirect_stderr(io.StringIO()):
        while True:
            for i, op in enumerate(ops):
                q0 = counter[0]
                if tracer is not None:
                    tracer.start_op(phase.ops)
                    frame = tracer.enter("bench.op")
                    ns, result = wl.execute(op)
                    tracer.exit(frame)
                else:
                    ns, result = wl.execute(op)
                phase.raw_ns.append(ns)
                segment.append(len(kernel_ns) - 1)
                phase.queries += counter[0] - q0
                why = result.failure
                if first_digests.setdefault(i, result.digest) != result.digest and why is None:
                    why = "output differs from the first run of the same input"
                if why is not None:
                    known = op.known_defect.what if op.excused(why) else ""
                    phase.failures.append((op.label, why, known))
                if time.perf_counter() - segment_start >= CAL_EVERY_S:
                    kernel_ns.append(cal.measure())
                    segment_start = time.perf_counter()
            if time.perf_counter() >= deadline:
                break
    kernel_ns.append(cal.measure())
    factors = [cal.factor(kernel_ns[j], kernel_ns[j + 1]) for j in range(len(kernel_ns) - 1)]
    phase.scaled_ns = [ns * factors[j] for ns, j in zip(phase.raw_ns, segment)]
    return phase


def setup(wl, workload, seed, cal, tracer=None):
    """Import effectsym afresh and build the workload.

    Returns (raw seconds, seconds at reference speed, mods, ops)."""
    before = cal.measure()
    t0 = time.perf_counter()
    mods = wl.import_program()
    if tracer is not None:
        tracer.install(mods.package, [getattr(mods, m) for m in wl.MODULES])
    ops = wl.build(workload, mods, seed)
    raw = time.perf_counter() - t0
    return raw, raw * cal.factor(before, cal.measure()), mods, ops


def tail(latency_ms: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with at least ten
    samples beyond it; the maximum when there are fewer than eleven."""
    s = sorted(latency_ms)
    n = len(s)
    if n < 11:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def end_to_end(phase: Phase, k: int, setup_raw: list[float], setup_scaled: list[float], cal) -> tuple[dict, dict]:
    """End-to-end metrics; latency samples are the cycle's ``k`` inputs,
    each at its median latency over the run."""
    latency_ms = phase.per_input_ms(k)
    tail_ms, tail_pct = tail(latency_ms)
    metrics = {
        "ops_per_s": (phase.ops_per_s(), "1/s"),
        "op_ms_p50": (statistics.median(latency_ms), "ms"),
        "op_ms_tail": (tail_ms, "ms"),
        "queries_per_op": (phase.queries / phase.ops, "queries/op"),
        "ok_frac": ((phase.ops - len(phase.failures)) / phase.ops, "frac"),
        "setup_s": (statistics.median(setup_scaled), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    raw_ms = phase.per_input_ms(k, scaled=False)
    notes = {
        "inputs": k,
        "ops": phase.ops,
        "repeats_per_input": phase.ops // k,
        "tail_percentile": tail_pct,
        "raw_ops_per_s": phase.ops_per_s(scaled=False),
        "raw_op_ms_p50": statistics.median(raw_ms),
        "raw_op_ms_tail": tail(raw_ms)[0],
        "raw_setup_s": statistics.median(setup_raw),
        "setup_samples": len(setup_scaled),
        "calibration_ms_median": statistics.median(cal.samples_ns) / 1e6,
    }
    return metrics, notes


LAYERS = (
    "rng", "sampling", "linalg", "effects", "symmetry",
    "extension", "recover", "suites", "serialize", "cli",
)
SUITES = (
    "closure_suite", "affine_roundtrip_suite", "triple_roundtrip_suite",
    "hermitian_sign_suite", "rejection_suite", "scaling_grid_suite",
    "extension_suite", "probe_suite", "phase_gauge_suite",
)
PROJECTION_SAMPLERS = ("random_projection", "nested_projections", "orthogonal_projections")
LOAD_SUFFIXES = ("from_obj", "load_json")
DUMP_SUFFIXES = ("to_obj", "dump_json", "json_default")


def _serialize_fns(names, suffixes) -> list[str]:
    return [k for k in names if k.startswith("serialize.") and k.endswith(suffixes)]


def per_layer(tm, tracer, traced: Phase, untraced: Phase, k: int, setup_reps: int) -> dict:
    """Per-layer metrics of the traced phase, per decision unless the unit
    says otherwise; ``tm`` is the tracer module.  Span times of the ops
    are scaled to reference speed by the phase's mean factor; set-up span
    times are raw."""
    st = tracer.phases["ops"]
    n = traced.ops
    speed = sum(traced.scaled_ns) / sum(traced.raw_ns)
    self_s = {name: ns * speed / 1e9 for name, ns in st.self_ns.items()}
    op_s = sum(traced.scaled_ns) / 1e9

    def secs(*names):
        return sum(self_s.get(name, 0.0) for name in names) / n

    def calls(name):
        return st.calls.get(name, 0) / n

    def layer_s(layer):
        return sum(v for k, v in self_s.items() if k.startswith(layer + ".")) / n

    def stage_fns(stage):
        return [fn for fn, s in tm.STAGE_OF.items() if s == stage]

    queries = st.calls.get(tm.ORACLE_SPAN, 0)
    stage_queries = {
        stage: sum(st.fn_queries.get(fn, 0) for fn in stage_fns(stage)) for stage in tm.STAGES
    }
    blocks = st.calls.get(tm.BLOCK_SPAN, 0)
    setup_st = tracer.phases["setup"]

    m = {
        "rng.blocks": (blocks / n, "blocks/op"),
        "rng.outputs_per_block": (st.block_outputs / blocks if blocks else 0.0, "outputs/block"),
        "sampling.haar_unitary.calls": (calls("sampling.haar_unitary"), "calls/op"),
        "sampling.haar_unitary.self_s": (secs("sampling.haar_unitary"), "s/op"),
        "sampling.random_effect.calls": (calls("sampling.random_effect"), "calls/op"),
        "sampling.random_effect.self_s": (secs("sampling.random_effect"), "s/op"),
        "sampling.projections.self_s": (secs(*(f"sampling.{f}" for f in PROJECTION_SAMPLERS)), "s/op"),
        "sampling.share": (layer_s("sampling") * n / op_s, "frac"),
        "linalg.as_square_array.calls": (calls("linalg.as_square_array"), "calls/op"),
        "linalg.as_square_array.self_s": (secs("linalg.as_square_array"), "s/op"),
        "effects.leq.self_s": (secs("effects.leq"), "s/op"),
        "effects.positive_negative_parts.calls": (calls("effects.positive_negative_parts"), "calls/op"),
        "effects.positive_negative_parts.self_s": (secs("effects.positive_negative_parts"), "s/op"),
        "extension.oracle.evals": (queries / n, "queries/op"),
        "extension.oracle.self_s": (secs(tm.ORACLE_SPAN), "s/op"),
        "extension.is_affine.self_s": (secs("extension.is_affine"), "s/op"),
        "extension.is_affine.queries": (st.fn_queries.get("extension.is_affine", 0) / n, "queries/op"),
        "extension.extend_linear.calls": (calls("extension.extend_linear"), "calls/op"),
        "extension.extend_linear.self_s": (secs("extension.extend_linear"), "s/op"),
    }
    for fn in ("encode_hermitian", "decode_hermitian"):
        m[f"symmetry.{fn}.calls"] = (calls(f"symmetry.{fn}"), "calls/op")
        m[f"symmetry.{fn}.self_s"] = (secs(f"symmetry.{fn}"), "s/op")
    for fn in ("apply_affine_rep", "apply_symmetry"):
        m[f"symmetry.{fn}.self_s"] = (secs(f"symmetry.{fn}"), "s/op")
    for stage in tm.STAGES:
        m[f"recover.{stage}.self_s"] = (secs(*stage_fns(stage)), "s/op")
        m[f"recover.{stage}.queries"] = (stage_queries[stage] / n, "queries/op")
    m["recover.verify_query_share"] = (stage_queries["verify"] / queries if queries else 0.0, "frac")
    for stage in tm.REJECT_STAGES:
        m[f"recover.rejected_at.{stage}"] = (st.rejected_at.get(stage, 0) / n, "count/op")
    m["recover.raised"] = (st.raised / n, "count/op")
    m["serialize.load.self_s"] = (secs(*_serialize_fns(self_s, LOAD_SUFFIXES)), "s/op")
    m["serialize.dump.self_s"] = (secs(*_serialize_fns(self_s, DUMP_SUFFIXES)), "s/op")
    for suite in SUITES:
        m[f"suites.{suite}.self_s"] = (secs(f"suites.{suite}"), "s/op")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (layer_s(layer), "s/op")
    m["setup.symmetry.to_affine_rep.self_s"] = (
        setup_st.self_ns.get("symmetry.to_affine_rep", 0) / 1e9 / setup_reps, "s/setup")
    m["setup.serialize.dump.self_s"] = (
        sum(setup_st.self_ns[k] for k in _serialize_fns(setup_st.self_ns, DUMP_SUFFIXES))
        / 1e9 / setup_reps, "s/setup")
    m["trace.overhead_frac"] = (1.0 - traced.ops_per_s() / untraced.ops_per_s(), "frac")
    return m
