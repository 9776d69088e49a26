"""In-memory span tracer that instruments effectsym from the outside.

:meth:`Tracer.install` replaces every public effectsym function in every
module namespace that binds it (``random_effect`` is bound separately in
``sampling``, ``recover``, ``extension``, ``suites`` and ``symmetry``)
with one shared wrapper, and wraps ``EffectMapOracle.__call__`` and the
``Stream`` draw methods on their classes.  Nothing inside ``src/``
changes.

Each wrapped call records a span (name, start, end, parent span, op id)
into flat arrays kept in memory, plus aggregates: call counts, self
time (span duration minus the time its child spans cover), oracle
queries attributed to the innermost enclosing recovery stage, ``Stream``
block sizes, and the stage at which each outermost ``recover_*`` call
rejected its map.  :meth:`Tracer.write` stores the spans at the end of
a run.

The aggregates count every call.  The span record keeps whole ops: when
it passes half of ``MAX_SPANS`` between two ops, it drops every other
op kept so far and from then on keeps one op in twice as many, so it
covers the whole run at an even spacing.  Set-up spans are always kept.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

ORACLE_SPAN = "extension.oracle"
BLOCK_SPAN = "rng.u64_block"
STREAM_METHODS = ("next_u64", "u64_block", "uniform", "gaussian", "integer", "spawn")

# Recovery stages; "inline" is the self time of the recover_* bodies
# (triple-identity loop, classification of phi(0) and phi(I)).
STAGE_OF = {
    "extension.is_affine": "probe",
    "recover.preservation_probe": "probe",
    "recover.reconstruct_unitary_from_projection_action": "reconstruct",
    "recover.extract_scaling_function": "scaling",
    "recover.check_scaling_identity": "scaling",
    "recover.verify_descriptor": "verify",
    "recover.recover_affine": "inline",
    "recover.recover_triple": "inline",
    "recover.recover_triple_hermitian": "inline",
}
STAGES = ("probe", "reconstruct", "scaling", "verify", "inline")
RECOVER_ENTRIES = frozenset(
    ("recover.recover_affine", "recover.recover_triple", "recover.recover_triple_hermitian")
)
REJECT_STAGES = ("probe", "inline", "reconstruct", "scaling", "verify", "other")

MAX_SPANS = 2_000_000  # 36 bytes each in memory


def rejection_stage(reason: str) -> str:
    """Stage named by a rejection reason string of the recover module."""
    if reason.startswith(("map is not affine", "projection-structure probe")):
        return "probe"
    if reason.startswith(("φ(", "triple identity")):
        return "inline"
    if "scaling" in reason:
        return "scaling"
    if reason.startswith("canonical-form residual"):
        return "verify"
    if reason.startswith(("image", "images", "phase alignment", "reconstruction verification")):
        return "reconstruct"
    return "other"


class Stats:
    """Aggregates of one phase (set-up or timed ops)."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.fn_queries = defaultdict(int)  # oracle queries by innermost stage function
        self.block_outputs = 0
        self.rejected_at = defaultdict(int)
        self.raised = 0


class Tracer:
    def __init__(self):
        self.enabled = False
        self.op_id = -1
        self.phases = {"setup": Stats(), "ops": Stats()}
        self.cur = self.phases["setup"]
        self.op_stride = 1  # spans are kept for ops whose id is a multiple of this
        self._keep = True
        self.dropped = 0
        self._names: list[str] = []
        self._ids: dict[str, int] = {}
        self._s_name = array("i")
        self._s_start = array("q")
        self._s_end = array("q")
        self._s_parent = array("i")
        self._s_op = array("i")
        self._stack: list[list] = []  # [span index, name, child ns, start ns]
        self._stages: list[str] = []  # open stage functions, innermost last
        self._recover_depth = 0

    def set_phase(self, phase: str) -> None:
        self.cur = self.phases[phase]

    def start_op(self, op_id: int) -> None:
        """Mark the start of op ``op_id``; call it with no span open."""
        if len(self._s_name) >= MAX_SPANS // 2:
            self.op_stride *= 2
            self._thin()
        self.op_id = op_id
        self._keep = op_id % self.op_stride == 0

    def _thin(self) -> None:
        """Drop the spans of ops whose id is not a multiple of the stride."""
        op = np.frombuffer(self._s_op, dtype=np.int32)
        keep = (op < 0) | (op % self.op_stride == 0)
        index = np.cumsum(keep) - 1
        parent = np.frombuffer(self._s_parent, dtype=np.int32)
        # a kept span's parent is in the same op, so it is kept too
        parent = np.where(parent >= 0, index[np.maximum(parent, 0)], -1).astype(np.int32)
        self._s_name = array("i", np.frombuffer(self._s_name, dtype=np.int32)[keep].tobytes())
        self._s_start = array("q", np.frombuffer(self._s_start, dtype=np.int64)[keep].tobytes())
        self._s_end = array("q", np.frombuffer(self._s_end, dtype=np.int64)[keep].tobytes())
        self._s_parent = array("i", parent[keep].tobytes())
        self._s_op = array("i", op[keep].tobytes())

    # -- spans ---------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self._names)
            self._names.append(name)
        return self._ids[name]

    def enter(self, name: str) -> list:
        idx = -1
        if self._keep:
            if len(self._s_name) < MAX_SPANS:
                idx = len(self._s_name)
                self._s_name.append(self._id(name))
                self._s_start.append(0)
                self._s_end.append(0)
                self._s_parent.append(self._stack[-1][0] if self._stack else -1)
                self._s_op.append(self.op_id)
            else:
                self.dropped += 1
        frame = [idx, name, 0, time.perf_counter_ns()]
        if idx >= 0:
            self._s_start[idx] = frame[3]
        self._stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        dur = end - frame[3]
        self.cur.calls[frame[1]] += 1
        self.cur.self_ns[frame[1]] += dur - frame[2]
        if self._stack:
            self._stack[-1][2] += dur
        if frame[0] >= 0:
            self._s_end[frame[0]] = end

    # -- instrumentation -----------------------------------------------

    def _wrap(self, fn, name: str):
        tracer = self
        stage = STAGE_OF.get(name)
        is_entry = name in RECOVER_ENTRIES
        is_oracle = name == ORACLE_SPAN
        is_block = name == BLOCK_SPAN

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            frame = tracer.enter(name)
            if is_oracle and tracer._stages:
                tracer.cur.fn_queries[tracer._stages[-1]] += 1
            elif is_block:
                tracer.cur.block_outputs += args[1] if len(args) > 1 else kwargs["n"]
            if stage:
                tracer._stages.append(name)
            if is_entry:
                tracer._recover_depth += 1
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if is_entry and tracer._recover_depth == 1:
                    tracer.cur.raised += 1
                raise
            finally:
                if is_entry:
                    tracer._recover_depth -= 1
                if stage:
                    tracer._stages.pop()
                tracer.exit(frame)
            if is_entry and tracer._recover_depth == 0 and result.verdict == "rejected":
                tracer.cur.rejected_at[rejection_stage(result.reason)] += 1
            return result

        return traced

    def install(self, package, modules) -> None:
        """Wrap public functions in ``package`` and every module namespace,
        ``EffectMapOracle.__call__`` and the ``Stream`` draw methods."""
        wrappers: dict[int, object] = {}
        for mod in (package, *modules):
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_") or isinstance(value, type) or not callable(value):
                    continue
                origin = getattr(value, "__module__", None) or ""
                if not origin.startswith("effectsym."):
                    continue
                if id(value) not in wrappers:
                    layer = origin.rsplit(".", 1)[1]
                    wrappers[id(value)] = self._wrap(value, f"{layer}.{value.__name__}")
                setattr(mod, attr, wrappers[id(value)])
        oracle_cls = package.extension.EffectMapOracle
        oracle_cls.__call__ = self._wrap(oracle_cls.__call__, ORACLE_SPAN)
        stream_cls = package.rng.Stream
        for method in STREAM_METHODS:
            setattr(stream_cls, method, self._wrap(getattr(stream_cls, method), f"rng.{method}"))

    # -- output --------------------------------------------------------

    def write(self, path: Path) -> None:
        """Store the spans (times in ns from the first span) and names."""
        n = len(self._s_name)
        start = np.frombuffer(self._s_start, dtype=np.int64, count=n)
        origin = int(start[0]) if n else 0
        np.savez_compressed(
            path,
            name=np.frombuffer(self._s_name, dtype=np.int32, count=n),
            start_ns=start - origin,
            end_ns=np.frombuffer(self._s_end, dtype=np.int64, count=n) - origin,
            parent=np.frombuffer(self._s_parent, dtype=np.int32, count=n),
            op=np.frombuffer(self._s_op, dtype=np.int32, count=n),
            names=np.array(json.dumps(self._names)),
        )

    @property
    def span_count(self) -> int:
        return len(self._s_name)
