"""JSON forms for matrices, descriptors, affine maps, and reports.

Formats (language-neutral):

* matrix: ``{"dim": n, "data": [[[re, im], ...], ...]}`` row-major,
  IEEE doubles.
* descriptor: ``{"kind": "unitary"|"antiunitary", "u": <matrix>,
  "complement": bool, "sign": 1|-1}``.
* affine map: ``{"dim": n, "linear": "<base64>", "constant":
  <matrix>}``.  ``linear`` is real of shape ``(n^2, n^2)`` acting on
  canonical Hermitian-basis coordinates, stored as the base64 text of
  its row-major, little-endian IEEE-754 binary64 bytes: exactly
  ``8 n^4`` bytes.  ``dim`` must equal the constant's ``dim``.

Matrix and descriptor floats pass through Python's shortest round-trip
repr, and ``linear`` is the doubles' own bytes, so every stored double
is recovered exactly.  ``linear`` gives up being human-diffable for
speed: at n = 16 it holds 65,536 doubles, and parsing them as JSON
numbers took about a third of a ``recover`` call on the file.  A file
that still writes ``linear`` as nested lists is refused; re-run
``effectsym synth`` to rewrite it.

:func:`dump_json` writes every file, as strict JSON in which a NaN or
infinity reads ``null`` (say, a ``max_residual`` before any verify); only
a document that strict encoding refuses is read back to replace them.  It
encodes the whole text before it opens the file, so a document that
cannot be encoded leaves no file.
"""

from __future__ import annotations

import base64
import contextlib
import json
import sys
from itertools import chain
from typing import Any

import numpy as np

from .extension import EffectMapOracle
from .linalg import as_square_array
from .recover import PROBE_CHECKS, SCALING_GRID, RecoveryReport
from .symmetry import AffineMapRep, SymmetryDescriptor


def _is_json_int(x: Any) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _number_array(value: Any, message: str) -> np.ndarray:
    """``value`` as an array of JSON numbers (numpy reads a bool among them as 0 or 1)."""
    a = np.asarray(value)
    leaves = [value]
    for _ in range(a.ndim):
        leaves = chain.from_iterable(leaves)
    if a.dtype.kind not in "iuf" or bool in set(map(type, leaves)):
        raise ValueError(message)
    return a


def matrix_to_obj(m: np.ndarray) -> dict:
    a = as_square_array(m)
    return {"dim": a.shape[0], "data": np.stack([a.real, a.imag], axis=-1).tolist()}


def matrix_from_obj(obj: Any) -> np.ndarray:
    if not isinstance(obj, dict) or "dim" not in obj or "data" not in obj:
        raise ValueError("matrix object needs 'dim' and 'data' fields")
    dim = obj["dim"]
    if not _is_json_int(dim):
        raise ValueError(f"matrix 'dim' must be a JSON integer, got {dim!r}")
    message = f"matrix data must be {dim} x {dim} [re, im] pairs of JSON numbers"
    data = _number_array(obj["data"], message)
    if data.shape != (dim, dim, 2):
        raise ValueError(message)
    out = np.empty((dim, dim), dtype=complex)
    out.real, out.imag = data[..., 0], data[..., 1]
    return out


def descriptor_to_obj(d: SymmetryDescriptor) -> dict:
    return {
        "kind": d.kind,
        "u": matrix_to_obj(d.unitary),
        "complement": bool(d.complement),
        "sign": int(d.sign),
    }


def descriptor_from_obj(obj: Any) -> SymmetryDescriptor:
    if not isinstance(obj, dict) or "kind" not in obj or "u" not in obj:
        raise ValueError("descriptor object needs 'kind' and 'u' fields")
    complement, sign = obj.get("complement", False), obj.get("sign", 1)
    if not isinstance(complement, bool):
        raise ValueError(f"descriptor 'complement' must be a JSON bool, got {complement!r}")
    if not (_is_json_int(sign) and sign in (1, -1)):
        raise ValueError(f"descriptor 'sign' must be the JSON integer 1 or -1, got {sign!r}")
    return SymmetryDescriptor(obj["kind"], matrix_from_obj(obj["u"]), complement, sign)


def affine_rep_to_obj(rep: AffineMapRep) -> dict:
    return {
        "dim": rep.dim,
        "linear": base64.b64encode(rep.linear.astype("<f8", copy=False).tobytes()).decode("ascii"),
        "constant": matrix_to_obj(rep.constant),
    }


def affine_rep_from_obj(obj: Any) -> AffineMapRep:
    if not isinstance(obj, dict) or "linear" not in obj or "constant" not in obj:
        raise ValueError("affine map object needs 'linear' and 'constant' fields")
    constant = matrix_from_obj(obj["constant"])
    dim, text = obj.get("dim"), obj["linear"]
    if not (_is_json_int(dim) and dim == constant.shape[0]):
        raise ValueError(f"affine map 'dim' must be the JSON integer {constant.shape[0]} "
                         f"of its constant, got {dim!r}")
    size = 8 * dim ** 4
    message = (f"affine map 'linear' must be base64 of {size} bytes of little-endian binary64 "
               "(re-run effectsym synth to rewrite a list-form file)")
    if not isinstance(text, str):
        raise ValueError(message)
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as err:  # binascii.Error, or a non-ASCII character
        raise ValueError(message) from err
    if len(raw) != size:
        raise ValueError(message)
    linear = np.frombuffer(raw, dtype="<f8").reshape(dim * dim, dim * dim)
    return AffineMapRep(linear=linear, constant=constant)


def oracle_from_obj(obj: Any) -> EffectMapOracle:
    """Build an oracle from either serialized form; its ``label`` names the form."""
    if isinstance(obj, dict) and "kind" in obj:
        return EffectMapOracle.from_descriptor(descriptor_from_obj(obj))
    if isinstance(obj, dict) and "linear" in obj:
        return EffectMapOracle.from_affine_rep(affine_rep_from_obj(obj))
    raise ValueError("map file is neither a descriptor nor an affine map")


def probe_to_obj(probe) -> dict:
    failed = probe.failed_checks()
    obj: dict[str, Any] = {f"{name}_preserved": name not in failed for name in PROBE_CHECKS}
    obj.update(samples_used=probe.samples_used, witness_count=len(probe.witnesses), failed_checks=failed)
    return obj


def scaling_to_obj(scaling) -> dict:
    return {
        "lambdas": [float(x) for x in SCALING_GRID],
        "values": [float(x) for x in scaling.values],
        "residuals": [float(x) for x in scaling.residuals],
    }


def report_to_obj(report: RecoveryReport) -> dict:
    obj: dict[str, Any] = {
        "verdict": report.verdict,
        "family": report.family,
        "reason": report.reason,
        "max_residual": report.max_residual,
    }
    if report.descriptor is not None:
        obj["descriptor"] = descriptor_to_obj(report.descriptor)
    if report.probe is not None:
        obj["probe"] = probe_to_obj(report.probe)
    if report.scaling is not None:
        obj["scaling"] = scaling_to_obj(report.scaling)
    return obj


def dump_json(obj: Any, path: str | None) -> None:
    """Write ``obj`` to ``path``, or to stdout when ``path`` is None, by the
    module's one rule: strict JSON, a NaN or infinity as null, one write."""
    try:
        text = json.dumps(obj, indent=2, ensure_ascii=False, allow_nan=False)
    except ValueError:  # a NaN or infinity: only then read the text back with each as None
        obj = json.loads(json.dumps(obj), parse_constant=lambda _: None)
        text = json.dumps(obj, indent=2, ensure_ascii=False, allow_nan=False)
    with contextlib.nullcontext(sys.stdout) if path is None else open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def load_json(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
