"""JSON forms for matrices, descriptors, affine maps, and reports.

Formats (language-neutral, human-diffable):

* matrix: ``{"dim": n, "data": [[[re, im], ...], ...]}`` row-major,
  IEEE doubles.
* descriptor: ``{"kind": "unitary"|"antiunitary", "u": <matrix>,
  "complement": bool, "sign": 1|-1}``.
* affine map: ``{"dim": n, "linear": [[...], ...], "constant":
  <matrix>}`` with ``linear`` real of shape ``(n^2, n^2)`` acting on
  canonical Hermitian-basis coordinates.

Floats pass through Python's shortest round-trip repr, so every stored
double is recovered exactly by any IEEE-754 JSON reader.
"""

from __future__ import annotations

import contextlib
import json
import math
import sys
from typing import Any

import numpy as np

from .extension import EffectMapOracle
from .recover import RecoveryReport
from .symmetry import AffineMapRep, SymmetryDescriptor


def matrix_to_obj(m: np.ndarray) -> dict:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return {"dim": a.shape[0], "data": np.stack([a.real, a.imag], axis=-1).tolist()}


def matrix_from_obj(obj: Any) -> np.ndarray:
    if not isinstance(obj, dict) or "dim" not in obj or "data" not in obj:
        raise ValueError("matrix object needs 'dim' and 'data' fields")
    dim = int(obj["dim"])
    data = obj["data"]
    if len(data) != dim or any(len(row) != dim for row in data):
        raise ValueError("matrix data does not match its declared dim")
    out = np.empty((dim, dim), dtype=complex)
    try:
        for i, row in enumerate(data):
            for j, (re, im) in enumerate(row):
                out[i, j] = complex(re, im)
    except (TypeError, ValueError) as err:
        raise ValueError(f"matrix entries must be [re, im] pairs: {err}") from err
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
    return SymmetryDescriptor(
        kind=obj["kind"],
        unitary=matrix_from_obj(obj["u"]),
        complement=bool(obj.get("complement", False)),
        sign=int(obj.get("sign", 1)),
    )


def affine_rep_to_obj(rep: AffineMapRep) -> dict:
    return {
        "dim": rep.dim,
        "linear": rep.linear.tolist(),
        "constant": matrix_to_obj(rep.constant),
    }


def affine_rep_from_obj(obj: Any) -> AffineMapRep:
    if not isinstance(obj, dict) or "linear" not in obj or "constant" not in obj:
        raise ValueError("affine map object needs 'linear' and 'constant' fields")
    return AffineMapRep(
        linear=np.asarray(obj["linear"], dtype=float),
        constant=matrix_from_obj(obj["constant"]),
    )


def oracle_from_obj(obj: Any) -> tuple[EffectMapOracle, str]:
    """Build an oracle from either serialized form; returns (oracle, form)."""
    if isinstance(obj, dict) and "kind" in obj:
        return EffectMapOracle.from_descriptor(descriptor_from_obj(obj)), "descriptor"
    if isinstance(obj, dict) and "linear" in obj:
        return EffectMapOracle.from_affine_rep(affine_rep_from_obj(obj)), "affine_rep"
    raise ValueError("map file is neither a descriptor nor an affine map")


def probe_to_obj(probe) -> dict:
    return {
        "projections_preserved": probe.projections_preserved,
        "order_preserved": probe.order_preserved,
        "orthogonality_preserved": probe.orthogonality_preserved,
        "orthocomplement_preserved": probe.orthocomplement_preserved,
        "samples_used": probe.samples_used,
        "witness_count": len(probe.witnesses),
        "failed_checks": probe.failed_checks(),
    }


def scaling_to_obj(scaling) -> dict:
    return {
        "lambdas": [float(x) for x in scaling.lambdas],
        "values": [float(x) for x in scaling.values],
        "residuals": [float(x) for x in scaling.residuals],
    }


def report_to_obj(report: RecoveryReport) -> dict:
    obj: dict[str, Any] = {
        "verdict": report.verdict,
        "family": report.family,
        "reason": report.reason,
        "max_residual": None if math.isnan(report.max_residual) else report.max_residual,
    }
    if report.descriptor is not None:
        obj["descriptor"] = descriptor_to_obj(report.descriptor)
    if report.probe is not None:
        obj["probe"] = probe_to_obj(report.probe)
    if report.scaling is not None:
        obj["scaling"] = scaling_to_obj(report.scaling)
    return obj


def json_default(value: Any):
    """Coerce numpy scalars and arrays that leak into report payloads."""
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"not JSON serializable: {type(value)!r}")


def dump_json(obj: Any, path: str | None) -> None:
    """Write ``obj`` as strict JSON (NaN and inf refused) to ``path``, or
    to stdout when ``path`` is None."""
    target = contextlib.nullcontext(sys.stdout) if path is None else open(path, "w", encoding="utf-8")
    with target as fh:
        json.dump(obj, fh, indent=2, ensure_ascii=False, allow_nan=False, default=json_default)
        fh.write("\n")


def load_json(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
