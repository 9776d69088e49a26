import base64
import json
import math

import numpy as np
import pytest

from effectsym.extension import EffectMapOracle
from effectsym.recover import recover_triple
from effectsym.sampling import random_effect
from effectsym.serialize import (
    affine_rep_from_obj,
    affine_rep_to_obj,
    descriptor_from_obj,
    descriptor_to_obj,
    dump_json,
    load_json,
    matrix_from_obj,
    matrix_to_obj,
    oracle_from_obj,
    probe_to_obj,
    report_to_obj,
)
from effectsym.symmetry import ANTIUNITARY, AffineMapRep, apply_symmetry, random_symmetry, to_affine_rep


def test_matrix_roundtrip_exact():
    m = random_effect(3, 5)
    obj = matrix_to_obj(m)
    assert obj["dim"] == 3
    back = matrix_from_obj(obj)
    assert np.array_equal(back, m)


def test_matrix_obj_validation():
    with pytest.raises(ValueError):
        matrix_from_obj({"dim": 2, "data": [[[0, 0]]]})
    with pytest.raises(ValueError):
        matrix_from_obj([1, 2, 3])
    with pytest.raises(ValueError):
        matrix_to_obj(np.ones((2, 3)))
    with pytest.raises(ValueError):  # bare numbers instead of [re, im] pairs
        matrix_from_obj({"dim": 2, "data": [[1, 2], [3, 4]]})
    data = matrix_to_obj(np.eye(2))["data"]
    for dim in (2.7, 2.0, "2", None):
        with pytest.raises(ValueError, match="'dim' must be a JSON integer"):
            matrix_from_obj({"dim": dim, "data": data})
    with pytest.raises(ValueError, match="'dim' must be a JSON integer"):
        matrix_from_obj({"dim": True, "data": [[[1.0, 0.0]]]})  # would read as 1
    for bad in ([[["1", 0.0]]], [[[True, False]]], [[[1.0, 0.0, 0.0]]], [[[1.0, None]]]):
        with pytest.raises(ValueError):  # [[[True, False]]] was read as 1
            matrix_from_obj({"dim": 1, "data": bad})
    assert matrix_from_obj({"dim": 1, "data": [[[2, -1]]]})[0, 0] == 2 - 1j


def test_descriptor_roundtrip():
    d = random_symmetry(4, 9, family="triple_hermitian", kind=ANTIUNITARY, sign=-1)
    back = descriptor_from_obj(descriptor_to_obj(d))
    assert back.kind == d.kind
    assert back.sign == d.sign
    assert back.complement == d.complement
    assert np.array_equal(back.unitary, d.unitary)


def test_descriptor_obj_validation():
    with pytest.raises(ValueError):
        descriptor_from_obj({"u": matrix_to_obj(np.eye(2))})
    bad = descriptor_to_obj(random_symmetry(2, 1))
    bad["u"] = matrix_to_obj(np.diag([1.0, 2.0]))
    with pytest.raises(ValueError):
        descriptor_from_obj(bad)


@pytest.mark.parametrize("field, value", [
    ("complement", "false"),  # was read as complement True
    ("complement", 0),
    ("complement", None),
    ("sign", -1.5),  # was read as -1
    ("sign", "1"),  # was read as 1
    ("sign", True),  # was read as 1
    ("sign", 1.0),
    ("sign", 2),
])
def test_descriptor_flags_must_have_their_json_type(field, value):
    obj = descriptor_to_obj(random_symmetry(3, 1, family="affine", complement=False))
    obj[field] = value
    with pytest.raises(ValueError, match=f"descriptor '{field}' must be"):
        descriptor_from_obj(obj)


def test_descriptor_flags_default_when_absent():
    obj = descriptor_to_obj(random_symmetry(3, 1, family="affine", complement=False))
    del obj["complement"], obj["sign"]
    d = descriptor_from_obj(obj)
    assert d.complement is False and d.sign == 1


def _affine_obj(dim=2):
    return affine_rep_to_obj(to_affine_rep(random_symmetry(dim, 3, family="affine")))


def _base64_doubles(values) -> str:
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


@pytest.mark.parametrize("entry", ["0.5", None, [0.5], {"re": 0.5}])
def test_affine_rep_linear_must_be_numbers(entry):
    """``linear`` holds its numbers as base64 binary64, and nothing else."""
    obj = _affine_obj()
    obj["linear"] = entry  # "0.5" is not base64: '.' is outside the alphabet
    with pytest.raises(ValueError, match="'linear' must be base64 of 128 bytes"):
        affine_rep_from_obj(obj)
    obj["linear"] = [[True] * 4] * 4
    with pytest.raises(ValueError, match="'linear' must be base64 of 128 bytes"):
        affine_rep_from_obj(obj)


@pytest.mark.parametrize("leaf", [True, False])
def test_a_bool_among_json_numbers_is_refused(leaf):
    obj = _affine_obj()
    obj["constant"]["data"][1][1][0] = leaf  # numpy reads it as 1 or 0
    with pytest.raises(ValueError, match="matrix data must be 2 x 2"):
        affine_rep_from_obj(obj)
    for data in ([[[1.0, 0.0], [0.0, leaf]], [[0.0, 0.0], [1.0, 0.0]]],  # floats, then ints
                 [[[1, 0], [0, leaf]], [[0, 0], [1, 0]]]):
        with pytest.raises(ValueError, match="matrix data must be 2 x 2"):
            matrix_from_obj({"dim": 2, "data": data})


def test_affine_rep_constant_accepts_json_integers():
    obj = _affine_obj()
    obj["linear"] = _base64_doubles(np.eye(4))
    obj["constant"]["data"] = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
    rep = affine_rep_from_obj(obj)
    assert np.array_equal(rep.linear, np.eye(4)) and np.array_equal(rep.constant, np.eye(2))


@pytest.mark.parametrize("dim", [2, 3, 16])
def test_affine_rep_linear_roundtrips_its_exact_bytes(dim, tmp_path):
    rep = to_affine_rep(random_symmetry(dim, dim, family="affine"))
    linear = rep.linear.copy()
    linear.flat[[0, 1, 2, -1]] = -0.0, 5e-324, 1e308, -1e308  # signed zero, subnormal, extremes
    path = str(tmp_path / "m.affine.json")
    dump_json(affine_rep_to_obj(AffineMapRep(linear=linear, constant=rep.constant)), path)
    obj = load_json(path)
    assert len(base64.b64decode(obj["linear"])) == 8 * dim ** 4
    back = affine_rep_from_obj(obj)
    assert back.linear.tobytes() == linear.tobytes()
    assert back.constant.tobytes() == rep.constant.tobytes()


def _with_planted(value):
    linear = np.eye(4)
    linear[1, 2] = value
    return _base64_doubles(linear)


VALID_LINEAR = _base64_doubles(np.eye(4))
BAD_LINEAR = {
    "number": 1.0,
    "null": None,
    "bool": True,
    "object": {"base64": VALID_LINEAR},
    "legacy-list": np.eye(4).tolist(),
    "space": VALID_LINEAR[:8] + " " + VALID_LINEAR[8:],
    "newline": VALID_LINEAR[:76] + "\n" + VALID_LINEAR[76:],
    "url-safe-alphabet": VALID_LINEAR.replace("/", "_").replace("+", "-") + "_",
    "non-ascii": VALID_LINEAR[:-4] + "\u00e9" * 4,
    "bad-padding": VALID_LINEAR.rstrip("="),
    "empty": "",
    "one-double-short": _base64_doubles(np.ones(15)),
    "one-double-long": _base64_doubles(np.ones(17)),
    "not-whole-doubles": base64.b64encode(bytes(127)).decode("ascii"),
    "nan": _with_planted(np.nan),
    "inf": _with_planted(np.inf),
    "-inf": _with_planted(-np.inf),
}


@pytest.mark.parametrize("case", BAD_LINEAR)
def test_affine_rep_refuses_a_bad_linear(case):
    obj = _affine_obj()
    obj["linear"] = BAD_LINEAR[case]
    match = "non-finite" if case.endswith(("nan", "inf")) else "'linear' must be base64 of 128 bytes.*re-run effectsym synth"
    with pytest.raises(ValueError, match=match):
        affine_rep_from_obj(obj)


@pytest.mark.parametrize("dim", [7, 3.0, "three", None, True, -2])
def test_affine_rep_dim_must_be_the_constants_dim(dim):
    obj = _affine_obj(3)  # its constant is 3 x 3
    obj["dim"] = dim
    with pytest.raises(ValueError, match="'dim' must be the JSON integer 3 of its constant"):
        affine_rep_from_obj(obj)
    del obj["dim"]
    with pytest.raises(ValueError, match="'dim' must be the JSON integer 3 of its constant"):
        affine_rep_from_obj(obj)


def test_affine_rep_roundtrip():
    rep = to_affine_rep(random_symmetry(3, 11, family="affine", complement=True))
    back = affine_rep_from_obj(affine_rep_to_obj(rep))
    assert np.array_equal(back.linear, rep.linear)
    assert np.array_equal(back.constant, rep.constant)


def test_oracle_from_obj_both_forms():
    d = random_symmetry(3, 13, family="affine")
    oracle_d = oracle_from_obj(descriptor_to_obj(d))
    assert oracle_d.label == "descriptor"
    oracle_r = oracle_from_obj(affine_rep_to_obj(to_affine_rep(d)))
    assert oracle_r.label == "affine_rep"
    a = random_effect(3, 17)
    assert np.allclose(oracle_d(a), apply_symmetry(d, a))
    assert np.allclose(oracle_r(a), apply_symmetry(d, a), atol=1e-11)
    with pytest.raises(ValueError):
        oracle_from_obj({"something": 1})


PROBE_KEYS = ["projections_preserved", "order_preserved", "orthogonality_preserved",
              "orthocomplement_preserved", "samples_used", "witness_count", "failed_checks"]


SIMILARITY = np.eye(4) + 0.3 * np.triu(np.ones((4, 4)), 1)


@pytest.mark.parametrize("evaluate, failed", [
    (lambda a: 0 * a, ["orthocomplement"]),
    (lambda a: SIMILARITY @ a @ np.linalg.inv(SIMILARITY), ["projections", "order"]),
], ids=["zero", "similarity"])
def test_rejected_probe_json_keys_and_flags(evaluate, failed):
    report = recover_triple(EffectMapOracle(4, evaluate), seed=3)
    obj = report_to_obj(report)["probe"]
    assert list(obj) == PROBE_KEYS
    assert obj == probe_to_obj(report.probe)
    assert obj["failed_checks"] == failed
    for key in PROBE_KEYS[:4]:
        assert obj[key] is (key[:-len("_preserved")] not in failed)
    assert obj["witness_count"] == len(report.probe.witnesses) > 0


def test_dump_json_writes_every_non_finite_number_as_null(tmp_path):
    path = tmp_path / "r.json"
    dump_json({"a": [1.5, math.nan, {"b": math.inf}], "c": np.float64(-np.inf), "d": (2, "x")}, str(path))
    assert json.loads(path.read_text(encoding="utf-8")) == {"a": [1.5, None, {"b": None}], "c": None, "d": [2, "x"]}


def test_dump_json_writes_a_finite_document_as_strict_indented_json(tmp_path):
    path = tmp_path / "r.json"
    obj = {"φ": [0.1, 1e-300, -0.0, True, None], "n": 3}
    dump_json(obj, str(path))
    assert path.read_text(encoding="utf-8") == json.dumps(obj, indent=2, ensure_ascii=False) + "\n"


@pytest.mark.parametrize("bad", [object(), np.bool_(True), np.zeros(2)], ids=["object", "numpy-bool", "array"])
def test_dump_json_creates_no_file_when_encoding_fails(tmp_path, bad):
    path = tmp_path / "r.json"
    with pytest.raises(TypeError):
        dump_json({"ok": 1.0, "bad": bad, "nan": math.nan}, str(path))
    assert not path.exists()


def test_a_nan_scaling_sample_is_written_as_null(tmp_path):
    def nan_below_half(a):
        t = np.trace(a).real
        return np.full((4, 4), np.nan) if 0.0 < t < 0.5 else np.asarray(a, dtype=complex)

    report = recover_triple(EffectMapOracle(4, nan_below_half), seed=1)
    path = tmp_path / "r.json"
    dump_json(report_to_obj(report), str(path))
    scaling = json.loads(path.read_text(encoding="utf-8"))["scaling"]
    assert scaling["values"][:9] == [0.0, *[None] * 7, 0.5]
    assert json.loads(path.read_text(encoding="utf-8"))["max_residual"] is None
