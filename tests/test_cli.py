import base64
import json

import numpy as np
import pytest

from effectsym.cli import build_parser, main
from effectsym.serialize import affine_rep_to_obj, descriptor_from_obj, descriptor_to_obj, dump_json, load_json
from effectsym.symmetry import random_symmetry


def run(args):
    return main([str(a) for a in args])


def test_synth_writes_descriptor_and_affine_form(tmp_path):
    out = tmp_path / "d.json"
    code = run(["synth", "--dim", 3, "--seed", 7, "--kind", "unitary", "--output", out])
    assert code == 0
    d = descriptor_from_obj(load_json(out))
    assert d.kind == "unitary" and not d.complement and d.sign == 1
    affine = load_json(tmp_path / "d.affine.json")
    assert affine["dim"] == 3
    assert len(base64.b64decode(affine["linear"], validate=True)) == 8 * 9 * 9


def test_synth_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["synth", "--dim", 4, "--seed", 5, "--output", a]) == 0
    assert run(["synth", "--dim", 4, "--seed", 5, "--output", b]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("dim", [3, 16])
@pytest.mark.parametrize("family, kind, flags", [
    ("affine", "unitary", ["--complement"]),
    ("affine", "antiunitary", []),
    ("triple_effects", "unitary", []),
    ("triple_hermitian", "antiunitary", ["--sign", -1]),
])
def test_synth_files_match_the_per_basis_reference(tmp_path, per_basis, dim, family, kind, flags):
    out = tmp_path / "m.json"
    assert run(["synth", "--dim", dim, "--seed", 9, "--family", family, "--kind", kind,
                *flags, "--output", out]) == 0
    d = random_symmetry(dim, 9, family=family, kind=kind, complement="--complement" in flags,
                        sign=-1 if "--sign" in flags else 1)
    dump_json(descriptor_to_obj(d), str(tmp_path / "ref.json"))
    dump_json(affine_rep_to_obj(per_basis.affine_rep(d)), str(tmp_path / "ref.affine.json"))
    assert out.read_bytes() == (tmp_path / "ref.json").read_bytes()
    assert (tmp_path / "m.affine.json").read_bytes() == (tmp_path / "ref.affine.json").read_bytes()


def test_synth_complemented(tmp_path):
    out = tmp_path / "c.json"
    assert run(["synth", "--dim", 3, "--kind", "unitary", "--complement", "--output", out]) == 0
    assert descriptor_from_obj(load_json(out)).complement


def test_synth_invalid_flags(tmp_path):
    out = tmp_path / "x.json"
    assert run(["synth", "--dim", 2, "--family", "triple_effects", "--output", out]) == 2
    assert run(["synth", "--dim", 2, "--family", "triple_hermitian", "--output", out]) == 2
    assert run(["synth", "--dim", 3, "--family", "triple_hermitian", "--complement", "--output", out]) == 2
    assert run(["synth", "--dim", 3, "--family", "triple_effects", "--complement", "--output", out]) == 2
    assert run(["synth", "--dim", 3, "--family", "affine", "--sign", "-1", "--output", out]) == 2
    assert run(["synth", "--dim", 1, "--output", out]) == 2
    assert not out.exists()
    with pytest.raises(SystemExit) as exc:
        run(["synth", "--dim", 3, "--kind", "hadamard", "--output", out])
    assert exc.value.code == 2


def test_synth_io_failure(tmp_path):
    out = tmp_path / "missing_dir" / "d.json"
    assert run(["synth", "--dim", 3, "--output", out]) == 3


def test_recover_roundtrip_exit_zero(tmp_path):
    mapfile = tmp_path / "map.json"
    report_path = tmp_path / "report.json"
    assert run(["synth", "--dim", 3, "--seed", 11, "--kind", "antiunitary",
                "--complement", "--output", mapfile]) == 0
    code = run(["recover", "--family", "affine", "--input", mapfile,
                "--output", report_path, "--seed", 1])
    assert code == 0
    report = load_json(report_path)
    assert report["report"]["verdict"] == "canonical"
    rec = descriptor_from_obj(report["report"]["descriptor"])
    truth = descriptor_from_obj(load_json(mapfile))
    assert rec.kind == truth.kind and rec.complement == truth.complement
    assert np.allclose(rec.unitary, truth.unitary, atol=1e-7)
    assert report["version"]


def test_recover_affine_rep_input(tmp_path):
    mapfile = tmp_path / "map.json"
    assert run(["synth", "--dim", 3, "--seed", 2, "--output", mapfile]) == 0
    code = run(["recover", "--family", "affine", "--input", tmp_path / "map.affine.json",
                "--output", tmp_path / "r.json"])
    assert code == 0
    assert load_json(tmp_path / "r.json")["input_form"] == "affine_rep"


def test_reports_echo_every_flag_in_parser_order(tmp_path):
    """The config echo is the parser's namespace: these keys, in this order."""
    mapfile, out = tmp_path / "m.json", tmp_path / "r.json"
    assert run(["synth", "--dim", 3, "--seed", 5, "--output", mapfile]) == 0
    assert run(["recover", "--input", mapfile, "--seed", 2, "--output", out]) == 0
    report = load_json(out)
    assert list(report["config"]) == ["family", "input", "output", "dim", "seed", "tol", "trials"]
    assert report["config"] == {"family": "affine", "input": str(mapfile), "output": str(out),
                                "dim": None, "seed": 2, "tol": 1e-8, "trials": 100}
    assert report["input_form"] == "descriptor"
    assert run(["verify", "--dim", 3, "--seed", 2, "--trials", 5, "--output", out]) == 0
    report = load_json(out)
    assert list(report["config"]) == ["dim", "seed", "trials", "tol", "output"]
    assert report["config"] == {"dim": 3, "seed": 2, "trials": 5, "tol": 1e-8, "output": str(out)}


def test_recover_halving_map_rejected(tmp_path):
    # affine form of A -> A/2: linear = I/2, constant = 0
    mapfile = tmp_path / "half.json"
    dim = 3
    zeros = [[[0.0, 0.0]] * dim for _ in range(dim)]
    obj = {
        "dim": dim,
        "linear": base64.b64encode((0.5 * np.eye(dim * dim)).astype("<f8").tobytes()).decode("ascii"),
        "constant": {"dim": dim, "data": zeros},
    }
    mapfile.write_text(json.dumps(obj))
    code = run(["recover", "--family", "affine", "--input", mapfile,
                "--output", tmp_path / "r.json"])
    assert code == 1
    report = load_json(tmp_path / "r.json")
    assert report["report"]["verdict"] == "rejected"
    assert "projection preservation" in report["report"]["reason"]


def test_recover_malformed_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["recover", "--input", bad, "--output", tmp_path / "r.json"]) == 2
    missing = tmp_path / "nope.json"
    assert run(["recover", "--input", missing, "--output", tmp_path / "r.json"]) == 2
    notmap = tmp_path / "notmap.json"
    notmap.write_text(json.dumps({"hello": 1}))
    assert run(["recover", "--input", notmap, "--output", tmp_path / "r.json"]) == 2


@pytest.mark.parametrize("content", [b"\xff\xfe\x00\x00{}", b"[" * 200000 + b"]" * 200000],
                         ids=["not-utf8", "nested-too-deep"])
def test_recover_an_unreadable_map_file_exits_two(tmp_path, capsys, content):
    mapfile = tmp_path / "m.json"
    mapfile.write_bytes(content)  # once a traceback and exit 1, the rejected-map code
    assert run(["recover", "--input", mapfile, "--output", tmp_path / "r.json"]) == 2
    assert not (tmp_path / "r.json").exists()
    assert "cannot read map file" in capsys.readouterr().err


def test_recover_runs_the_routine_bound_in_the_recover_module(tmp_path, monkeypatch):
    from effectsym import recover
    from effectsym.recover import REJECTED, RecoveryReport

    calls = []

    def stub(phi, **kw):
        calls.append(kw)
        return RecoveryReport(REJECTED, "triple_effects", "stub")

    monkeypatch.setattr(recover, "recover_triple", stub)
    mapfile = tmp_path / "m.json"
    assert run(["synth", "--dim", 3, "--output", mapfile]) == 0
    out = tmp_path / "r.json"
    assert run(["recover", "--family", "triple_effects", "--input", mapfile, "--output", out]) == 1
    assert calls == [{"tol": 1e-8, "trials": 100, "seed": 0}]
    assert load_json(out)["report"]["reason"] == "stub"


def test_recover_refuses_a_non_integer_matrix_dim(tmp_path):
    mapfile = tmp_path / "m.json"
    assert run(["synth", "--dim", 2, "--output", mapfile]) == 0
    obj = load_json(mapfile)
    obj["u"]["dim"] = 2.7  # was read as 2
    mapfile.write_text(json.dumps(obj))
    assert run(["recover", "--input", mapfile, "--output", tmp_path / "r.json"]) == 2
    assert not (tmp_path / "r.json").exists()


def test_recover_refuses_a_bool_among_the_constant_numbers(tmp_path):
    assert run(["synth", "--dim", 2, "--seed", 4, "--output", tmp_path / "m.json"]) == 0
    mapfile = tmp_path / "m.affine.json"
    obj = load_json(mapfile)
    obj["constant"]["data"][0][0][0] = True  # numpy would read it as 1
    mapfile.write_text(json.dumps(obj))
    assert run(["recover", "--input", mapfile, "--output", tmp_path / "r.json"]) == 2
    assert not (tmp_path / "r.json").exists()


def _planted(value):
    def plant(obj):
        raw = bytearray(base64.b64decode(obj["linear"]))
        raw[8:16] = np.array([value], dtype="<f8").tobytes()
        return base64.b64encode(bytes(raw)).decode("ascii")
    return plant


RESYNTH = "re-run effectsym synth"


@pytest.mark.parametrize("field, bad, message", [
    ("linear", lambda obj: 0.5, RESYNTH),
    ("linear", lambda obj: None, RESYNTH),
    ("linear", lambda obj: np.eye(4).tolist(), RESYNTH),  # the old list form
    ("linear", lambda obj: "!" + obj["linear"][1:], RESYNTH),
    ("linear", lambda obj: obj["linear"][:-12], RESYNTH),  # 8 bytes short
    ("linear", _planted(np.nan), "non-finite"),
    ("linear", _planted(-np.inf), "non-finite"),
    ("dim", lambda obj: 7, "'dim' must be the JSON integer 2"),
    ("dim", lambda obj: "two", "'dim' must be the JSON integer 2"),
], ids=["number", "null", "list", "non-base64", "short", "nan", "-inf", "dim-7", "dim-string"])
def test_recover_refuses_a_bad_affine_map_file(tmp_path, capsys, field, bad, message):
    assert run(["synth", "--dim", 2, "--seed", 4, "--output", tmp_path / "m.json"]) == 0
    mapfile = tmp_path / "m.affine.json"
    obj = load_json(mapfile)
    obj[field] = bad(obj)
    mapfile.write_text(json.dumps(obj))
    assert run(["recover", "--input", mapfile, "--output", tmp_path / "r.json"]) == 2
    assert not (tmp_path / "r.json").exists()
    err = capsys.readouterr().err
    assert "bad map file" in err and message in err


def test_recover_refuses_a_string_complement_flag(tmp_path):
    mapfile = tmp_path / "m.json"
    assert run(["synth", "--dim", 3, "--seed", 4, "--output", mapfile]) == 0
    obj = load_json(mapfile)
    obj["complement"] = "false"  # was read as complement True, and recovered as canonical
    mapfile.write_text(json.dumps(obj))
    assert run(["recover", "--input", mapfile, "--output", tmp_path / "r.json"]) == 2
    assert not (tmp_path / "r.json").exists()


def test_recover_dim_mismatch(tmp_path):
    mapfile = tmp_path / "m.json"
    assert run(["synth", "--dim", 3, "--output", mapfile]) == 0
    assert run(["recover", "--dim", 4, "--input", mapfile, "--output", tmp_path / "r.json"]) == 2


def test_recover_invalid_config(tmp_path):
    mapfile = tmp_path / "m.json"
    assert run(["synth", "--dim", 3, "--output", mapfile]) == 0
    assert run(["recover", "--input", mapfile, "--trials", 0]) == 2
    for tol in (0, "nan", "inf"):
        assert run(["recover", "--input", mapfile, "--tol", tol, "--output", tmp_path / "r.json"]) == 2
    assert not (tmp_path / "r.json").exists()


def test_recover_triple_family_dim_guard(tmp_path):
    mapfile = tmp_path / "m.json"
    assert run(["synth", "--dim", 2, "--output", mapfile]) == 0
    assert run(["recover", "--family", "triple_effects", "--input", mapfile,
                "--output", tmp_path / "r.json"]) == 2


def test_recover_report_reproducible(tmp_path):
    mapfile = tmp_path / "m.json"
    assert run(["synth", "--dim", 3, "--seed", 21, "--output", mapfile]) == 0
    out = tmp_path / "r.json"
    assert run(["recover", "--input", mapfile, "--output", out, "--seed", 9]) == 0
    first = load_json(out)
    assert run(["recover", "--input", mapfile, "--output", out, "--seed", 9]) == 0
    second = load_json(out)
    first.pop("wall_time_s")
    second.pop("wall_time_s")
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


@pytest.mark.parametrize("command", ["recover", "verify"])
def test_stdout_report_matches_output_file(tmp_path, capsys, command):
    mapfile = tmp_path / "m.json"
    assert run(["synth", "--dim", 3, "--seed", 5, "--output", mapfile]) == 0
    args = (["recover", "--input", mapfile, "--seed", 2] if command == "recover"
            else ["verify", "--dim", 3, "--seed", 2, "--trials", 5])
    capsys.readouterr()
    assert run(args) == 0
    printed = json.loads(capsys.readouterr().out)
    out = tmp_path / "r.json"
    assert run([*args, "--output", out]) == 0
    written = load_json(out)
    for report in (printed, written):
        report.pop("wall_time_s")
        report["config"].pop("output")
    assert printed == written


def test_verify_report_reproducible(tmp_path):
    out = tmp_path / "v.json"
    assert run(["verify", "--dim", 3, "--seed", 4, "--trials", 10, "--output", out]) == 0
    first = load_json(out)
    assert run(["verify", "--dim", 3, "--seed", 4, "--trials", 10, "--output", out]) == 0
    second = load_json(out)
    first.pop("wall_time_s")
    second.pop("wall_time_s")
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


def test_verify_passes_small(tmp_path, capsys):
    out = tmp_path / "v.json"
    code = run(["verify", "--dim", 3, "--seed", 1, "--trials", 20, "--output", out])
    assert code == 0
    report = load_json(out)
    assert report["all_passed"]
    names = {s["name"] for s in report["suites"]}
    assert {"triple_closure", "affine_roundtrip", "triple_roundtrip",
            "hermitian_sign", "rejection_battery", "scaling_grid",
            "extension", "projection_probes", "phase_gauge"} <= names


def test_verify_trials_one_still_runs(tmp_path):
    assert run(["verify", "--dim", 3, "--trials", 1, "--output", tmp_path / "v.json"]) == 0


def test_verify_dim_two_skips_triple_suites(tmp_path):
    out = tmp_path / "v.json"
    assert run(["verify", "--dim", 2, "--trials", 10, "--output", out]) == 0
    report = load_json(out)
    by_name = {s["name"]: s for s in report["suites"]}
    assert by_name["triple_roundtrip"]["skipped"]
    assert by_name["hermitian_sign"]["skipped"]
    assert not by_name["affine_roundtrip"]["skipped"]


def test_verify_rejects_dim_one():
    assert run(["verify", "--dim", 1]) == 2
    assert run(["verify", "--dim", 3, "--trials", 0]) == 2
    for tol in (0, "nan", "inf"):
        assert run(["verify", "--dim", 3, "--tol", tol]) == 2


def test_verify_exits_one_on_failing_suite(tmp_path, monkeypatch):
    from effectsym import cli
    from effectsym.suites import SuiteResult

    monkeypatch.setattr(
        cli, "run_verify_suites",
        lambda dim, seed, trials, tol: [SuiteResult("stub", passed=False)],
    )
    assert run(["verify", "--dim", 3, "--output", tmp_path / "v.json"]) == 1


def test_verify_writes_a_nan_suite_detail_as_null(tmp_path, monkeypatch):
    from effectsym import suites

    monkeypatch.setattr(suites, "linearity_defect", lambda phi, stream, probes: float("nan"))
    out = tmp_path / "v.json"
    assert run(["verify", "--dim", 2, "--trials", 1, "--output", out]) == 1
    (ext,) = [r for r in json.loads(out.read_text(encoding="utf-8"))["suites"] if r["name"] == "extension"]
    assert ext["passed"] is False and ext["details"]["max_linearity_deviation"] is None


def test_recover_io_failure(tmp_path):
    mapfile = tmp_path / "m.json"
    assert run(["synth", "--dim", 3, "--output", mapfile]) == 0
    out = tmp_path / "no_dir" / "r.json"
    assert run(["recover", "--input", mapfile, "--output", out]) == 3


def test_one_parser_serves_every_call_and_keeps_nothing(tmp_path, capsys):
    """The parser is built once per process; a call's flags do not carry
    into the next call, and help and errors read the same each time."""
    parser = build_parser()
    assert build_parser() is parser
    with_dim = parser.parse_args(["recover", "--input", "m.json", "--dim", "3", "--tol", "1e-6"])
    without = parser.parse_args(["recover", "--input", "m.json"])
    assert (with_dim.dim, with_dim.tol) == (3, 1e-6) and (without.dim, without.tol) == (None, 1e-8)
    outputs = []
    for _ in range(2):
        for argv in (["--help"], ["recover", "--help"], ["verify"]):
            with pytest.raises(SystemExit) as exc:
                run(argv)
            outputs.append((exc.value.code, *capsys.readouterr()))
    assert outputs[:3] == outputs[3:]
    assert [code for code, _, _ in outputs[:3]] == [0, 0, 2]
    mapfile = tmp_path / "m.json"
    assert run(["synth", "--dim", 3, "--seed", 2, "--output", mapfile]) == 0
    reports = []
    for argv in (["--dim", 3, "--seed", 5], [], ["--dim", 3, "--seed", 5]):
        out = tmp_path / f"r{len(reports)}.json"
        assert run(["recover", "--input", mapfile, "--output", out, *argv]) == 0
        reports.append({k: v for k, v in load_json(out)["config"].items() if k != "output"})
    assert reports[0] == reports[2] and (reports[1]["dim"], reports[1]["seed"]) == (None, 0)


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        run(["--version"])
    assert exc.value.code == 0
