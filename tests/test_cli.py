import json

import numpy as np
import pytest

from effectsym.cli import main
from effectsym.serialize import descriptor_from_obj, load_json


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
    assert len(affine["linear"]) == 9


def test_synth_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["synth", "--dim", 4, "--seed", 5, "--output", a]) == 0
    assert run(["synth", "--dim", 4, "--seed", 5, "--output", b]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_synth_complemented(tmp_path):
    out = tmp_path / "c.json"
    assert run(["synth", "--dim", 3, "--kind", "unitary", "--complement", "--output", out]) == 0
    assert descriptor_from_obj(load_json(out)).complement


def test_synth_invalid_flags(tmp_path):
    out = tmp_path / "x.json"
    assert run(["synth", "--dim", 2, "--family", "triple_effects", "--output", out]) == 2
    assert run(["synth", "--dim", 3, "--family", "triple_effects", "--complement", "--output", out]) == 2
    assert run(["synth", "--dim", 3, "--family", "affine", "--sign", "-1", "--output", out]) == 2
    assert run(["synth", "--dim", 1, "--output", out]) == 2
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


def test_recover_halving_map_rejected(tmp_path):
    # affine form of A -> A/2: linear = I/2, constant = 0
    mapfile = tmp_path / "half.json"
    dim = 3
    zeros = [[[0.0, 0.0]] * dim for _ in range(dim)]
    obj = {
        "dim": dim,
        "linear": (0.5 * np.eye(dim * dim)).tolist(),
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


def test_recover_io_failure(tmp_path):
    mapfile = tmp_path / "m.json"
    assert run(["synth", "--dim", 3, "--output", mapfile]) == 0
    out = tmp_path / "no_dir" / "r.json"
    assert run(["recover", "--input", mapfile, "--output", out]) == 3


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        run(["--version"])
    assert exc.value.code == 0
