"""The benchmark's own tests: its checker must count a wrong expectation
as a failure, and ops must fail exactly where the known defects are."""

import random
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402


def test_checker_counts_wrong_expectations_as_failures():
    assert workloads.checker_self_check(workloads.load_program()) is None


def test_reject_mix_fails_exactly_on_the_known_nan_defect():
    ops = workloads.build_reject_mix(workloads.load_program(), random.Random(0))
    failures = {op.label: workloads.execute(op)[1].failure for op in ops}
    failing = {label for label, why in failures.items() if why is not None}
    nan_ops = {op.label for op in ops if op.label.startswith(("nan-affine", "nan-triple_effects"))}
    assert failing == nan_ops
    assert all(op.excused(failures[op.label]) for op in ops if op.label in failing)


# A verify seed at which phase_gauge_suite fails at dim 3 from rounding noise alone.
PHASE_GAUGE_SEED = 417547992


def test_verify_excuses_only_the_phase_gauge_rounding_defect(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    op = workloads.cli_verify_op(workloads.load_program(), 3, PHASE_GAUGE_SEED, "d3")
    why = workloads.execute(op)[1].failure
    assert why is not None and why.startswith("exit code 1; suites failed: ['phase_gauge']")
    assert op.excused(why)
    for other in (
        why.replace("['phase_gauge']", "['triple_closure', 'phase_gauge']"),
        why.replace("exit code 1", "exit code 3"),
        "exit code 1; suites failed: ['phase_gauge']: ['affine, theta=2.0: map is not affine']",
    ):
        assert not op.excused(other)
