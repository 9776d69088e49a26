from dataclasses import replace

from effectsym import suites
from effectsym.recover import recover_triple_hermitian


def test_roundtrip_flag_mismatch_fails_the_suite(monkeypatch):
    def sign_flipped(phi, **kw):
        report = recover_triple_hermitian(phi, **kw)
        if not report.canonical:
            return report
        return replace(report, descriptor=replace(report.descriptor, sign=-report.descriptor.sign))

    monkeypatch.setattr(suites, "recover_triple_hermitian", sign_flipped)
    result = suites.hermitian_sign_suite(3, seed=1, descriptors=2)
    assert not result.passed
    assert result.details["failures"] == [
        "descriptor 0: got kind unitary, sign -1",
        "descriptor 1: got kind antiunitary, sign -1",
    ]
    assert result.details["max_unitary_distance"] == 0.0
