"""The named verification suites at reduced ranges."""

import dataclasses

import pytest

from permlex import CheckResult, PermlexError, run_suite, suites
from permlex.cli import main
from permlex.suites import (
    suite_doubled_sturmian,
    suite_doubled_thue_morse,
    suite_sturmian,
    suite_thue_morse,
)


def test_check_result_lines():
    assert CheckResult("x", True, "fine").line() == "PASS x: fine"
    assert CheckResult("x", False, "broke").line() == "FAIL x: broke"


def test_run_suite_rejects_unknown_names():
    with pytest.raises(PermlexError):
        run_suite("collatz")


def test_sturmian_suite():
    results = suite_sturmian(20)
    assert {r.name for r in results} == {
        "sturmian-tau[sturmian:1]",
        "sturmian-tau[sturmian:2]",
    }
    assert all(r.ok for r in results)


def test_doubled_sturmian_suite_reports_onsets():
    results = suite_doubled_sturmian(30)
    assert all(r.ok for r in results)
    by_name = {r.name: r.detail for r in results}
    assert "onset n=6" in by_name["doubled-sturmian-tau[sturmian:1]"]
    assert "onset n=14" in by_name["doubled-sturmian-tau[sturmian:2]"]
    assert "n+5" in by_name["doubled-sturmian-tau[sturmian:1]"]
    assert "n+7" in by_name["doubled-sturmian-tau[sturmian:2]"]


def test_thue_morse_suite():
    results = suite_thue_morse(20)
    assert {r.name for r in results} == {"thue-morse-rho", "thue-morse-tau"}
    assert all(r.ok for r in results)


def test_doubled_thue_morse_suite():
    results = suite_doubled_thue_morse(20, parity_n_max=12)
    names = {r.name for r in results}
    assert "doubled-thue-morse-tau" in names
    assert "doubled-thue-morse-parity[odd_drop_both]" in names
    assert "doubled-thue-morse-parity-recombination" in names
    assert all(r.ok for r in results)


def test_run_suite_dispatch_caps_the_range():
    results = run_suite("bounds", 12)
    assert all(r.ok for r in results)
    assert any("n=9..12" in r.detail for r in results)
    assert any("n=6..12" in r.detail for r in results)


@pytest.mark.parametrize("suite, n_max", [("thue-morse", 3), ("bounds", 5)])
def test_empty_length_range_fails(suite, n_max, capsys):
    results = run_suite(suite, n_max)
    empty = [r for r in results if "no lengths to check" in r.detail]
    assert empty and not any(r.ok for r in empty)
    assert main(["verify", "--suite", suite, "--n-max", str(n_max)]) == 2
    assert "FAIL" in capsys.readouterr().out


def _verify_fails(suite, n_max, lines, capsys):
    assert main(["verify", "--suite", suite, "--n-max", str(n_max)]) == 2
    out = capsys.readouterr().out.splitlines()
    for line in lines:
        assert line in out


def test_count_mismatch_fails_verify(monkeypatch, capsys):
    real = suites.tm_tau
    monkeypatch.setattr(suites, "tm_tau", lambda n: real(n) + (n == 7))
    _verify_fails(
        "thue-morse",
        10,
        ["FAIL thue-morse-tau: 1 mismatches in n=6..10; first at n=7: 18 != 19"],
        capsys,
    )


def test_unsettled_doubled_sturmian_count_fails_verify(monkeypatch, capsys):
    monkeypatch.setattr(suites, "doubled_sturmian_tau", lambda n, k: -1)
    _verify_fails(
        "doubled-sturmian",
        10,
        [
            "FAIL doubled-sturmian-tau[sturmian:1]: count never settles on n+5",
            "FAIL doubled-sturmian-tau[sturmian:2]: count never settles on n+7",
        ],
        capsys,
    )


def test_violated_bound_fails_verify(monkeypatch, capsys):
    real = suites.check_bounds

    def violated(source, n, *args):
        report = real(source, n, *args)
        return dataclasses.replace(report, odd_ok=report.odd_ok and n != 10)

    monkeypatch.setattr(suites, "check_bounds", violated)
    _verify_fails(
        "bounds",
        10,
        [
            "FAIL doubling-bounds[thue-morse]: bound violated at n=[10]",
            "FAIL doubling-bounds[sturmian:1]: bound violated at n=[10]",
        ],
        capsys,
    )
