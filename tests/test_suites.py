"""The named verification suites at reduced ranges."""

import pytest

from permlex import CheckResult, PermlexError, run_suite
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
    results = suite_thue_morse(20, rho_max=40)
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
