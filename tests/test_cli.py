"""The command-line interface, driven in-process through main()."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from permlex import cli, parse_word_spec
from permlex.cli import main

from bruteforce import naive_fibonacci, naive_thue_morse

GOLDEN_IMAGE = "(5 8 14 13 12 10 3 6 11 9 1 2 4 7)"
GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN = json.loads((GOLDEN_DIR / "commands.json").read_text())
WORKFLOW = Path(__file__).parents[1] / ".github" / "workflows" / "tier1.yml"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- gen --------------------------------------------------------------------------


def test_gen_fibonacci(capsys):
    code, out, _ = run(capsys, "gen", "--word", "fibonacci", "--length", "21")
    assert code == 0
    assert out == naive_fibonacci(21) + "\n"


def test_gen_wrapped_word(capsys):
    code, out, _ = run(
        capsys, "gen", "--word", "double(complement(thue-morse))", "--length", "12"
    )
    assert code == 0
    doubled = "".join(c + c for c in naive_thue_morse(6))
    flipped = "".join("1" if c == "0" else "0" for c in doubled)
    assert out.strip() == flipped


def test_gen_beyond_explicit_word_fails_cleanly(capsys):
    code, _, err = run(capsys, "gen", "--word", "explicit:0110", "--length", "9")
    assert code == 1
    assert "error" in err


# -- tau --------------------------------------------------------------------------


def test_tau_csv_table(capsys):
    code, out, _ = run(
        capsys, "tau", "--word", "fibonacci", "--n-min", "2", "--n-max", "6"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# word=sturmian:1 scan_window=")
    assert lines[1] == "n,count,saturated,formula"
    assert lines[2:] == ["2,2,true,2", "3,3,true,3", "4,4,true,4",
                         "5,5,true,5", "6,6,true,6"]


def test_tau_json_format(capsys):
    code, out, _ = run(
        capsys, "tau", "--word", "thue-morse", "--n-max", "7", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["word"] == "thue-morse"
    rows = {row["n"]: row for row in payload["rows"]}
    assert rows[6]["count"] == 16 and rows[6]["formula"] == 16
    assert rows[2]["formula"] is None


def test_tau_no_saturate_reports_unsaturated(capsys):
    code, out, _ = run(
        capsys, "tau", "--word", "fibonacci", "--n-max", "4",
        "--no-saturate", "--scan-window", "128",
    )
    assert code == 0
    assert all(line.split(",")[2] == "false" for line in out.strip().splitlines()[2:])


def test_tau_exit_2_on_count_mismatch(capsys, monkeypatch):
    # force a wrong expectation to exercise the mismatch exit path
    monkeypatch.setattr("permlex.cli.formula_for", lambda source, n: 999)
    code, out, _ = run(capsys, "tau", "--word", "fibonacci", "--n-max", "4")
    assert code == 2


def test_tau_env_overrides_and_flag_precedence(capsys, monkeypatch):
    monkeypatch.setenv("PERMLEX_SCAN_WINDOW", "277")
    _, out, _ = run(capsys, "tau", "--word", "fibonacci", "--n-max", "3")
    assert "scan_window=277" in out.splitlines()[0]
    _, out, _ = run(
        capsys, "tau", "--word", "fibonacci", "--n-max", "3", "--scan-window", "64"
    )
    assert "scan_window=64" in out.splitlines()[0]


def test_tau_rejects_bad_env(capsys, monkeypatch):
    monkeypatch.setenv("PERMLEX_SCAN_WINDOW", "many")
    code, _, err = run(capsys, "tau", "--word", "fibonacci", "--n-max", "3")
    assert code == 1
    assert "PERMLEX_SCAN_WINDOW" in err


def test_tau_empty_length_range_is_a_usage_error(capsys):
    code, out, err = run(
        capsys, "tau", "--word", "fibonacci", "--n-min", "5", "--n-max", "3"
    )
    assert code == 1
    assert out == ""
    assert "--n-min 5" in err and "--n-max 3" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["tau", "--word", "fibonacci", "--n-max", "3"],
        ["delta", "--word", "fibonacci", "--start", "0", "--count", "5"],
        ["audit", "--word", "fibonacci", "--map", "delta", "--n", "5"],
        ["verify", "--suite", "bounds", "--n-max", "10"],
    ],
    ids=lambda argv: argv[0],
)
@pytest.mark.parametrize("flag,env", [("0", None), ("-3", None), (None, "0")])
def test_horizon_below_1_is_a_usage_error(capsys, monkeypatch, argv, flag, env):
    # Bulk ranking alone would accept any horizon, so each command checks it.
    if env is not None:
        monkeypatch.setenv("PERMLEX_MAX_HORIZON", env)
    extra = [] if flag is None else ["--max-horizon", flag]
    code, out, err = run(capsys, *argv, *extra)
    assert code == 1
    assert out == ""
    assert "max horizon must be at least 1" in err


# -- delta ------------------------------------------------------------------------


def test_delta_traces_the_golden_window(capsys):
    code, out, _ = run(
        capsys, "delta", "--word", "thue-morse", "--start", "0", "--count", "7"
    )
    assert code == 0
    assert f"image       = {GOLDEN_IMAGE}" in out
    assert f"direct      = {GOLDEN_IMAGE}" in out
    assert "verify      = MATCH" in out
    assert "classes     = (1 3 2 1 2 0 1)" in out
    assert "gamma       = (1 3 2 1)" in out


def test_delta_resolves_only_the_horizon(capsys, monkeypatch):
    # delta ranks one window and scans nothing: the scan-window variable is
    # not read, and the flag is not accepted.
    monkeypatch.setenv("PERMLEX_SCAN_WINDOW", "many")
    argv = ["delta", "--word", "thue-morse", "--start", "0", "--count", "7"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == (GOLDEN_DIR / "delta-thue-morse-0-7.txt").read_text()
    code, out, err = run(capsys, *argv, "--scan-window", "-5")
    assert code == 1
    assert out == ""
    assert "--scan-window" in err


def test_delta_checks_windows_past_half_the_hard_limit(capsys, monkeypatch):
    # The direct check ranks the doubled twin, whose hard limit is twice the
    # source's, so a window past half the source's limit still checks.
    monkeypatch.setattr(
        cli, "parse_word_spec", lambda text: parse_word_spec(text, hard_limit=4096)
    )
    code, out, _ = run(
        capsys, "delta", "--word", "thue-morse", "--start", "3000", "--count", "20"
    )
    assert code == 0
    assert "verify      = MATCH" in out


def test_delta_missing_class_is_a_domain_error(capsys):
    code, _, err = run(
        capsys, "delta", "--word", "thue-morse", "--start", "10", "--count", "7"
    )
    assert code == 1
    assert "error" in err


# -- audit ------------------------------------------------------------------------


def test_audit_json_report(capsys):
    code, out, _ = run(
        capsys, "audit", "--word", "thue-morse", "--map", "delta", "--n", "10"
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["injective"] is True and blob["surjective"] is True
    assert blob["domain_size"] == blob["image_size"] == 36


def test_audit_reports_collisions_but_stays_sound(capsys):
    code, out, _ = run(
        capsys, "audit", "--word", "thue-morse", "--map", "delta", "--n", "7"
    )
    assert code == 0  # collisions are findings, not structural failures
    blob = json.loads(out)
    assert len(blob["collisions"]) == 8
    assert blob["injective"] is False


def test_audit_rejects_unknown_map(capsys):
    code, _, err = run(
        capsys, "audit", "--word", "thue-morse", "--map", "delta-x", "--n", "7"
    )
    assert code == 1
    assert "invalid choice" in err


# -- verify -----------------------------------------------------------------------


def test_verify_suite_lines(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "bounds", "--n-max", "10")
    assert code == 0
    lines = out.strip().splitlines()
    assert all(line.startswith("PASS") for line in lines)
    assert lines[-1].startswith("PASS suite=bounds:")


def test_verify_rejects_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "--suite", "collatz")
    assert code == 1
    assert "invalid choice" in err


# -- plumbing ----------------------------------------------------------------------


def test_no_arguments_is_a_usage_error(capsys):
    assert main([]) == 1
    assert "usage" in capsys.readouterr().err


def test_bad_word_spec_exits_1(capsys):
    code, _, err = run(capsys, "gen", "--word", "tribonacci", "--length", "5")
    assert code == 1
    assert "tribonacci" in err


def test_output_goes_to_file(tmp_path, capsys):
    target = tmp_path / "table.csv"
    code, out, _ = run(
        capsys, "tau", "--word", "fibonacci", "--n-max", "4", "--output", str(target)
    )
    assert code == 0
    assert out == ""
    assert target.read_text().splitlines()[1] == "n,count,saturated,formula"


def test_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "audit", "--word", "thue-morse", "--map", "delta-m", "--n", "9")
    _, second, _ = run(capsys, "audit", "--word", "thue-morse", "--map", "delta-m", "--n", "9")
    assert first == second


@pytest.mark.parametrize("case", GOLDEN, ids=[c["stdout"] for c in GOLDEN])
def test_stdout_matches_golden(case, capsys):
    # Recorded stdout and exit codes: a refactor must leave them byte-identical.
    code, out, _ = run(capsys, *case["argv"])
    assert code == case["exit"]
    assert out == (GOLDEN_DIR / case["stdout"]).read_text()


def test_workflow_cli_steps_replay_the_goldens(tmp_path):
    # The CI workflow replays every case of commands.json in one loop, and
    # writes out no CLI run or byte comparison by hand.
    lines = WORKFLOW.read_text().splitlines()
    for line in lines:
        assert not line.strip().startswith("cmp "), line
        assert line.strip().startswith("#") or "python -m permlex.cli" not in line, line
    first = lines.index("          python -c '", lines.index("      - name: CLI workloads"))
    script = textwrap.dedent("\n".join(lines[first + 1 : lines.index("          '", first)]))
    assert '"commands.json"' in script
    # Run in a folder holding one case: it passes as recorded and fails on
    # a stdout byte or an exit code that differs.
    golden = tmp_path / "tests" / "golden"
    golden.mkdir(parents=True)
    case = GOLDEN[0]
    recorded = (GOLDEN_DIR / case["stdout"]).read_bytes()
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}

    def replay(stdout, exit_code):
        (golden / case["stdout"]).write_bytes(stdout)
        (golden / "commands.json").write_text(json.dumps([{**case, "exit": exit_code}]))
        return subprocess.run(
            [sys.executable, "-c", script], cwd=tmp_path, env=env, capture_output=True
        ).returncode

    assert replay(recorded, case["exit"]) == 0
    assert replay(recorded + b"\n", case["exit"]) != 0
    assert replay(recorded, case["exit"] + 1) != 0
