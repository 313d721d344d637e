"""Command-line interface.

Subcommands: ``gen`` (emit a prefix), ``tau`` (pattern-count table),
``delta`` (trace one window through the doubling transfer), ``audit``
(injectivity/surjectivity report for one map), ``verify`` (run a named
check suite).

Exit codes: 0 success, 1 usage or domain error, 2 verification mismatch.
``PERMLEX_SCAN_WINDOW`` and ``PERMLEX_MAX_HORIZON`` override the default
enumeration window and comparison horizon; explicit flags beat both.
``delta`` scans nothing, so it reads only the horizon.  A horizon below 1
and an empty ``tau`` length range are usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .doubling import MAP_NAMES, _doubled_view, audit_map, delta
from .errors import PermlexError
from .formulas import formula_for
from .perms import DEFAULT_SCAN_WINDOW, format_perm, perm_set, subpermutation
from .ranking import DEFAULT_MAX_HORIZON
from .suites import SUITES, run_suite
from .words import parse_word_spec


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the documented contract is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _setting(flag: int | None, name: str, fallback: int) -> int:
    """An explicit flag, else the integer in environment variable ``name``,
    else ``fallback``."""
    if flag is not None:
        return flag
    raw = os.environ.get(name)
    if raw is None:
        return fallback
    try:
        return int(raw)
    except ValueError:
        raise PermlexError(f"{name} must be an integer, got {raw!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="permlex",
        description="Permutation patterns of aperiodic binary words.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, scan=False, horizon=False):
        p.add_argument("--word", required=True, help="word spec, e.g. fibonacci, "
                       "thue-morse, sturmian:2,1, morphic:01,00, explicit:0110, "
                       "double(fibonacci)")
        p.add_argument("--output", help="write to this file instead of stdout")
        if scan:
            p.add_argument("--scan-window", type=int, default=None,
                           help="window start positions to scan "
                           f"(default {DEFAULT_SCAN_WINDOW} or PERMLEX_SCAN_WINDOW)")
        if scan or horizon:
            p.add_argument("--max-horizon", type=int, default=None,
                           help="shifts below a reach R may agree on up to "
                           "max(16*R, 4*MAX_HORIZON) letters on every path "
                           f"(default {DEFAULT_MAX_HORIZON} or PERMLEX_MAX_HORIZON)")

    gen = sub.add_parser("gen", help="emit a prefix of a word")
    add_common(gen)
    gen.add_argument("--length", type=int, required=True)

    tau = sub.add_parser("tau", help="pattern-count table with formula column")
    add_common(tau, scan=True)
    tau.add_argument("--n-min", type=int, default=2)
    tau.add_argument("--n-max", type=int, required=True)
    tau.add_argument("--format", choices=("csv", "json"), default="csv")
    tau.add_argument("--no-saturate", action="store_true",
                     help="single fixed-window scan instead of saturation")

    dlt = sub.add_parser("delta", help="trace one window through the doubling map")
    add_common(dlt, horizon=True)
    dlt.add_argument("--start", type=int, required=True)
    dlt.add_argument("--count", type=int, required=True, help="window length n")

    audit = sub.add_parser("audit", help="injectivity/surjectivity audit of one map")
    add_common(audit, scan=True)
    audit.add_argument("--map", required=True, choices=MAP_NAMES)
    audit.add_argument("--n", type=int, required=True, help="half-length")

    verify = sub.add_parser("verify", help="run a verification suite")
    verify.add_argument("--suite", required=True,
                        choices=sorted(SUITES) + ["all"])
    verify.add_argument("--n-max", type=int, default=None,
                        help="cap the suite's main length range")
    verify.add_argument("--scan-window", type=int, default=None)
    verify.add_argument("--max-horizon", type=int, default=None)
    verify.add_argument("--output", help="write to this file instead of stdout")
    return parser


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="ascii") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _resolve_horizon(args) -> int:
    horizon = _setting(args.max_horizon, "PERMLEX_MAX_HORIZON", DEFAULT_MAX_HORIZON)
    if horizon < 1:
        raise PermlexError(f"the max horizon must be at least 1, got {horizon}")
    return horizon


def _resolve_scan(args) -> tuple[int, int]:
    scan = _setting(args.scan_window, "PERMLEX_SCAN_WINDOW", DEFAULT_SCAN_WINDOW)
    return scan, _resolve_horizon(args)


def cmd_gen(args) -> int:
    source = parse_word_spec(args.word)
    _emit(source.prefix_str(args.length) + "\n", args.output)
    return 0


def cmd_tau(args) -> int:
    if args.n_min > args.n_max:
        raise PermlexError(f"--n-min {args.n_min} exceeds --n-max {args.n_max}")
    source = parse_word_spec(args.word)
    scan, horizon = _resolve_scan(args)
    rows = []
    mismatch = False
    for n in range(args.n_min, args.n_max + 1):
        counted = perm_set(
            source, n, scan, saturate=not args.no_saturate, max_horizon=horizon
        )
        expected = formula_for(source, n)
        row = {
            "n": n,
            "count": counted.count,
            "saturated": counted.saturated,
            "scan_window": counted.scan_window,
            "formula": expected,
        }
        rows.append(row)
        if expected is not None and counted.saturated and counted.count != expected:
            mismatch = True
    if args.format == "json":
        payload = {
            "word": source.spec_string(),
            "scan_window": scan,
            "max_horizon": horizon,
            "rows": rows,
        }
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = [
            f"# word={source.spec_string()} scan_window={scan} max_horizon={horizon}",
            "n,count,saturated,formula",
        ]
        for row in rows:
            formula = "" if row["formula"] is None else str(row["formula"])
            lines.append(
                f"{row['n']},{row['count']},"
                f"{'true' if row['saturated'] else 'false'},{formula}"
            )
        text = "\n".join(lines) + "\n"
    _emit(text, args.output)
    return 2 if mismatch else 0


def cmd_delta(args) -> int:
    source = parse_word_spec(args.word)
    horizon = _resolve_horizon(args)
    result = delta(source, args.start, args.count, max_horizon=horizon)
    doubled = _doubled_view(source)  # its hard limit is twice the source's
    direct = subpermutation(
        doubled, 2 * args.start, 2 * args.count, max_horizon=2 * horizon
    )
    match = direct == result.image
    lines = [
        f"word        = {source.spec_string()}",
        f"window      = [{args.start}, {args.start + args.count})",
        f"base        = {format_perm(result.base)}",
        f"core        = {format_perm(result.core)}",
        f"classes     = ({' '.join(str(c) for c in result.profile.classes)})",
        f"gamma       = ({' '.join(str(g) for g in result.profile.gamma)})",
        f"partial_sums= ({' '.join(str(s) for s in result.profile.partial_sums)})",
        f"image       = {format_perm(result.image)}",
        f"direct      = {format_perm(direct)}",
        f"verify      = {'MATCH' if match else 'MISMATCH'}",
    ]
    _emit("\n".join(lines) + "\n", args.output)
    return 0 if match else 2


def cmd_audit(args) -> int:
    source = parse_word_spec(args.word)
    scan, horizon = _resolve_scan(args)
    report = audit_map(source, args.map, args.n, scan, horizon)
    _emit(json.dumps(report.to_dict(), indent=2) + "\n", args.output)
    structurally_sound = (
        report.left_restriction_faithful
        and report.right_restriction_faithful
        and report.no_type1_image_pairs
        and report.gap_violations == 0
    )
    return 0 if structurally_sound else 2


def cmd_verify(args) -> int:
    scan, horizon = _resolve_scan(args)
    results = run_suite(args.suite, args.n_max, scan, horizon)
    lines = [r.line() for r in results]
    failed = sum(1 for r in results if not r.ok)
    lines.append(
        f"{'FAIL' if failed else 'PASS'} suite={args.suite}: "
        f"{len(results) - failed}/{len(results)} checks passed"
    )
    _emit("\n".join(lines) + "\n", args.output)
    return 2 if failed else 0


_COMMANDS = {
    "gen": cmd_gen,
    "tau": cmd_tau,
    "delta": cmd_delta,
    "audit": cmd_audit,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except PermlexError as exc:
        sys.stderr.write(f"permlex {args.command}: error: {exc}\n")
        return 1


def entry() -> None:  # console-script hook
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
