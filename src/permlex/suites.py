"""Verification batteries: enumerate pattern/factor counts and compare them
against the closed forms.

Each suite returns a list of :class:`CheckResult`; the CLI prints one line
per result and the test suite asserts on them, so both consume the same
computation.  All comparisons are exact — no tolerances anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .doubling import check_bounds
from .errors import PermlexError, Unsaturated
from .formulas import (
    doubled_sturmian_tau,
    doubled_tm_tau,
    expected_parity_cardinalities,
    sturmian_tau,
    tm_rho,
    tm_tau,
)
from .perms import DEFAULT_SCAN_WINDOW, perm_set, perm_set_parity
from .ranking import DEFAULT_MAX_HORIZON, _factor_groups
from .words import (
    WordSource,
    double,
    fibonacci_source,
    run_bounds,
    recurrence_bound,
    sturmian_characteristic,
    thue_morse_source,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return f"{status} {self.name}" + (f": {self.detail}" if self.detail else "")


def _count_check(
    name: str,
    lengths: range,
    enumerated: Callable[[int], int],
    expected: Callable[[int], int],
) -> CheckResult:
    if not lengths:
        return CheckResult(name, False, "no lengths to check")
    mismatches = []
    for n in lengths:
        got, want = enumerated(n), expected(n)
        if got != want:
            mismatches.append((n, got, want))
    if mismatches:
        n, got, want = mismatches[0]
        return CheckResult(
            name,
            False,
            f"{len(mismatches)} mismatches in n={lengths.start}..{lengths.stop - 1}; "
            f"first at n={n}: {got} != {want}",
        )
    return CheckResult(
        name,
        True,
        f"n={lengths.start}..{lengths.stop - 1}: all {len(lengths)} counts match",
    )


def _saturated_count(
    source: WordSource,
    n: int,
    scan_window: int,
    max_horizon: int,
    parity: str | None = None,
) -> int:
    """Saturated pattern count at length ``n``, of all starts or of the
    ``parity`` starts of a doubled word."""
    if parity is None:
        result = perm_set(source, n, scan_window, max_horizon=max_horizon)
    else:
        result = perm_set_parity(
            source, n, parity, scan_window, max_horizon=max_horizon
        )
    if not result.saturated:
        raise Unsaturated(
            f"enumeration of {source.spec_string()} at n={n} did not saturate"
        )
    return result.count


def _saturated_factor_count(source: WordSource, n: int, start_window: int) -> int:
    window, count = max(start_window, 2 * n), None
    while True:
        # ``len(factors(source, n, window))``, counted without strings.
        grown = _factor_groups(source, np.arange(window - n + 1), n)[1].size - 1
        if grown == count:
            return count
        window, count = 2 * window, grown


def suite_sturmian(
    n_max: int = 60,
    scan_window: int = DEFAULT_SCAN_WINDOW,
    max_horizon: int = DEFAULT_MAX_HORIZON,
) -> list[CheckResult]:
    """Pattern counts of Sturmian words equal the length itself."""
    results = []
    for source in (fibonacci_source(), sturmian_characteristic((2,))):
        results.append(
            _count_check(
                f"sturmian-tau[{source.spec_string()}]",
                range(2, n_max + 1),
                lambda n, s=source: _saturated_count(s, n, scan_window, max_horizon),
                sturmian_tau,
            )
        )
    return results


def suite_doubled_sturmian(
    n_max: int = 120,
    scan_window: int = DEFAULT_SCAN_WINDOW,
    max_horizon: int = DEFAULT_MAX_HORIZON,
) -> list[CheckResult]:
    """Doubled Sturmian pattern counts hit n + 2k + 1 from a small onset on."""
    results = []
    cases = [
        (fibonacci_source(), n_max),
        # second directive as independent evidence for the k-dependence
        (sturmian_characteristic((2,)), min(n_max, 60)),
    ]
    for base, top in cases:
        k = run_bounds(base).k
        doubled = double(base)
        counts = {
            n: _saturated_count(doubled, n, scan_window, max_horizon)
            for n in range(2, top + 1)
        }
        onset = None
        for n in sorted(counts):
            if all(
                counts[m] == doubled_sturmian_tau(m, k)
                for m in range(n, top + 1)
            ):
                onset = n
                break
        name = f"doubled-sturmian-tau[{base.spec_string()}]"
        if onset is None:
            results.append(
                CheckResult(name, False, f"count never settles on n+{2 * k + 1}")
            )
        else:
            results.append(
                CheckResult(
                    name,
                    onset <= 30,
                    f"k={k}: counts equal n+{2 * k + 1} from onset n={onset} "
                    f"through {top}",
                )
            )
    return results


def suite_thue_morse(
    n_max: int = 100,
    rho_max: int | None = None,
    scan_window: int = DEFAULT_SCAN_WINDOW,
    max_horizon: int = DEFAULT_MAX_HORIZON,
) -> list[CheckResult]:
    """Thue-Morse factor and pattern counts match their closed forms."""
    tm = thue_morse_source()
    results = [
        _count_check(
            "thue-morse-rho",
            range(3, (rho_max or 2 * n_max) + 1),
            lambda n: _saturated_factor_count(tm, n, scan_window),
            tm_rho,
        ),
        _count_check(
            "thue-morse-tau",
            range(6, n_max + 1),
            lambda n: _saturated_count(tm, n, scan_window, max_horizon),
            tm_tau,
        ),
    ]
    return results


def suite_doubled_thue_morse(
    m_max: int = 128,
    parity_n_max: int = 40,
    scan_window: int = DEFAULT_SCAN_WINDOW,
    max_horizon: int = DEFAULT_MAX_HORIZON,
) -> list[CheckResult]:
    """Doubled Thue-Morse counts, including the parity-split breakdown."""
    tm = thue_morse_source()
    doubled = double(tm)
    results = [
        _count_check(
            "doubled-thue-morse-tau",
            range(17, m_max + 1),
            lambda m: _saturated_count(doubled, m, scan_window, max_horizon),
            doubled_tm_tau,
        )
    ]

    parity_lengths = range(9, parity_n_max + 1)
    splits = [
        ("even_full", "even", lambda n: 2 * n),
        ("even_drop_last", "even", lambda n: 2 * n - 1),
        ("odd_drop_first", "odd", lambda n: 2 * n - 1),
        ("odd_drop_both", "odd", lambda n: 2 * n - 2),
    ]
    for field_name, parity, length_of in splits:
        results.append(
            _count_check(
                f"doubled-thue-morse-parity[{field_name}]",
                parity_lengths,
                lambda n, p=parity, lo=length_of: _saturated_count(
                    doubled, lo(n), scan_window, max_horizon, p
                ),
                lambda n, f=field_name: getattr(
                    expected_parity_cardinalities(n), f
                ),
            )
        )

    # The parity split must recombine into the totals.
    def recombined(m: int) -> int:
        if m % 2:
            n = (m + 1) // 2
            split = expected_parity_cardinalities(n)
            return split.even_drop_last + split.odd_drop_first
        n = m // 2
        return (
            expected_parity_cardinalities(n).even_full
            + expected_parity_cardinalities(n + 1).odd_drop_both
        )

    results.append(
        _count_check(
            "doubled-thue-morse-parity-recombination",
            range(19, 2 * parity_n_max - 1),
            recombined,
            doubled_tm_tau,
        )
    )
    return results


def suite_bounds(
    n_max: int = 24,
    scan_window: int = DEFAULT_SCAN_WINDOW,
    max_horizon: int = DEFAULT_MAX_HORIZON,
) -> list[CheckResult]:
    """Doubled pattern counts never exceed the two-sided transfer bounds."""
    results = []
    for source in (thue_morse_source(), fibonacci_source()):
        k = run_bounds(source).k
        start = recurrence_bound(source, k)
        failures = []
        tight = 0
        for n in range(start, n_max + 1):
            report = check_bounds(source, n, scan_window, max_horizon)
            if not (report.odd_ok and report.even_ok):
                failures.append(n)
            tight += int(report.odd_tight) + int(report.even_tight)
        name = f"doubling-bounds[{source.spec_string()}]"
        if start > n_max:
            results.append(CheckResult(name, False, "no lengths to check"))
        elif failures:
            results.append(
                CheckResult(name, False, f"bound violated at n={failures}")
            )
        else:
            results.append(
                CheckResult(
                    name,
                    True,
                    f"n={start}..{n_max}: all bounds hold "
                    f"({tight}/{2 * (n_max - start + 1)} tight)",
                )
            )
    return results


SUITES: dict[str, Callable[..., list[CheckResult]]] = {
    "sturmian": suite_sturmian,
    "doubled-sturmian": suite_doubled_sturmian,
    "thue-morse": suite_thue_morse,
    "doubled-thue-morse": suite_doubled_thue_morse,
    "bounds": suite_bounds,
}


def run_suite(
    name: str,
    n_max: int | None = None,
    scan_window: int = DEFAULT_SCAN_WINDOW,
    max_horizon: int = DEFAULT_MAX_HORIZON,
) -> list[CheckResult]:
    """Run one suite (or 'all'), capping its main length range at ``n_max``."""
    if name == "all":
        results = []
        for suite_name in SUITES:
            results.extend(run_suite(suite_name, n_max, scan_window, max_horizon))
        return results
    if name not in SUITES:
        raise PermlexError(
            f"unknown suite {name!r}; expected one of {sorted(SUITES)} or 'all'"
        )
    suite = SUITES[name]
    if n_max is None:
        return suite(scan_window=scan_window, max_horizon=max_horizon)
    return suite(n_max, scan_window=scan_window, max_horizon=max_horizon)
