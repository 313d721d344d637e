"""Acceptance gate: one test and one printed verdict line per criterion.

Each criterion is checked end to end against enumeration of the actual
words; nothing here trusts the closed forms it is checking.  The verdict
lines bypass pytest's capture so a full run always shows all nine.
"""

import math
import time

import numpy as np
import pytest

from permlex import (
    check_type_rule,
    complement,
    compare_shifts,
    delta,
    double,
    doubled_tm_tau,
    doubling_order_case,
    expected_pair_type,
    expected_parity_cardinalities,
    factors,
    fibonacci_source,
    form_of,
    formula_for,
    left_restrict,
    middle_restrict,
    perm_set,
    perm_set_parity,
    recurrence_bound,
    restriction_type_check,
    right_restrict,
    run_bounds,
    same_form_census,
    sturmian_characteristic,
    subpermutation,
    thue_morse_source,
    tm_rho,
    tm_tau,
    verify_image_formulas,
    window_patterns,
)
from permlex.ranking import separation_depth
from permlex.suites import suite_bounds

GOLDEN_IMAGE = (5, 8, 14, 13, 12, 10, 3, 6, 11, 9, 1, 2, 4, 7)
RNG_SEED = 20260814


def _report(capsys, criterion: int, failures: list, detail: str):
    ok = not failures
    line = f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}"
    if failures:
        line += f" [{len(failures)} failure(s), first: {failures[0]}]"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def _saturated_factor_count(source, n: int) -> int:
    window, prev = 4096, None
    while True:
        count = len(factors(source, n, window_len=window))
        if prev == count:
            return count
        prev, window = count, window * 2


def _bulk_patterns(source, pairs):
    """Patterns for (start, n) pairs grouped by n, via the shared rank cache."""
    by_n = {}
    for a, n in pairs:
        by_n.setdefault(n, []).append(a)
    out = {}
    for n, starts in by_n.items():
        starts = np.asarray(sorted(set(starts)), dtype=np.int64)
        rows = window_patterns(
            source, starts, n, separation_depth(source, n, int(starts.max()) + n)
        )
        out.update({(int(a), n): tuple(int(v) for v in row)
                    for a, row in zip(starts, rows)})
    return out


def test_criterion_1_golden_examples(tm, fib, capsys):
    failures = []
    t0 = time.perf_counter()
    checks = [
        ("fib window [3,6)", subpermutation(fib, 3, 3), (2, 3, 1)),
        ("tm window [0,9)", subpermutation(tm, 0, 9), (4, 9, 7, 2, 6, 1, 3, 8, 5)),
        ("tm window [12,21)", subpermutation(tm, 12, 9), (5, 9, 7, 2, 6, 1, 3, 8, 4)),
        ("image of [0,9)", delta(tm, 0, 7).image, GOLDEN_IMAGE),
        ("image of [12,21)", delta(tm, 12, 7).image, GOLDEN_IMAGE),
    ]
    elapsed = time.perf_counter() - t0
    for label, got, want in checks:
        if got != want:
            failures.append(f"{label}: got {got}, want {want}")
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.2f}s, budget 1s")
    _report(capsys, 1, failures,
            f"golden windows and doubling images match ({elapsed * 1000:.0f} ms)")


def test_criterion_2_image_formula_oracle(tm, fib, capsys):
    failures = []
    t0 = time.perf_counter()
    windows = 0
    for source in (tm, fib):
        start = recurrence_bound(source, run_bounds(source).k)
        for n in range(start, 65):
            chk = verify_image_formulas(source, n, scan_window=2001)
            windows += chk.windows
            bad = {m: c for m, c in chk.mismatches.items() if c}
            if bad:
                failures.append(f"{source.spec_string()} n={n}: {bad}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 120.0:
        failures.append(f"took {elapsed:.1f}s, budget 120s")
    _report(capsys, 2, failures,
            f"all four maps equal direct doubled-window patterns on "
            f"{windows} windows, starts 0..2000 ({elapsed:.1f}s)")


def test_criterion_3_sturmian_pattern_counts(fib, st2, capsys):
    failures = []
    for source in (fib, st2):
        for n in range(2, 61):
            ps = perm_set(source, n)
            if not ps.saturated:
                failures.append(f"{source.spec_string()} n={n}: unsaturated")
            elif ps.count != n:
                failures.append(
                    f"{source.spec_string()} n={n}: count {ps.count} != {n}"
                )
    _report(capsys, 3, failures,
            "pattern counts equal n for sturmian:1 and sturmian:2, n=2..60")


def test_criterion_4_doubled_fibonacci_counts(dfib, capsys):
    failures = []
    counts = {}
    for n in range(2, 121):
        ps = perm_set(dfib, n)
        if not ps.saturated:
            failures.append(f"n={n}: unsaturated")
        counts[n] = ps.count
    onset = next(
        (n for n in sorted(counts)
         if all(counts[m] == m + 5 for m in range(n, 121))),
        None,
    )
    if onset is None:
        failures.append("counts never settle on n + 5")
    elif onset > 30:
        failures.append(f"onset {onset} exceeds 30")
    _report(capsys, 4, failures,
            f"doubled fibonacci counts equal n + 5 from n={onset} through 120")


def test_criterion_5_thue_morse_counts(tm, capsys):
    failures = []
    for n in range(3, 201):
        got = _saturated_factor_count(tm, n)
        if got != tm_rho(n):
            failures.append(f"rho({n}): counted {got}, formula {tm_rho(n)}")
    for n in range(6, 101):
        ps = perm_set(tm, n)
        if not ps.saturated:
            failures.append(f"tau({n}): unsaturated")
        elif ps.count != tm_tau(n):
            failures.append(f"tau({n}): counted {ps.count}, formula {tm_tau(n)}")
    _report(capsys, 5, failures,
            "thue-morse factor counts 3..200 and pattern counts 6..100 "
            "match the closed forms")


def test_criterion_6_doubled_thue_morse_counts(dtm, capsys):
    failures = []
    spots = {17: 68, 18: 70, 31: 96, 32: 100}
    for m in range(17, 129):
        ps = perm_set(dtm, m)
        if not ps.saturated:
            failures.append(f"m={m}: unsaturated")
            continue
        if ps.count != doubled_tm_tau(m):
            failures.append(
                f"m={m}: counted {ps.count}, formula {doubled_tm_tau(m)}"
            )
        if m in spots and ps.count != spots[m]:
            failures.append(f"spot m={m}: counted {ps.count}, want {spots[m]}")
    _report(capsys, 6, failures,
            "doubled thue-morse counts match for m=17..128 "
            "(spots 17->68, 18->70, 31->96, 32->100)")


def test_criterion_7_parity_cardinalities(dtm, capsys):
    failures = []
    splits = [
        ("even_full", "even", lambda n: 2 * n),
        ("even_drop_last", "even", lambda n: 2 * n - 1),
        ("odd_drop_first", "odd", lambda n: 2 * n - 1),
        ("odd_drop_both", "odd", lambda n: 2 * n - 2),
    ]
    for n in range(9, 41):
        expected = expected_parity_cardinalities(n)
        for field, parity, length_of in splits:
            ps = perm_set_parity(dtm, length_of(n), parity)
            if not ps.saturated:
                failures.append(f"{field} n={n}: unsaturated")
            elif ps.count != getattr(expected, field):
                failures.append(
                    f"{field} n={n}: counted {ps.count}, "
                    f"formula {getattr(expected, field)}"
                )
    # the exceptional lengths really are exceptions to the generic value
    for n in (15, 16, 31, 32):
        e = expected_parity_cardinalities(n)
        generic = tm_tau(n + 2)
        for field in ("even_full", "even_drop_last", "odd_drop_first"):
            if getattr(e, field) == generic:
                failures.append(f"{field} n={n} not exceptional")
    for n in (15, 16, 17, 31, 32, 33):
        if expected_parity_cardinalities(n).odd_drop_both == tm_tau(n + 2):
            failures.append(f"odd_drop_both n={n} not exceptional")
    _report(capsys, 7, failures,
            "all four parity splits match for n=9..40, including the "
            "exceptional lengths near powers of two")


def test_criterion_8_injectivity_audits(tm, fib, capsys):
    failures = []
    # exceptional lengths are 2^r - 1 and 2^r for r >= 3; below n = 5 the
    # doubling map collides for unrelated reasons (unequal forms), outside
    # the collision structure being audited here
    exceptional = {7, 8, 15, 16, 31, 32}
    from permlex import audit_map

    for n in range(5, 41):
        rep = audit_map(tm, "delta", n)
        should_collide = n in exceptional
        if should_collide and rep.injective:
            failures.append(f"tm n={n}: expected collisions, found none")
        if not should_collide and not rep.injective:
            failures.append(f"tm n={n}: unexpected collisions")
        for rec in rep.collisions:
            if not (rec.equal_forms and rec.equal_factors):
                failures.append(f"tm n={n}: collision pair differs in form")
            if rec.pair_type is None or rec.pair_type < 1:
                failures.append(f"tm n={n}: collision pair not complementary")
        if not rep.no_type1_image_pairs:
            failures.append(f"tm n={n}: two images form a type-1 pair")
        # one-sided faithfulness is claimed from the first exceptional
        # length on (2^3 - 1); below that it genuinely fails on the left
        if n >= 7 and not (
            rep.left_restriction_faithful and rep.right_restriction_faithful
        ):
            failures.append(f"tm n={n}: one-sided restriction not faithful")
        if not rep.surjective:
            failures.append(f"tm n={n}: image misses an even-start pattern")
    fib_onset = recurrence_bound(fib, run_bounds(fib).k)
    for n in range(3, 41):
        rep = audit_map(fib, "delta", n)
        if not rep.injective:
            failures.append(f"fib n={n}: unexpected collisions")
        if not rep.surjective:
            failures.append(f"fib n={n}: image misses an even-start pattern")
        if n >= fib_onset and not (
            rep.no_type1_image_pairs
            and rep.left_restriction_faithful
            and rep.right_restriction_faithful
        ):
            failures.append(f"fib n={n}: structural check failed")
    _report(capsys, 8, failures,
            "doubling map injective except at thue-morse n in "
            "{7,8,15,16,31,32}; every collision is a same-form "
            "complementary pair; images are type-1 free and restriction-faithful")


def test_criterion_9_property_suites(tm, fib, dtm, dfib, capsys):
    failures = []
    t0 = time.perf_counter()
    rng = np.random.default_rng(RNG_SEED)

    # (a) the ascent/descent word of a window pattern is the window's factor
    for source in (tm, fib):
        text = source.prefix_str(3100)
        pairs = [(int(a), int(n)) for a, n in zip(
            rng.integers(0, 3000, size=5000), rng.integers(2, 31, size=5000)
        )]
        patterns = _bulk_patterns(source, pairs)
        for (a, n), p in patterns.items():
            if form_of(p) != text[a : a + n - 1]:
                failures.append(f"(a) {source.spec_string()} [{a},{a+n})")
                break

    # (b) equal patterns imply equal underlying factors, set by set
    for source in (tm, fib, dtm, dfib):
        text = source.prefix_str(4096 + 20)
        for m in range(3, 21):
            rows = window_patterns(
                source, np.arange(4096), m, separation_depth(source, m, 4096 + m)
            )
            seen = {}
            for a, row in enumerate(rows):
                key = row.tobytes()
                factor = text[a : a + m - 1]
                if seen.setdefault(key, factor) != factor:
                    failures.append(f"(b) {source.spec_string()} m={m}")
                    break

    # (c) closed-form restrictions agree with recomputing the smaller window
    for source in (tm, fib):
        pairs = [(int(a), int(n)) for a, n in zip(
            rng.integers(0, 3000, size=5000), rng.integers(3, 25, size=5000)
        )]
        patterns = _bulk_patterns(source, pairs)
        shrunk = _bulk_patterns(
            source,
            [(a, n - 1) for a, n in pairs] + [(a + 1, n - 1) for a, n in pairs]
            + [(a + 1, n - 2) for a, n in pairs if n >= 4],
        )
        for a, n in pairs:
            p = patterns[(a, n)]
            if left_restrict(p) != shrunk[(a, n - 1)]:
                failures.append(f"(c) left {source.spec_string()} [{a},{a+n})")
                break
            if right_restrict(p) != shrunk[(a + 1, n - 1)]:
                failures.append(f"(c) right {source.spec_string()} [{a},{a+n})")
                break
            if n >= 4 and middle_restrict(p) != shrunk[(a + 1, n - 2)]:
                failures.append(f"(c) middle {source.spec_string()} [{a},{a+n})")
                break

    # (d) the one-sided restrictions commute on every enumerated pattern
    for m in range(3, 21):
        for p in perm_set(tm, m).members:
            if right_restrict(left_restrict(p)) != left_restrict(right_restrict(p)):
                failures.append(f"(d) m={m} pattern {p}")
                break

    # (e) factor count below, factorial above
    for source in (tm, fib):
        for n in range(3, 25):
            tau = perm_set(source, n).count
            rho_prev = _saturated_factor_count(source, n - 1)
            if not (rho_prev <= tau <= math.factorial(n)):
                failures.append(f"(e) {source.spec_string()} n={n}")

    # (f) complementing the word complements the patterns
    for source in (tm, fib):
        comp = complement(source)
        for n in range(2, 41):
            ours, theirs = perm_set(source, n), perm_set(comp, n)
            if not (ours.saturated and theirs.saturated):
                failures.append(f"(f) {source.spec_string()} n={n}: unsaturated")
                continue
            if ours.count != theirs.count:
                failures.append(f"(f) {source.spec_string()} n={n}: counts differ")
            if n in (5, 12):
                flipped = {tuple(n + 1 - v for v in p) for p in ours.members}
                if flipped != theirs.members:
                    failures.append(f"(f) {source.spec_string()} n={n}: sets differ")

    # (g) doubled counts obey the two-sided transfer bounds
    for result in suite_bounds(24):
        if not result.ok:
            failures.append(f"(g) {result.name}: {result.detail}")

    # (h) the five-case ordering table for doubled shifts
    tallies = {label: 0 for label in "abcde"}
    draws = 0
    while min(tallies.values()) < 1000 and draws < 200_000:
        a, b = rng.integers(0, 5000, size=2)
        draws += 1
        if a == b:
            continue
        if compare_shifts(tm, int(a), int(b))[0] > 0:
            a, b = b, a
        case = doubling_order_case(tm, int(a), int(b))
        if not case.holds:
            failures.append(f"(h) case {case.label} fails at ({a}, {b})")
            break
        if tallies[case.label] < 1000:
            tallies[case.label] += 1
    if min(tallies.values()) < 1000:
        failures.append(f"(h) could not sample 1000 pairs per case: {tallies}")

    # (i) same-form censuses contain only complementary pairs
    # (j) and every pair has the one predicted type, dropping under restriction
    for source in (tm, fib):
        for m in range(6, 41):
            ps = perm_set(source, m)
            census = same_form_census(ps)
            if census.non_complementary_pairs:
                failures.append(f"(i) {source.spec_string()} m={m}")
            rule = check_type_rule(ps, expected_pair_type(m))
            if not rule.ok:
                failures.append(f"(j) {source.spec_string()} m={m}: rule broken")
            for group in census.groups:
                for i in range(group.size):
                    for j in range(i + 1, group.size):
                        rep = restriction_type_check(
                            group.members[i], group.members[j]
                        )
                        if not rep.consistent:
                            failures.append(
                                f"(j) {source.spec_string()} m={m}: "
                                "restriction types inconsistent"
                            )

    elapsed = time.perf_counter() - t0
    if elapsed >= 600.0:
        failures.append(f"took {elapsed:.0f}s, budget 600s")
    _report(capsys, 9, failures,
            f"form recovery, restriction oracles, complement symmetry, "
            f"transfer bounds, ordering cases, and pair-type rules all hold "
            f"({elapsed:.0f}s)")
