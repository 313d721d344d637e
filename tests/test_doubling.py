"""The letter-doubling transfer: images, restrictions, audits, bounds.

The image of a window under the transfer is computed from the window's
pattern and run-class tallies alone; every test here checks that against the
doubled word itself, where the same object can be read off directly.
"""

import dataclasses
import functools
import gc
import random
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from permlex import (
    LESS,
    ClassMissing,
    DomainError,
    PrefixTooShort,
    Unsaturated,
    audit_map,
    check_bounds,
    class_profile,
    compare_shifts,
    complementary_pair,
    delta,
    delta_left,
    delta_middle,
    delta_right,
    double,
    doubling_order_case,
    factors,
    fibonacci_source,
    left_restrict_k,
    perm_set,
    perm_set_parity,
    recurrence_bound,
    subpermutation,
    thue_morse_source,
    tm_tau,
    verify_image_formulas,
)
from permlex import doubling, perms, words
from permlex.doubling import MAPS
from permlex.perms import DEFAULT_SCAN_WINDOW
from permlex.ranking import separation_depth
from permlex.words import parse_word_spec

from bruteforce import (
    naive_complement,
    naive_double,
    naive_fibonacci,
    naive_sturmian,
    naive_subperm,
    naive_thue_morse,
)

GOLDEN_IMAGE = (5, 8, 14, 13, 12, 10, 3, 6, 11, 9, 1, 2, 4, 7)


# -- run-class profiles ----------------------------------------------------------


def test_class_profile_golden(tm):
    prof = class_profile(tm, 0, 7)
    assert (prof.k0, prof.k1) == (2, 2)
    assert prof.classes == (1, 3, 2, 1, 2, 0, 1)
    assert prof.gamma == (1, 3, 2, 1)
    assert prof.partial_sums == (1, 4, 6, 7)
    assert sum(prof.gamma) == 7


def test_class_profile_requires_all_classes(tm):
    with pytest.raises(ClassMissing):
        class_profile(tm, 10, 7)
    with pytest.raises(ClassMissing):
        class_profile(tm, 0, 3)


@pytest.mark.parametrize(
    "spec, a, n, message",
    [
        ("thue-morse", 0, 2, "window [0, 2) of thue-morse lacks run class(es) [0, 2]"),
        (
            "sturmian:9",
            0,
            1,
            "window [0, 1) of sturmian:9 lacks run class(es) "
            "[0, 2, 3, 4, 5, 6, 7, 8, 9, 10]",
        ),
        # Past ten missing classes the message names the first ten and a count.
        (
            "sturmian:10",
            0,
            1,
            "window [0, 1) of sturmian:10 lacks run class(es) "
            "[0, 2, 3, 4, 5, 6, 7, 8, 9, 10] and 1 more",
        ),
        (
            "sturmian:5000",
            20000,
            3,
            "window [20000, 20003) of sturmian:5000 lacks run class(es) "
            "[0, 1, 2, 3, 4, 5, 6, 7, 8, 9] and 4988 more",
        ),
    ],
)
def test_class_missing_names_at_most_ten_classes(spec, a, n, message):
    with pytest.raises(ClassMissing) as exc:
        class_profile(parse_word_spec(spec), a, n)
    assert str(exc.value) == message


def test_run_bounds_that_keep_growing_raise(monkeypatch):
    # Each certification finds runs 100 letters longer than the last, more
    # than the 64-letter margin, so the bounds never settle.
    calls = []

    def growing(source, inspect_len):
        calls.append(inspect_len)
        k = 100 * len(calls)
        return words.RunBounds(k0=k, k1=k, certified_over=inspect_len)

    monkeypatch.setattr(doubling, "run_bounds", growing)
    with pytest.raises(DomainError) as exc:
        class_profile(thue_morse_source(), 10_000, 7)
    assert str(exc.value) == (
        "run bounds of thue-morse kept growing while certifying 10007 letters"
    )
    assert len(calls) == 9


def test_class_partial_sums_are_cumulative(tm, fib):
    for src, a, n in [(tm, 4, 11), (fib, 2, 9)]:
        prof = class_profile(src, a, n)
        total = 0
        for g, s in zip(prof.gamma, prof.partial_sums):
            total += g
            assert s == total


@pytest.mark.parametrize(
    "at", [np.array([5, 3, 1]), np.array([[4, 5, 6], [2, 3, 4]])], ids=["1d", "2d"]
)
def test_class_indices_reject_a_run_past_the_certified_bound(at):
    # Caps (2, 2) allow runs of at most two letters, and three zeros start at
    # offset 3.  The message names that offset, not the index of the entry.
    letters = np.array([1, 0, 1, 0, 0, 0, 1, 1, 0, 1], dtype=np.int8)
    with pytest.raises(DomainError, match=r"run of letter 0 at offset 3 exceeds"):
        doubling._class_indices(letters, 2, 2, at)


def _searchsorted_class_indices(letters, k0, k1, at):
    # The class read as first written: a binary search of every offset among
    # the run ends.
    ends = np.append(np.flatnonzero(letters[:-1] != letters[1:]) + 1, letters.size)
    run = ends[np.searchsorted(ends, at, side="right")] - at
    head = letters[at]
    cap = np.where(head == 0, k0, k1)
    over = np.flatnonzero(run > cap)
    if over.size:
        x = over[0]
        raise DomainError(
            f"run of letter {int(head.flat[x])} at offset {int(at.flat[x])} "
            f"exceeds the certified bound ({k0}, {k1}); certify run bounds over "
            "a longer prefix"
        )
    return np.where(head == 0, k0 - run, k0 + run - 1)


@st.composite
def class_reads(draw):
    # A binary buffer, caps, and a 2-D array of offsets: random ones, or the
    # windows [a, a+n) of _window_rows.  Either way the last offset may be
    # forced into the buffer's last run.
    size = draw(st.integers(min_value=1, max_value=120))
    letters = np.array(
        draw(st.lists(st.integers(0, 1), min_size=size, max_size=size)), dtype=np.int8
    )
    k0, k1 = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, min(8, size)))
    if draw(st.booleans()):
        cells = st.integers(0, size - 1)
        at = np.array(draw(st.lists(cells, min_size=rows * cols, max_size=rows * cols)))
        at = at.reshape(rows, cols)
    else:
        starts = st.lists(st.integers(0, size - cols), min_size=rows, max_size=rows)
        at = np.array(draw(starts))[:, None] + np.arange(cols)
    if draw(st.booleans()):
        ends = np.flatnonzero(letters[:-1] != letters[1:]) + 1
        last_run_start = int(ends[-1]) if ends.size else 0
        at[-1, -1] = draw(st.integers(last_run_start, size - 1))
    return letters, k0, k1, at


@given(class_reads())
@example((np.array([0, 1, 1, 0, 0, 0], dtype=np.int8), 3, 2, np.array([[3, 4, 5]])))
@example((np.array([1, 1, 1], dtype=np.int8), 2, 3, np.array([[0, 1], [2, 2]])))
@example((np.array([0], dtype=np.int8), 1, 1, np.array([[0]])))
def test_class_indices_match_a_binary_search_of_the_run_ends(read):
    letters, k0, k1, at = read
    try:
        expected = _searchsorted_class_indices(letters, k0, k1, at)
    except DomainError as error:
        with pytest.raises(DomainError) as raised:
            doubling._class_indices(letters, k0, k1, at)
        assert str(raised.value) == str(error)
    else:
        got = doubling._class_indices(letters, k0, k1, at)
        assert got.shape == at.shape
        assert np.array_equal(got, expected)


# -- the transfer on single windows ----------------------------------------------


def test_delta_golden_example(tm):
    res = delta(tm, 0, 7)
    assert res.base == (4, 9, 7, 2, 6, 1, 3, 8, 5)
    assert res.core == (4, 7, 6, 2, 5, 1, 3)
    assert res.core == left_restrict_k(res.base, 2)
    assert res.image == GOLDEN_IMAGE
    # a second window with the same length-9 pattern lands on the same image
    assert delta(tm, 12, 7).image == GOLDEN_IMAGE


def test_delta_image_is_the_doubled_window(tm, fib, dtm, dfib):
    for src, dsrc in [(tm, dtm), (fib, dfib)]:
        for a in (0, 3, 17, 40):
            for n in (9, 10, 14):
                res = delta(src, a, n)
                assert res.image == subpermutation(dsrc, 2 * a, 2 * n)
                assert delta_left(src, a, n) == subpermutation(dsrc, 2 * a, 2 * n - 1)
                assert delta_right(src, a, n) == subpermutation(dsrc, 2 * a + 1, 2 * n - 1)
                assert delta_middle(src, a, n) == subpermutation(dsrc, 2 * a + 1, 2 * n - 2)


def test_delta_image_is_even_start_shaped(tm):
    # entries at even offsets come before their odd partner iff the letter is 0
    res = delta(tm, 0, 9)
    letters = tm.prefix_str(9)
    for i, c in enumerate(letters):
        ascends = res.image[2 * i] < res.image[2 * i + 1]
        assert ascends == (c == "0")


def test_delta_propagates_missing_classes(tm):
    with pytest.raises(ClassMissing):
        delta(tm, 10, 7)


# -- bulk formula-vs-direct checks ------------------------------------------------


@pytest.mark.parametrize("n", [9, 10, 13])
def test_image_formulas_on_thue_morse(tm, n):
    chk = verify_image_formulas(tm, n, scan_window=400)
    assert chk.windows == 400
    assert all(v == 0 for v in chk.mismatches.values())
    assert set(chk.mismatches) == {"delta", "delta-l", "delta-r", "delta-m"}


@pytest.mark.parametrize("n", [6, 8, 11])
def test_image_formulas_on_fibonacci(fib, n):
    chk = verify_image_formulas(fib, n, scan_window=400)
    assert all(v == 0 for v in chk.mismatches.values())


# -- ordering of doubled shifts ---------------------------------------------------


@pytest.mark.parametrize(
    "pair,label",
    [((5, 0), "a"), ((3, 0), "b"), ((0, 1), "c"), ((2, 1), "d"), ((7, 1), "e")],
)
def test_order_case_labels(tm, pair, label):
    a, b = pair
    assert compare_shifts(tm, a, b)[0] == LESS
    case = doubling_order_case(tm, a, b)
    assert case.label == label
    assert case.holds


def test_order_case_chain_is_sorted_in_doubled_word(tm, dtm):
    for a, b in [(5, 0), (3, 0), (0, 1), (2, 1), (7, 1), (9, 5), (10, 2)]:
        if compare_shifts(tm, a, b)[0] != LESS:
            a, b = b, a
        chain = doubling_order_case(tm, a, b).chain
        assert set(chain) == {2 * a, 2 * a + 1, 2 * b, 2 * b + 1}
        for x, y in zip(chain, chain[1:]):
            assert compare_shifts(dtm, x, y)[0] == LESS


def test_order_case_checks_doubled_shifts_with_doubled_lookahead(fib):
    # The base shifts separate at offset 2582, within the default lookahead
    # of 4096; their doubled copies agree twice as long.
    assert compare_shifts(fib, 1597, 0) == (LESS, 2582)
    case = doubling_order_case(fib, 1597, 0)
    assert case.label == "b"
    assert case.chain == (3194, 0, 3195, 1)
    assert case.holds


def test_order_case_requires_increasing_shifts(tm):
    with pytest.raises(DomainError):
        doubling_order_case(tm, 0, 3)


# -- audits -----------------------------------------------------------------------


def test_audit_collisions_at_known_lengths(tm):
    expectations = {7: (30, 22, 8), 8: (32, 24, 8), 10: (36, 36, 0)}
    for n, (domain, image, ncoll) in expectations.items():
        rep = audit_map(tm, "delta", n)
        assert (rep.domain_size, rep.image_size, len(rep.collisions)) == (
            domain,
            image,
            ncoll,
        )
        assert rep.surjective
        assert rep.injective == (ncoll == 0)
        assert rep.left_restriction_faithful and rep.right_restriction_faithful
        assert rep.no_type1_image_pairs
        assert rep.gap_violations == 0


def test_audit_collision_records_are_complementary_pairs(tm):
    rep = audit_map(tm, "delta", 7)
    for rec in rep.collisions:
        assert rec.equal_factors and rec.equal_forms
        assert rec.pair_type is not None and rec.pair_type >= 1


def test_audit_middle_map(tm):
    rep = audit_map(tm, "delta-m", 9)
    assert (rep.domain_size, rep.image_size) == (34, 28)
    assert len(rep.collisions) == 6
    assert rep.surjective


def test_audit_fibonacci_is_injective(fib):
    for n in (6, 9, 12):
        rep = audit_map(fib, "delta", n)
        assert rep.injective and rep.surjective


@pytest.mark.parametrize("n", [9, 17])
@pytest.mark.parametrize("map_name", list(MAPS))
def test_audit_image_size_matches_parity_enumeration(tm, dtm, map_name, n):
    lead, trail = MAPS[map_name]
    rep = audit_map(tm, map_name, n)
    assert rep.surjective
    parity = "odd" if lead else "even"
    assert rep.image_size == perm_set_parity(dtm, 2 * n - lead - trail, parity).count


@pytest.mark.parametrize("n", [8, 16])
def test_transfer_reads_narrow_rows_as_wide_ones(monkeypatch, n):
    # The transfer path (restrict_rows, _images, _collision and the audit's
    # _row_groups keys) gives on the narrow unsigned rows exactly
    # what it gives on the same rows widened to int64: no unsigned
    # subtraction wraps.  Thue-Morse collides at n = 8 and 16.
    def run():
        tm = thue_morse_source()
        reports = [audit_map(tm, name, n, 512).to_dict() for name in MAPS]
        return reports, verify_image_formulas(tm, n, 512), perm_set(tm, n).members

    narrow = run()
    assert all(report["collisions"] for report in narrow[0])
    sort = doubling.window_patterns

    def wide(*args):
        return sort(*args).astype(np.int64)

    monkeypatch.setattr(perms, "window_patterns", wide)
    monkeypatch.setattr(doubling, "window_patterns", wide)
    assert run() == narrow


def test_narrow_images_keep_the_formula_check(monkeypatch):
    # The scan keeps the ranked uint8 rows, but compares the formula's int64
    # values with them first: a value off by 256 agrees once cast to uint8,
    # and must still fail the check.
    formula = doubling._images

    def off_by_256(*args):
        images = formula(*args)
        images[0, 0] += 256
        return images

    monkeypatch.setattr(doubling, "_images", off_by_256)
    with pytest.raises(AssertionError, match="doubling image formula disagrees"):
        doubling._bulk_windows(thue_morse_source(), 9, 256)


@pytest.mark.parametrize("n,dtype", [(40, np.uint8), (130, np.uint16)])
def test_kept_images_have_the_dtype_of_the_ranked_rows(n, dtype):
    # The images are the doubled rows window_patterns ranks: 2n entries, in
    # the narrowest unsigned dtype that holds 2n.
    tm = thue_morse_source()
    bulk = doubling._bulk_windows(tm, n, 256)
    depth = separation_depth(tm, n, 256 + n)
    ranked = doubling.window_patterns(
        doubling._doubled_view(tm), 2 * bulk.starts[:1], 2 * n, 2 * depth + 1
    )
    assert bulk.images.dtype == ranked.dtype == dtype
    assert bulk.images.shape[1] == 2 * n


def test_kept_scan_holds_at_most_twice_its_images():
    # Once every map is audited, a kept scan holds its images, its base
    # patterns, one class column and each map's grouping: no class matrix,
    # no copy of the cores and no restricted image rows.  At n = 130 the
    # rows are uint16, so the base patterns take half the images' bytes.
    tm = thue_morse_source()
    for map_name in MAPS:
        audit_map(tm, map_name, 130)
    bulk = doubling._bulk_windows(tm, 130, DEFAULT_SCAN_WINDOW)
    assert bulk.images.dtype == np.uint16 and len(bulk._groups) == len(MAPS)
    arrays = {id(a): a for a in vars(bulk).values() if isinstance(a, np.ndarray)}
    arrays.update((id(a), a) for groups in bulk._groups.values() for a in groups)
    assert sum(a.nbytes for a in arrays.values()) <= 2 * bulk.images.nbytes


def test_each_map_groups_its_images_once_per_scan(monkeypatch):
    # The scan audit reads the groups of delta, delta-l and delta-r, and each
    # map's audit reads its own, all grouped once: the base patterns (width
    # n + k = 11), the class-gap cores (width n = 9) and one grouping of each
    # map's images (widths 18, 17, 17, 16), however often the maps are audited.
    widths = []
    group = doubling._row_groups

    def counting(rows):
        widths.append(rows.shape[1])
        return group(rows)

    monkeypatch.setattr(doubling, "_row_groups", counting)
    tm = thue_morse_source()
    for map_name in (*MAPS, *reversed(MAPS)):
        audit_map(tm, map_name, 9, 256)
    assert sorted(widths) == [9, 11, 16, 17, 17, 18]


@pytest.mark.parametrize("map_name", list(MAPS))
def test_audit_ranks_each_doubled_window_once(monkeypatch, map_name):
    # A fresh source: a shared one may already keep this scan's windows.
    tm = thue_morse_source()
    lengths, rows = [], []
    sort = doubling.window_patterns

    def counting(source, starts, n, depth):
        lengths.append(n)
        rows.append(len(starts))
        return sort(source, starts, n, depth)

    # The base windows are sorted by the enumeration's routine, the doubled
    # ones by the transfer path.
    monkeypatch.setattr(perms, "window_patterns", counting)
    monkeypatch.setattr(doubling, "window_patterns", counting)
    audit_map(tm, map_name, 9)
    # The base windows (k = 2) and the doubled windows the formula is checked
    # against; a trimmed map restricts the doubled rows and ranks nothing.
    assert lengths == [11, 18]
    # Each sort gets one row per distinct base factor w[a, a+L) of the scan,
    # L = n + k + H(n + k) fixing both the base window and the doubled one.
    span = 11 + separation_depth(tm, 11, DEFAULT_SCAN_WINDOW + 10)
    text = naive_thue_morse(DEFAULT_SCAN_WINDOW + span)
    factors = len({text[a : a + span] for a in range(DEFAULT_SCAN_WINDOW)})
    assert rows == [factors] * len(lengths)
    assert factors < DEFAULT_SCAN_WINDOW // 10
    # Another map at the same (n, scan), and the formula check, reuse the
    # source's last scan and sort nothing.
    other = "delta-m" if map_name != "delta-m" else "delta-l"
    del lengths[:]
    audit_map(tm, other, 9)
    assert lengths == []
    assert verify_image_formulas(tm, 9, DEFAULT_SCAN_WINDOW).ok
    assert lengths == []


def _longest_run(w: str, letter: str) -> int:
    return max(len(run) for run in w.split("1" if letter == "0" else "0"))


def _assert_matches_per_window_reference(spec, w, map_name, n, scan, source=None):
    """Audit and image check of ``spec`` (or of ``source``, a word it names)
    against every scan start taken on its own, from the strings ``w`` (a
    prefix long enough for every comparison) and its doubling.  The audit's
    grouped rows must add up to the same report; collisions name the first
    start of each domain pattern."""
    source = source or parse_word_spec(spec)
    rep = audit_map(source, map_name, n, scan)
    doubled = naive_double(w)
    k0, k1 = _longest_run(w, "0"), _longest_run(w, "1")
    assert (rep.k0, rep.k1) == (k0, k1)
    lead, trail = MAPS[map_name]
    first, image, complete = {}, {}, 0
    for a in range(scan):
        first.setdefault(naive_subperm(w, a, n + max(k0, k1)), a)
        image[a] = naive_subperm(doubled, 2 * a + lead, 2 * n - lead - trail)
        classes = set()
        for x in range(a, a + n):
            run = len(w[x:]) - len(w[x:].lstrip(w[x]))
            classes.add(k0 - run if w[x] == "0" else k0 + run - 1)
        complete += classes == set(range(k0 + k1))
    starts = sorted(first.values())
    pairs = [
        (a, b)
        for i, a in enumerate(starts)
        for b in starts[i + 1 :]
        if image[a] == image[b]
    ]
    assert rep.domain_size == len(first)
    assert rep.image_size == len({image[a] for a in starts})
    assert [(c.start_a, c.start_b) for c in rep.collisions] == pairs
    # The flags compare the length-n factors and the (n+k-1)-letter forms.
    k = max(k0, k1)
    for c in rep.collisions:
        a, b = c.start_a, c.start_b
        assert c.equal_factors == (w[a : a + n] == w[b : b + n])
        assert c.equal_forms == (w[a : a + n + k - 1] == w[b : b + n + k - 1])
    assert rep.class_complete_windows == complete
    chk = verify_image_formulas(source, n, scan)
    assert chk.windows == scan
    assert chk.mismatches == dict.fromkeys(MAPS, 0)
    return rep


NAIVE_WORDS = {
    "thue-morse": naive_thue_morse,
    "fibonacci": naive_fibonacci,
    "sturmian:2": lambda length: naive_sturmian((2,), length),
    "complement(thue-morse)": lambda length: naive_complement(naive_thue_morse(length)),
}


@settings(max_examples=50, deadline=None)
@given(
    spec=st.sampled_from(sorted(NAIVE_WORDS)),
    map_name=st.sampled_from(list(MAPS)),
    n=st.integers(2, 10),
    scan=st.integers(1, 300),
)
@example(spec="thue-morse", map_name="delta", n=7, scan=300)
@example(spec="complement(thue-morse)", map_name="delta", n=8, scan=250)
@example(spec="thue-morse", map_name="delta-m", n=9, scan=300)
# Collisions with every combination of the two flags.
@example(spec="thue-morse", map_name="delta-l", n=2, scan=64)
def test_audit_matches_a_per_window_reference(spec, map_name, n, scan):
    w = NAIVE_WORDS[spec](2 * (scan + n) + 512)
    _assert_matches_per_window_reference(spec, w, map_name, n, scan)


@pytest.mark.parametrize(
    "text,scan",
    [
        ("0110100110010110" * 16 + "1", 245),
        # The factor of start 19 would run past the last letter: it stands
        # alone, while starts before it share factors.
        ("0110100110010110011010011001010", 20),
    ],
)
def test_audit_on_a_finite_word_reaches_its_last_letters(text, scan):
    spec = "explicit:" + text
    rep = _assert_matches_per_window_reference(spec, text, "delta", 5, scan)
    if scan == 245:
        assert (rep.domain_size, rep.image_size) == (16, 16)
        assert rep.class_complete_windows == 183
        assert rep.collisions == ()


def test_audit_on_a_finite_word_ranks_only_the_shifts_its_windows_hold():
    # The scan's windows hold base shifts 0..23 and doubled shifts 0..43.
    # Base shift 24 is a prefix of shift 0, so ranking it too would end the
    # audit; none of the windows compares them.
    text = naive_thue_morse(40)
    rep = _assert_matches_per_window_reference(
        "explicit:" + text, text, "delta", 3, 20
    )
    assert (rep.domain_size, rep.image_size) == (11, 8)
    # Cut after letter 24, the word ends inside the windows: two of their
    # shifts less than n + k apart agree until it ends, and the separation
    # depth says so before any letter past them is read.
    with pytest.raises(PrefixTooShort, match="among the first 24 of .* agree until"):
        audit_map(parse_word_spec("explicit:" + text[:24]), "delta", 3, 20)


@pytest.mark.parametrize("map_name", list(MAPS))
@pytest.mark.parametrize("cap", [120, 148])
def test_audit_of_a_capped_word_reads_the_doubled_copies_of_its_letters(cap, map_name):
    # The base windows and their factors fit in the capped word's letters, so
    # the doubled windows fit in their copies and the audit is the uncapped
    # one.  A doubled view cut at the base's cap, half of those copies, once
    # ended the doubled windows early.
    capped = audit_map(fibonacci_source(hard_limit=cap), map_name, 12, 64)
    assert capped == audit_map(fibonacci_source(), map_name, 12, 64)


@pytest.mark.parametrize("map_name", list(MAPS))
@pytest.mark.parametrize("spec", ["fibonacci", "sturmian:2"])
def test_audit_groups_by_the_base_factor_alone(spec, map_name):
    # The twin has named and measured far more doubled shifts than the scan
    # holds, so a grouping by the doubled word's separation depth would ask
    # for factors of 28 and 31 letters; n + k + H(n + k) is 22 and 27.  The
    # base factor alone fixes every row, so the coarser grouping changes
    # nothing.
    warm = parse_word_spec(spec)
    twin = doubling._doubled_view(warm)
    depth = separation_depth(twin, 18, (1 << 14) + 18)
    doubling.window_patterns(twin, np.arange(1 << 14), 18, depth)
    w = NAIVE_WORDS[spec](2 * (7 + 9) + 512)
    rep = _assert_matches_per_window_reference(spec, w, map_name, 9, 7, warm)
    assert rep == audit_map(parse_word_spec(spec), map_name, 9, 7)


def test_audit_collisions_name_scan_starts_not_rows():
    # Starts 40..62 repeat factors of starts 0..22, so each later row stands
    # for a later start: the collision (27, 67) is between rows 27 and 44.
    tm = naive_thue_morse(3000)
    text = tm[300:340] * 2 + tm
    rep = _assert_matches_per_window_reference(
        "explicit:" + text, text, "delta", 8, 2000
    )
    assert (27, 67) in [(c.start_a, c.start_b) for c in rep.collisions]


def test_audit_rejects_unknown_map(tm):
    for map_name, n, message in [
        ("delta-x", 9, "unknown map 'delta-x'"),
        # delta-m trims both ends of [2a, 2a+2): nothing is left to rank.
        ("delta-m", 1, "map delta-m has an empty image at half-length n=1"),
    ]:
        with pytest.raises(DomainError, match=message):
            audit_map(tm, map_name, n)


def test_audit_report_serialises(tm):
    import json

    rep = audit_map(tm, "delta", 7)
    blob = json.loads(json.dumps(rep.to_dict()))
    assert blob["domain_size"] == 30
    assert blob["injective"] is False
    assert len(blob["collisions"]) == 8


def _brute_groups(rows):
    members = {}
    for i, row in enumerate(rows.tolist()):
        members.setdefault(tuple(row), []).append(i)
    return members


@pytest.mark.parametrize("dtype,high", [(bool, 2), (np.uint8, 256), (np.uint16, 1 << 16)])
@pytest.mark.parametrize(
    "count,width,values",
    [
        (0, 3, 3),
        (1, 4, 3),
        (9, 2, 1),  # all rows equal
        (40, 3, 3),
        (200, 5, 2),
        (300, None, None),  # all rows distinct, entries over the dtype's range
    ],
)
def test_groups_match_a_dict_grouping(dtype, high, count, width, values):
    rng = np.random.default_rng(count * 7 + high)
    if values is None:
        # The digits, base high, of distinct numbers below high ** width.
        width = 9 if dtype is bool else 2
        numbers = rng.permutation(count) * (high**width // count) + 1
        rows = np.stack([numbers // high**j % high for j in range(width)], axis=1)
    else:
        rows = rng.integers(0, values, size=(count, width))
    rows = rows.astype(dtype)
    index, bounds = perms._row_groups(rows)
    members = _brute_groups(rows)
    assert sorted(index.tolist()) == list(range(count))
    assert bounds[0] == 0 and bounds[-1] == index.size
    assert (np.diff(bounds) > 0).all() and bounds.size - 1 == len(members)
    groups = [index[a:b].tolist() for a, b in zip(bounds[:-1], bounds[1:])]
    for group in groups:
        assert group == sorted(group)
    assert sorted(groups) == sorted(members.values())
    # Groups follow key order, and the distinct rows are their first rows,
    # as np.unique gives them.
    keys = perms._row_keys(rows)
    assert keys[index[bounds[:-1]]].tobytes() == np.unique(keys).tobytes()
    distinct = perms._distinct_rows(rows)
    want = rows[np.unique(keys, return_index=True)[1]]
    assert distinct.dtype == want.dtype and np.array_equal(distinct, want)
    if values == 1:
        assert groups == [list(range(count))]
    if values is None:
        assert bounds.size - 1 == count


def test_pattern_and_factor_grouping_never_calls_np_unique(monkeypatch):
    # Every row dedupe and grouping, and every factor grouping, is one of
    # perms._row_groups and ranking._factor_groups.  Fresh sources, so no
    # cached result stands in for the work.
    def unique(*args, **kwargs):
        raise AssertionError("np.unique called")

    monkeypatch.setattr(np, "unique", unique)
    tm, fib = thue_morse_source(), fibonacci_source()
    saturated = perm_set(tm, 9)
    assert saturated.saturated and saturated.count == tm_tau(9)
    assert not perm_set(tm, 9, scan_window=64, saturate=False).saturated
    finite = parse_word_spec("explicit:" + naive_thue_morse(64))
    ps = perm_set(finite, 3, scan_window=4)
    assert (ps.count, ps.scan_window, ps.saturated) == (6, 32, False)
    assert perm_set_parity(double(tm), 8, "even").count > 0
    for name in MAPS:
        rep = audit_map(thue_morse_source(), name, 8, 512)
        assert rep.collisions and rep.gap_violations == 0
    assert verify_image_formulas(tm, 8, 512).ok
    assert check_bounds(fib, 6).odd_ok
    assert factors(fib, 5) == {naive_fibonacci(400)[a : a + 5] for a in range(396)}
    assert recurrence_bound(fib, 3) > 3


# -- complexity transfer bounds ---------------------------------------------------


def test_bounds_tight_at_the_smallest_admissible_length(tm, fib):
    rep = check_bounds(tm, 9)
    assert (rep.tau_base, rep.tau_base_next) == (34, 36)
    assert (rep.tau_doubled_odd, rep.tau_doubled_even) == (68, 70)
    assert rep.odd_ok and rep.even_ok and rep.odd_tight and rep.even_tight

    rep = check_bounds(fib, 7)
    assert rep.odd_ok and rep.even_ok


def test_bounds_reject_short_lengths(tm):
    with pytest.raises(DomainError):
        check_bounds(tm, 8)


def test_bounds_need_saturated_enumerations():
    # The doubling round of the base scan reaches shift 2 * 256 + 11, past
    # the 400 letters the capped word has.
    capped = thue_morse_source(hard_limit=400)
    with pytest.raises(Unsaturated):
        check_bounds(capped, 9, scan_window=256)


# -- cache ownership ---------------------------------------------------------------


@pytest.mark.parametrize("build", [thue_morse_source, fibonacci_source])
def test_dropped_source_is_freed_without_the_cycle_collector(build):
    # Rank tables are plain data on the source, and the doubled twin points
    # back to it only weakly, so reference counting alone frees all of them.
    gc.disable()
    try:
        source = build()
        perm_set(source, 8)
        audit_map(source, "delta", 9)
        perm_set(source._doubled_twin, 12)
        refs = [weakref.ref(source), weakref.ref(source._doubled_twin)]
        del source
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


# -- the source's last transfer window ---------------------------------------------

_TRANSFER_FUNCTIONS = {
    f.__name__: f
    for f in (
        delta, delta_left, delta_right, delta_middle, audit_map, verify_image_formulas
    )
}

# Few windows and scans, so consecutive calls often share one; half-length 2
# meets too few run classes and raises ClassMissing, and delta-m has an empty
# image at n = 1.
_SCANS = st.sampled_from([16, 32])
_TRANSFER_CALLS = st.one_of(
    st.tuples(
        st.sampled_from(["delta", "delta_left", "delta_right", "delta_middle"]),
        st.sampled_from([0, 5, 17]),
        st.sampled_from([2, 5, 9]),
    ),
    st.tuples(
        st.just("audit_map"),
        st.sampled_from(list(MAPS)),
        st.sampled_from([1, 4]),
        _SCANS,
    ),
    st.tuples(st.just("verify_image_formulas"), st.sampled_from([1, 4]), _SCANS),
)


def _transfer_call(source, call):
    name, *args = call
    try:
        return _TRANSFER_FUNCTIONS[name](source, *args)
    except (ClassMissing, DomainError) as exc:
        return type(exc)


@settings(max_examples=40, deadline=None)
@given(
    spec=st.sampled_from(["thue-morse", "fibonacci", "sturmian:2"]),
    calls=st.lists(_TRANSFER_CALLS, min_size=1, max_size=12),
)
@example(
    spec="thue-morse",
    calls=[
        ("delta", 5, 9),
        ("delta_left", 5, 2),
        ("delta_middle", 5, 9),
        ("audit_map", "delta", 4, 32),
        ("audit_map", "delta-m", 4, 32),
        ("verify_image_formulas", 4, 16),
        ("audit_map", "delta-m", 1, 16),
        ("delta_right", 5, 9),
    ],
)
def test_kept_transfer_window_answers_as_a_fresh_source(spec, calls):
    shared = parse_word_spec(spec)
    for call in calls:
        assert _transfer_call(shared, call) == _transfer_call(
            parse_word_spec(spec), call
        ), call


def test_trimmed_maps_reuse_the_untrimmed_window(monkeypatch):
    tm = thue_morse_source()
    ranked = []
    rank = doubling.subpermutation

    def counting(source, a, n, max_horizon):
        ranked.append((a, n))
        return rank(source, a, n, max_horizon)

    monkeypatch.setattr(doubling, "subpermutation", counting)
    image = delta(tm, 3, 9).image
    trimmed = [f(tm, 3, 9) for f in (delta_left, delta_right, delta_middle)]
    assert ranked == [(3, 11)]
    assert trimmed == [
        perms._restrict(image, *MAPS[m]) for m in ("delta-l", "delta-r", "delta-m")
    ]


@pytest.mark.parametrize("spec", ["thue-morse", "fibonacci", "sturmian:2"])
def test_single_window_queries_extend_the_run_scan_once_per_chunk(monkeypatch, spec):
    # Shallow windows interleaved with windows ascending to 2**17, each
    # certifying run bounds past its end.  The scan reads a chunk ahead, or
    # to the end of the letters generated, so it grows about once per chunk,
    # not once or twice per deep window.
    source = parse_word_spec(spec)
    extends = []
    extend = words._RunScan.extend

    def counting(scan, w):
        if scan is source._run_scan:
            full = w.size >= scan.scanned + words._SCAN_CHUNK
            assert full or w.size == source._prefix.size
            extends.append(w.size)
        extend(scan, w)

    monkeypatch.setattr(words._RunScan, "extend", counting)
    rng = random.Random(f"run-scan:{spec}")
    shallow = [rng.randrange(4096) for _ in range(16)]
    deep = sorted(rng.randrange(4096, 1 << 17) for _ in range(16))
    for a in (a for pair in zip(shallow, deep) for a in pair):
        try:
            class_profile(source, a, rng.randint(8, 40))
        except ClassMissing:
            pass
        b = a + rng.randint(1, 320)
        if compare_shifts(source, a, b)[0] != LESS:
            a, b = b, a
        doubling_order_case(source, a, b)
    # One extend per chunk scanned, plus the few that stop short at the end
    # of a prefix not yet a chunk longer than the scan: about one per growth
    # of the prefix, and at most 2 beyond one per chunk over 40 seeds of
    # this sweep.
    scanned = source._run_scan.scanned
    assert scanned > deep[-1]
    assert len(extends) <= -(-scanned // words._SCAN_CHUNK) + 2


def test_kept_bulk_scan_is_read_only(tm):
    bulk = doubling._bulk_windows(tm, 5, 64)
    assert doubling._bulk_windows(tm, 5, 64) is bulk
    with pytest.raises(ValueError):
        bulk.images[0, 0] = 0
    with pytest.raises(TypeError):
        bulk.audit["gap_violations"] = 0


def test_scan_audit_rejects_a_domain_pattern_with_two_images(tm):
    # AuditReport.surjective is True by construction: it rests on this
    # assertion that each domain pattern has one image.
    bulk = doubling._bulk_windows(tm, 8, 64)
    rows_of = {}
    for i, row in enumerate(bulk.base_patterns.tolist()):
        rows_of.setdefault(tuple(row), []).append(i)
    i, j = next(rows for rows in rows_of.values() if len(rows) > 1)[:2]
    other = next(
        r
        for r in range(len(bulk.images))
        if not np.array_equal(bulk.images[r], bulk.images[i])
    )
    forged = bulk.images.copy()
    forged[j] = bulk.images[other]
    assert audit_map(tm, "delta", 8, 64).surjective
    with pytest.raises(AssertionError, match="one domain pattern produced two"):
        dataclasses.replace(bulk, images=forged).audit


def test_scan_audit_finds_a_forged_type1_image_pair(tm):
    # p and p with its end entries swapped form a complementary pair of type 1
    # when those entries differ by one.  Forge them as the images of two
    # domain patterns, every row of a pattern given the same image.
    bulk = doubling._bulk_windows(tm, 8, 64)
    assert bulk.audit["no_type1_image_pairs"]
    pattern_of = np.unique(perms._row_keys(bulk.base_patterns), return_inverse=True)[1]
    width = bulk.images.shape[1]
    for p, paired in [
        ((2, *range(3, width + 1), 1), True),  # ends 2 and 1
        ((3, *range(4, width + 1), 2, 1), False),  # ends 3 and 1
    ]:
        q = (p[-1], *p[1:-1], p[0])
        assert (complementary_pair(p, q) == 1) == paired
        forged = bulk.images.copy()
        forged[pattern_of == 0] = p
        forged[pattern_of == 1] = q
        audit = dataclasses.replace(bulk, images=forged).audit
        assert audit["no_type1_image_pairs"] == (not paired)


def _no_type1_by_pairs(bulk):
    # The scan audit's type-1 check as first written: type every pair of
    # distinct full images that share a form.
    full = {tuple(row) for row in bulk.images[bulk.reps].tolist()}
    by_form = {}
    for p in sorted(full):
        by_form.setdefault(perms.form_of(p), []).append(p)
    return not any(
        complementary_pair(p, q) == 1
        for group in by_form.values()
        for i, p in enumerate(group)
        for q in group[i + 1 :]
    )


@pytest.mark.parametrize("spec", ["thue-morse", "fibonacci", "sturmian:2"])
def test_scan_audit_type1_check_matches_typing_every_same_form_pair(spec):
    source = parse_word_spec(spec)
    seen = set()
    for n in range(1, 13):
        bulk = doubling._bulk_windows(source, n, 256)
        seen.add(bulk.audit["no_type1_image_pairs"])
        assert bulk.audit["no_type1_image_pairs"] == _no_type1_by_pairs(bulk)
    if spec == "thue-morse":
        # Thue-Morse has type-1 image pairs at n = 4.
        assert seen == {True, False}


def test_audit_of_two_letter_images(tm):
    # The images (1, 2) and (2, 1) are each other with the end entries
    # swapped, but their forms differ, so they are no same-form pair.
    rep = audit_map(tm, "delta", 1)
    assert rep.to_dict() == {
        "source_spec": "thue-morse",
        "map_name": "delta",
        "half_length": 1,
        "image_length": 2,
        "k0": 2,
        "k1": 2,
        "scan_window": DEFAULT_SCAN_WINDOW,
        "domain_size": 6,
        "image_size": 2,
        "collisions": [
            dict(start_a=a, start_b=b, pair_type=t, equal_factors=True, equal_forms=f)
            for a, b, t, f in [
                (0, 3, 1, True),
                (0, 5, None, False),
                (1, 2, None, False),
                (1, 11, None, False),
                (2, 11, 1, True),
                (3, 5, None, False),
            ]
        ],
        "surjective": True,
        "left_restriction_faithful": False,
        "right_restriction_faithful": False,
        "no_type1_image_pairs": True,
        "gap_pairs_checked": 0,
        "gap_violations": 0,
        "class_complete_windows": 0,
        "injective": False,
    }


@pytest.mark.parametrize("spec,n", [("thue-morse", 8), ("thue-morse", 16), ("fibonacci", 12)])
def test_audits_do_not_depend_on_their_order(spec, n):
    # Thue-Morse collides at n = 8 and 16.  The checks kept with a scan must
    # give each map the report a fresh source gives it, whichever map came
    # first.
    alone = {m: audit_map(parse_word_spec(spec), m, n).to_dict() for m in MAPS}
    shared = parse_word_spec(spec)
    forward = {m: audit_map(shared, m, n).to_dict() for m in MAPS}
    backward = {m: audit_map(shared, m, n).to_dict() for m in reversed(MAPS)}
    assert forward == backward == alone
    reversed_first = parse_word_spec(spec)
    assert {m: audit_map(reversed_first, m, n).to_dict() for m in reversed(MAPS)} == alone
    assert any(report["collisions"] for report in alone.values()) == (spec == "thue-morse")


def test_scan_checks_are_made_once_per_scan(monkeypatch):
    builds = []
    build = doubling._BulkWindows.audit.func

    def counting(bulk):
        fields = build(bulk)
        builds.append(dict(fields))
        return fields

    audit = functools.cached_property(counting)
    audit.__set_name__(doubling._BulkWindows, "audit")
    monkeypatch.setattr(doubling._BulkWindows, "audit", audit)
    tm = thue_morse_source()
    verify_image_formulas(tm, 9, 256)
    assert builds == []
    for map_name in (*MAPS, *reversed(MAPS)):
        audit_map(tm, map_name, 9, 256)
    assert len(builds) == 1
    with pytest.raises(ValueError):
        doubling._bulk_windows(tm, 9, 256).reps[0] = 1
    # Another (n, scan) is another scan; the slot keeps only the last one, so
    # returning to the first builds it again, and so does a delta in between.
    audit_map(tm, "delta-m", 10, 256)
    audit_map(tm, "delta", 9, 256)
    assert len(builds) == 3
    delta(tm, 3, 9)
    audit_map(tm, "delta-r", 9, 256)
    assert len(builds) == 4
    # Each rebuild of the first scan makes the same checks.
    assert builds[0] == builds[2] == builds[3]
