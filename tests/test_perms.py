"""Window patterns, restrictions, and pattern-set enumeration."""

import functools
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from permlex import (
    GREATER,
    LESS,
    DomainError,
    HorizonExhausted,
    LengthTooSmall,
    LimitExceeded,
    MorphicSource,
    PermlexError,
    PrefixTooShort,
    WrongSource,
    audit_map,
    compare_shifts,
    double,
    explicit_source,
    fibonacci_source,
    form_of,
    format_perm,
    left_restrict,
    left_restrict_k,
    middle_restrict,
    parse_perm,
    perm_set,
    perm_set_parity,
    right_restrict,
    sturmian_characteristic,
    subpermutation,
    thue_morse_source,
    verify_image_formulas,
    window_patterns,
)
from permlex import perms as perms_module
from permlex import ranking
from permlex.doubling import MAPS
from permlex.formulas import doubled_tm_tau
from permlex.perms import DEFAULT_SCAN_WINDOW, restrict_rows
from permlex.ranking import separation_depth

from bruteforce import (
    naive_cmp,
    naive_double,
    naive_fibonacci,
    naive_left,
    naive_perm_set,
    naive_right,
    naive_separation_depth,
    naive_sturmian,
    naive_subperm,
    naive_thue_morse,
)

perms = st.integers(min_value=3, max_value=12).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))
)


# -- shift comparison -----------------------------------------------------------


def test_compare_shifts_examples(tm, fib):
    assert compare_shifts(tm, 0, 3) == (GREATER, 2)
    assert compare_shifts(tm, 3, 0) == (LESS, 2)
    assert compare_shifts(fib, 2, 1) == (LESS, 0)


def test_compare_shifts_against_scan(tm):
    text = naive_thue_morse(5000)
    for a, b in [(0, 1), (7, 19), (100, 350), (512, 513), (5, 1000)]:
        ordering, witness = compare_shifts(tm, a, b)
        assert ordering == naive_cmp(text, a, b)
        assert text[a + witness] != text[b + witness]
        assert text[a : a + witness] == text[b : b + witness]


def test_compare_shifts_rejects_bad_positions(tm):
    with pytest.raises(DomainError):
        compare_shifts(tm, 4, 4)
    with pytest.raises(DomainError):
        compare_shifts(tm, -1, 4)


def test_compare_shifts_on_periodic_word():
    periodic = MorphicSource({0: (0, 1), 1: (0, 1)})
    with pytest.raises(HorizonExhausted):
        compare_shifts(periodic, 0, 2, max_horizon=64)


def test_compare_shifts_on_finite_word():
    with pytest.raises(PrefixTooShort):
        compare_shifts(explicit_source("010010"), 0, 3)


@pytest.mark.parametrize("a,b,past", [(3, 4, 4), (9, 10, 10), (4, 0, 4)])
def test_compare_shifts_names_a_shift_past_the_end(a, b, past):
    # "0110" has no letter at 4 or later: no offset is compared, and the
    # message names the shift rather than a negative offset.
    message = rf"shift at {past} starts past all 4 letters"
    with pytest.raises(PrefixTooShort, match=message):
        compare_shifts(explicit_source("0110"), a, b)


def test_compare_shifts_reads_a_short_slice_first():
    # The shifts differ at once, so the prefix grows only to the next power
    # of two past the first 64-letter slice, not past the full horizon.
    tm = thue_morse_source()
    compare_shifts(tm, 130000, 130001)
    assert tm._prefix.size == 131072


# -- subpermutations ------------------------------------------------------------


def test_subpermutation_golden_windows(tm, fib):
    assert subpermutation(fib, 3, 3) == (2, 3, 1)
    assert subpermutation(tm, 0, 9) == (4, 9, 7, 2, 6, 1, 3, 8, 5)
    assert subpermutation(tm, 12, 9) == (5, 9, 7, 2, 6, 1, 3, 8, 4)


def test_subpermutation_against_naive(tm, fib):
    tm_text = naive_thue_morse(5000)
    fib_text = naive_fibonacci(5000)
    for a in (0, 1, 13, 64, 187, 300):
        for n in (1, 2, 3, 7, 12):
            assert subpermutation(tm, a, n) == naive_subperm(tm_text, a, n)
            assert subpermutation(fib, a, n) == naive_subperm(fib_text, a, n)


def test_subpermutation_of_one_shift_needs_that_shift(tm):
    # Length 1 goes through the ranking engine like every other length: a
    # window past the end of a finite word has no pattern.
    word = explicit_source("0110")
    assert subpermutation(word, 3, 1) == (1,)
    for a, n in [(4, 1), (3, 2)]:
        with pytest.raises(PrefixTooShort):
            subpermutation(word, a, n)
    assert subpermutation(tm, 100000, 1) == (1,)


def test_subpermutation_validation(tm):
    with pytest.raises(DomainError):
        subpermutation(tm, 0, 0)
    with pytest.raises(DomainError):
        subpermutation(tm, -2, 4)


# -- windows whose shifts tie past the first 64 letters --------------------------

#: Words whose nearby shifts agree on long runs, with their string oracles.
_LONG_TIES = {
    "sturmian:60,1": (
        lambda: sturmian_characteristic((60, 1)),
        lambda m: naive_sturmian((60, 1), m),
    ),
    "sturmian:5000": (
        lambda: sturmian_characteristic((5000,)),
        lambda m: naive_sturmian((5000,), m),
    ),
    "fibonacci": (fibonacci_source, naive_fibonacci),
    "double(fibonacci)": (
        lambda: double(fibonacci_source()),
        lambda m: naive_double(naive_fibonacci(m)),
    ),
}

#: Letters the string oracle compares from each shift: more than two shifts
#: less than 300 apart and below 60,300 agree on in any of these words.
_ORACLE_SPAN = 20_000


@functools.cache
def _long_tie_word(name):
    build, text = _LONG_TIES[name]
    return build(), text(60_300 + _ORACLE_SPAN)


def _sorted_ranks(keys):
    # 1-based rank of each key under string order.
    ranks = [0] * len(keys)
    for rank, i in enumerate(sorted(range(len(keys)), key=keys.__getitem__), 1):
        ranks[i] = rank
    return tuple(ranks)


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(_LONG_TIES)),
    a=st.integers(0, 59_999),
    n=st.integers(1, 300),
)
# Shifts on both sides of a 1 tie at 64 letters, some for about 5000 more.
@example(name="sturmian:5000", a=54833, n=266)
@example(name="sturmian:5000", a=19856, n=281)
@example(name="sturmian:60,1", a=38307, n=207)
@example(name="fibonacci", a=44161, n=265)
@example(name="double(fibonacci)", a=33788, n=215)
def test_subpermutation_against_string_sort_past_64_letters(name, a, n):
    source, text = _long_tie_word(name)
    keys = [text[a + i : a + i + _ORACLE_SPAN] for i in range(n)]
    assert len(set(keys)) == n, "the oracle's span does not order the window"
    horizons = []
    counted = ranking.shift_ranks

    def counting(*args):
        horizons.append(args[2])
        return counted(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ranking, "shift_ranks", counting)
        assert subpermutation(source, a, n) == _sorted_ranks(keys)
    # A tie sets the next horizon past a tied pair's agreement, so the
    # windows of sturmian:5000 take at most three sorts, not one per doubling.
    assert horizons and horizons[0] == 64
    if name == "sturmian:5000":
        assert len(horizons) <= 3, horizons


@pytest.mark.parametrize(
    "name,a,n", [("sturmian:5000", 54833, 266), ("fibonacci", 44161, 265)]
)
def test_subpermutation_sorts_once_per_tie_round(name, a, n, monkeypatch):
    # A round that ties takes its tied group from the sort that found the
    # tie, so the window makes exactly the byte sorts of its shift_ranks
    # calls replayed alone: no second sort names the group.
    source = _long_tie_word(name)[0]
    calls, sorts = [], []
    ranked = ranking.shift_ranks

    def recording(letters, positions, horizon):
        calls.append((letters.copy(), positions, horizon))
        return ranked(letters, positions, horizon)

    def counting(*args, **kwargs):
        sorts.append(1)
        return sorted(*args, **kwargs)

    # A module global shadows the builtin inside ranking.
    monkeypatch.setattr(ranking, "sorted", counting, raising=False)
    monkeypatch.setattr(ranking, "shift_ranks", recording)
    subpermutation(source, a, n)
    in_window = len(sorts)
    sorts.clear()
    for args in calls:
        ranked(*args)
    assert len(calls) > 1, "the window has no tie round"
    assert in_window == len(sorts)


#: Finite words of long runs or short periods: a window's shifts tie past 64
#: letters, and often agree until the last letter.
_RUN_WORDS = st.one_of(
    st.lists(
        st.tuples(st.sampled_from("01"), st.integers(1, 200)), min_size=1, max_size=5
    ).map(lambda runs: "".join(letter * count for letter, count in runs)),
    st.builds(
        lambda period, length, tail: (period * 300)[:length] + tail,
        st.sampled_from(["01", "001", "0110", "01001"]),
        st.integers(1, 600),
        st.sampled_from(["", "0", "1"]),
    ),
)


@settings(max_examples=80, deadline=None)
@given(
    case=_RUN_WORDS.flatmap(
        lambda text: st.integers(0, len(text) - 1).flatmap(
            lambda a: st.tuples(
                st.just(text), st.just(a), st.integers(1, len(text) - a)
            )
        )
    )
)
# Shifts 100 and 102 agree until the last letter.
@example(case=("01" * 150, 100, 5))
# Every shift of the window begins with 64 zeros; 100 letters order them.
@example(case=("0" * 100 + "1" + "0" * 100 + "1", 0, 30))
# Shifts 0 and 1 tie past 64 letters, and shifts 102 and 103 agree until
# the last letter.
@example(case=("0" * 100 + "1" + "0" * 80, 0, 104))
def test_subpermutation_on_finite_words_against_string_sort(case):
    # The whole rest of the word orders the window, unless one shift's rest
    # begins another's: then only the word's end orders them, and the
    # window has no pattern.
    text, a, n = case
    tails = [text[a + i :] for i in range(n)]
    order = sorted(range(n), key=tails.__getitem__)
    if any(tails[j].startswith(tails[i]) for i, j in zip(order, order[1:])):
        with pytest.raises(PrefixTooShort):
            subpermutation(explicit_source(text), a, n)
    else:
        assert subpermutation(explicit_source(text), a, n) == _sorted_ranks(tails)


def test_subpermutation_of_a_deep_periodic_window_holds_little_memory():
    # Shifts two apart of 0101... agree on every letter.  One scan of a tied
    # pair reaches the agreement limit of 1.6 million letters, and no sort
    # of 300 keys that long is made.  Most of the peak is the source growing
    # its prefix to two million letters.
    periodic = MorphicSource({0: (0, 1), 1: (0, 1)})
    tracemalloc.start()
    try:
        with pytest.raises(HorizonExhausted):
            subpermutation(periodic, 100_000, 300)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000
    with pytest.raises(HorizonExhausted):
        compare_shifts(periodic, 100_000, 100_002)


def test_subpermutation_deep_in_a_long_run_holds_little_memory():
    # The window lies inside the first run of two million zeros, so shifts
    # 0 and 1 agree on about a million letters and the second sort's
    # horizon is that long.  Its keys are a few thousand letters a sort,
    # not 300 keys of a million letters each (about 300 MB).  Prefix
    # doubling peaked near 57 MB here; most of this peak is the source
    # growing its prefix.
    run = sturmian_characteristic((2_000_000,))
    tracemalloc.start()
    try:
        pattern = subpermutation(run, 1_000_000, 300)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # A later shift meets the run's end sooner, and the 1 there puts it later.
    assert pattern == tuple(range(1, 301))
    assert peak < 20_000_000


_FINITE = "0110" * 8 + "0"


_CAPPED = {"thue-morse": thue_morse_source, "fibonacci": fibonacci_source}


def _agreement_source(kind, arg):
    if kind == "explicit":
        return explicit_source(arg)
    if kind == "periodic":
        period = (0, *map(int, arg))  # the fixed point is period repeated
        return MorphicSource({0: period, 1: period})
    if kind == "sturmian":
        return sturmian_characteristic((arg,))
    return _CAPPED[kind](hard_limit=arg)


@settings(max_examples=150, deadline=None)
@given(
    word=st.one_of(
        st.tuples(st.just("explicit"), st.text("01", min_size=1, max_size=48)),
        st.tuples(st.just("periodic"), st.text("01", min_size=1, max_size=5)),
        # Infinite words cut by their hard limit, near the drawn windows.
        st.tuples(st.sampled_from(sorted(_CAPPED)), st.integers(16, 64)),
    ),
    a=st.integers(min_value=0, max_value=40),
    n=st.integers(min_value=1, max_value=16),
    extra=st.integers(min_value=0, max_value=40),
)
@example(word=("explicit", _FINITE), a=0, n=8, extra=0)
@example(word=("explicit", _FINITE), a=0, n=4, extra=0)
@example(word=("explicit", _FINITE), a=3, n=5, extra=0)
@example(word=("explicit", _FINITE), a=28, n=5, extra=0)
@example(word=("periodic", "11"), a=2, n=3, extra=0)
# The word 001001...: shifts 0 and 3 never separate, but no window of two
# shifts holds both.
@example(word=("periodic", "01"), a=2, n=2, extra=0)
# Shifts 0 and 1 agree on 4,999 letters, past max_horizon but within the
# agreement limit.
@example(word=("sturmian", 5000), a=0, n=2, extra=0)
@example(word=("sturmian", 5000), a=0, n=3, extra=0)
@example(word=("thue-morse", 100), a=40, n=16, extra=0)
@example(word=("fibonacci", 40), a=30, n=10, extra=0)
# Level-2 names of the shifts 1 and 2 are cut at the end: "01" is a prefix
# of "0101", and only the end would order them.
@example(word=("explicit", "0101"), a=0, n=3, extra=0)
@example(word=("thue-morse", 16), a=10, n=5, extra=6)
# Names that differ before the end order the window.
@example(word=("thue-morse", 16), a=8, n=6, extra=6)
def test_scalar_and_bulk_paths_agree(word, a, n, extra):
    # subpermutation ranks one window's shifts; the bulk path orders them by
    # names as long as the separation depth over the shifts up to the window
    # demands, or as long as any depth at least the window's own demands;
    # compare_shifts orders the window's end shifts.  Under one agreement
    # rule they give the same order or raise the same class.
    source = _agreement_source(*word)
    depth = _window_depth(_agreement_source(*word), a, n)
    bulk = [
        lambda src: _bulk_pattern(src, a, n),
        lambda src: tuple(window_patterns(src, [a], n, depth + extra)[0].tolist()),
    ]
    try:
        scalar = subpermutation(source, a, n)
    except PermlexError as exc:
        scalar = exc
        for path in bulk:
            with pytest.raises(type(exc)):
                path(_agreement_source(*word))
    else:
        assert [path(source) for path in bulk] == [scalar, scalar]
    if n < 2:
        return
    try:
        ordering, _ = compare_shifts(source, a, a + n - 1)
    except PermlexError as exc:
        # A pair the window holds and cannot order leaves it no pattern.
        assert type(scalar) is type(exc)
    else:
        if not isinstance(scalar, PermlexError):
            assert ordering == (LESS if scalar[0] < scalar[-1] else GREATER)


@pytest.mark.parametrize("n", [2, 3])
def test_scalar_path_keeps_the_bulk_agreement_limit(n):
    # Shifts 0 and 1 of sturmian:5000 agree on 4,999 letters: more than
    # max_horizon, within the limit max(16 * reach, 4 * max_horizon) that
    # every path keeps.
    word = sturmian_characteristic((5000,))
    assert subpermutation(word, 0, n) == tuple(range(1, n + 1))
    assert _bulk_pattern(word, 0, n) == tuple(range(1, n + 1))
    assert compare_shifts(word, 0, 1) == (LESS, 4999)


@pytest.mark.parametrize("d", [33, 34])
def test_every_path_allows_agreement_up_to_the_limit_and_no_more(d):
    # Shifts 0 and 1 of sturmian:d agree on d - 1 letters.  With reach 2 and
    # max_horizon 1 the limit is 32 letters: 32 are allowed, 33 are not.
    word = sturmian_characteristic((d,))
    paths = [
        lambda: compare_shifts(word, 0, 1, max_horizon=1),
        lambda: subpermutation(word, 0, 2, max_horizon=1),
        lambda: separation_depth(word, 2, 2, max_horizon=1),
    ]
    if d == 34:
        for path in paths:
            with pytest.raises(HorizonExhausted, match="more than 32 letters"):
                path()
    else:
        assert [path() for path in paths] == [(LESS, 32), (1, 2), 32]


@pytest.mark.parametrize(
    "call,build,cap",
    [
        pytest.param(
            lambda w: perm_set(w, 40, scan_window=64), fibonacci_source, 170,
            id="perm_set",
        ),
        pytest.param(
            lambda w: subpermutation(w, 95, 5), thue_morse_source, 100,
            id="subpermutation",
        ),
        pytest.param(
            lambda w: compare_shifts(w, 60, 94), fibonacci_source, 100,
            id="compare_shifts",
        ),
        pytest.param(
            lambda w: window_patterns(w, [62], 5, 3), thue_morse_source, 64,
            id="window_patterns",
        ),
    ],
)
def test_a_capped_word_runs_out_of_letters_but_goes_on(call, build, cap):
    # A source cut by its hard limit goes on past it, so a call that needs a
    # letter past the cap raises LimitExceeded and names the cap.  The same
    # letters as an explicit word end there.
    with pytest.raises(LimitExceeded, match=f"past the hard limit of {cap} letters"):
        call(build(hard_limit=cap))
    with pytest.raises(PrefixTooShort, match=f"the word ends after {cap} letters"):
        call(explicit_source(build().prefix_str(cap)))


def _window_depth(source, a, n):
    """The most letters two shifts of ``[a, a+n)`` agree on, cut at the end
    of the word; 0 when two agree past the agreement limit, since then no
    depth orders them."""
    limit = ranking._agreement_limit(a + n, ranking.DEFAULT_MAX_HORIZON)
    w = source.letters(min(source.max_available(), a + n + limit + 1))
    depth = 0
    for p, q in combinations(range(a, min(a + n, w.size)), 2):
        size = w.size - q
        diff = np.flatnonzero(w[p : p + size] != w[q:])
        run = int(diff[0]) if diff.size else size
        if run > limit:
            return 0
        depth = max(depth, run)
    return depth


def _bulk_pattern(source, a, n):
    depth = separation_depth(source, n, a + n)
    return tuple(window_patterns(source, [a], n, depth)[0].tolist())


def test_form_reads_off_the_factor(tm, fib):
    assert form_of(subpermutation(tm, 0, 9)) == tm.prefix_str(8)
    assert form_of(subpermutation(fib, 5, 7)) == naive_fibonacci(12)[5:11]
    assert form_of((2, 3, 1)) == "01"
    with pytest.raises(LengthTooSmall):
        form_of((1,))


def test_format_and_parse_perm():
    assert format_perm((3, 1, 2)) == "(3 1 2)"
    assert parse_perm("(3 1 2)") == (3, 1, 2)
    assert parse_perm("3, 1, 2") == (3, 1, 2)
    with pytest.raises(DomainError):
        parse_perm("(1 1 2)")
    with pytest.raises(DomainError):
        parse_perm("(5 8 1)")
    with pytest.raises(DomainError):
        parse_perm("")


# -- restrictions ---------------------------------------------------------------


@given(
    st.integers(min_value=3, max_value=12).flatmap(
        lambda n: st.lists(
            st.permutations(list(range(1, n + 1))), min_size=1, max_size=4
        )
    ),
    st.integers(min_value=0, max_value=2),
)
def test_restrictions_match_naive(ps, k):
    rows = [tuple(q) for q in ps]
    p = rows[0]
    assert left_restrict(p) == naive_left(p)
    assert right_restrict(p) == naive_right(p)
    assert middle_restrict(p) == naive_right(naive_left(p))
    # The row routine on the stacked permutations, for every transfer map's
    # trim and for a k-fold left restriction.
    for lead, trail in [*MAPS.values(), (0, k)]:
        naive = []
        for q in rows:
            for _ in range(lead):
                q = naive_right(q)
            for _ in range(trail):
                q = naive_left(q)
            naive.append(q)
        # Narrow unsigned rows keep their dtype and never wrap.
        for dtype in (np.uint8, np.uint16, np.int64):
            got = restrict_rows(np.array(rows, dtype=dtype), lead, trail)
            assert got.dtype == dtype
            assert list(map(tuple, got.tolist())) == naive


@given(perms)
def test_one_sided_restrictions_commute(p):
    p = tuple(p)
    assert right_restrict(left_restrict(p)) == left_restrict(right_restrict(p))
    assert middle_restrict(p) == left_restrict(right_restrict(p))


@given(perms, st.integers(min_value=0, max_value=3))
def test_left_restrict_k_iterates(p, k):
    p = tuple(p)
    k = min(k, len(p) - 1)
    q = p
    for _ in range(k):
        q = left_restrict(q)
    assert left_restrict_k(p, k) == q


def test_restrictions_slide_the_window(tm):
    for a in (0, 9, 40):
        for n in (3, 6, 11):
            p = subpermutation(tm, a, n)
            assert left_restrict(p) == subpermutation(tm, a, n - 1)
            assert right_restrict(p) == subpermutation(tm, a + 1, n - 1)
            assert middle_restrict(p) == subpermutation(tm, a + 1, n - 2)


def test_restriction_length_guards():
    with pytest.raises(LengthTooSmall):
        left_restrict((1,))
    with pytest.raises(LengthTooSmall):
        middle_restrict((1, 2))
    with pytest.raises(LengthTooSmall):
        right_restrict((1,))
    with pytest.raises(LengthTooSmall):
        left_restrict_k((1, 2), 2)


# -- pattern-set enumeration ----------------------------------------------------


def test_perm_set_counts_fibonacci(fib):
    for n in range(2, 9):
        ps = perm_set(fib, n)
        assert ps.saturated
        assert ps.count == n


def test_perm_set_members_match_naive(tm):
    ps = perm_set(tm, 4, scan_window=256)
    assert ps.saturated
    text = naive_thue_morse(4 * ps.scan_window)
    assert ps.members == naive_perm_set(text, 4, ps.scan_window)
    assert ps.sorted_members() == sorted(ps.members)
    assert ps.rows.shape == (ps.count, 4) and ps.rows.dtype == np.uint8
    assert not ps.rows.flags.writeable


def test_perm_set_memory_grows_with_distinct_factors():
    # One saturated enumeration on a warmed source holds a few bytes per
    # cell of the F windows of length m it sorts, F the distinct factors of
    # its scan: uint16 rows sorted in blocks and deduplicated as rows, with
    # no tuple of Python ints per pattern until ``members`` is read.
    m, source = 256, double(thue_morse_source())
    perm_set(source, m)  # grows the name and agreement tables
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        ps = perm_set(source, m)
        assert ps.count == doubled_tm_tau(m) and ps.saturated
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    reps = perms_module._pattern_rows(
        source, m, ps.scan_window, None, ranking.DEFAULT_MAX_HORIZON
    )[0]
    assert peak < 12 * reps.size * m
    assert "members" not in ps.__dict__


def test_perm_set_single_letter(tm):
    assert perm_set(tm, 1).members == {(1,)}


def test_parity_sets_partition_the_doubled_sets(dtm, dfib):
    for src, n in [(dtm, 10), (dtm, 13), (dfib, 9)]:
        full = perm_set(src, n)
        even = perm_set_parity(src, n, "even")
        odd = perm_set_parity(src, n, "odd")
        assert even.saturated and odd.saturated and full.saturated
        assert even.members | odd.members == full.members
        assert not (even.members & odd.members)


def test_parity_needs_doubled_source(tm):
    with pytest.raises(WrongSource):
        perm_set_parity(tm, 8, "even")
    with pytest.raises(DomainError):
        perm_set_parity(double(tm), 8, "sideways")


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_perm_set_on_finite_and_periodic_words_raises_from_ranking(n):
    # The 33-letter word repeats with period 4 until it ends, so the shifts
    # 4 apart agree until the end, and the periodic word 0101... never
    # separates shifts 2 apart.  A window of fewer shifts holds no such pair:
    # its scan gives the naive patterns until the word ends, unsaturated.
    finite = explicit_source(_FINITE)
    if n < 5:
        ps = perm_set(finite, n, scan_window=4)
        assert not ps.saturated
        assert ps.members == naive_perm_set(_FINITE, n, ps.scan_window)
    else:
        with pytest.raises(PrefixTooShort):
            perm_set(finite, n, scan_window=4)
    periodic = MorphicSource({0: (0, 1), 1: (0, 1)})
    if n < 3:
        ps = perm_set(periodic, n, scan_window=4)
        assert ps.members == naive_perm_set("01" * 64, n, ps.scan_window)
        assert ps.members == {(1, 2), (2, 1)}
    else:
        with pytest.raises(HorizonExhausted):
            perm_set(periodic, n, scan_window=4)


def test_windows_of_one_shift_compare_nothing_even_on_a_periodic_word():
    # No two shifts share a window of length 1, so the bulk path gives the
    # one pattern, as the scalar path does, without ranking shifts that never
    # separate.
    periodic = MorphicSource({0: (0, 1), 1: (0, 1)})
    assert perm_set(periodic, 1, scan_window=4).members == {(1,)}
    assert subpermutation(periodic, 3, 1) == (1,)


def test_perm_set_on_a_finite_word_ranks_only_the_shifts_its_windows_hold():
    # The windows [0, 2) and [1, 3) of "0110" hold the shifts 0..2, which
    # differ before the word ends; shift 3, "0", is a prefix of shift 0 but
    # lies in no window.  The doubled scan runs out of letters.
    ps = perm_set(explicit_source("0110"), 2, scan_window=2)
    assert ps.members == {(1, 2), (2, 1)}
    assert not ps.saturated


def test_perm_set_never_certifies_a_finite_word():
    # One doubling of the scan fits in the word and adds no pattern, but a
    # later window, up to the word's end, may still show a new one.  A doubled
    # finite word ends too.  A capped infinite source keeps the rule of a
    # count that did not grow.
    text = naive_thue_morse(64)
    ps = perm_set(explicit_source(text), 3, scan_window=4)
    assert (ps.count, ps.scan_window, ps.saturated) == (6, 32, False)
    assert not perm_set(double(explicit_source(text)), 3, scan_window=4).saturated
    assert perm_set(thue_morse_source(hard_limit=64), 3, scan_window=4).saturated


def test_perm_set_reports_unsaturated_on_short_words():
    # 190 letters order the first 64-window but not the doubling retry,
    # whose shifts 34 apart agree past them, so the count can never be
    # confirmed stable.
    capped = fibonacci_source(hard_limit=190)
    ps = perm_set(capped, 40, scan_window=64)
    assert not ps.saturated
    assert ps.count > 0
    # 250 letters order the retry's windows too, and it adds nothing to the
    # 40 patterns of length 40 (Makarov).
    ps = perm_set(fibonacci_source(hard_limit=250), 40, scan_window=64)
    assert (ps.count, ps.scan_window, ps.saturated) == (40, 128, True)


# -- incremental enumeration against the oracle ---------------------------------

_ORACLE_WORDS = {
    "tm": naive_thue_morse,
    "fib": naive_fibonacci,
    "dtm": lambda m: naive_double(naive_thue_morse((m + 1) // 2))[:m],
    "dfib": lambda m: naive_double(naive_fibonacci((m + 1) // 2))[:m],
}


#: Small scans leave most windows with a pattern no other window has, so a
#: skipped start shows in the member set or in the reported scan window.
_SCAN_WINDOWS = st.one_of(
    st.integers(min_value=2, max_value=16), st.integers(min_value=2, max_value=600)
)


def _oracle_text(name, scan_window):
    # Shifts starting below N of these words separate within a few N letters.
    return _ORACLE_WORDS[name](8 * scan_window + 256)


def _check_against_naive(ps, scan_window, saturate, naive, ends=False):
    """``naive(w)`` is the oracle's pattern set over the starts below w;
    ``ends`` says the word is finite, so it is never certified."""
    window = scan_window
    if saturate:
        # The scan doubles until one doubling adds no pattern.
        while len(naive(2 * window)) != len(naive(window)):
            window *= 2
        window *= 2
    assert (ps.scan_window, ps.saturated) == (window, saturate and not ends)
    assert ps.members == naive(window)


#: A finite word, drawn only by an example: its count stops growing at the
#: scan 64, inside its 90 letters.
_TM90 = naive_thue_morse(90)


@settings(max_examples=25, deadline=None)
@given(
    name=st.sampled_from(sorted(_ORACLE_WORDS)),
    n=st.integers(min_value=1, max_value=24),
    scan_window=_SCAN_WINDOWS,
    saturate=st.booleans(),
)
# Seven doublings, each adding patterns, before the scan 256 certifies.
@example(name="tm", n=17, scan_window=2, saturate=True)
@example(name="tm[:90]", n=8, scan_window=2, saturate=True)
def test_perm_set_matches_naive(tm, fib, dtm, dfib, name, n, scan_window, saturate):
    words = {"tm": tm, "fib": fib, "dtm": dtm, "dfib": dfib}
    source = words[name] if name in words else explicit_source(_TM90)
    ps = perm_set(source, n, scan_window=scan_window, saturate=saturate)
    text = _oracle_text(name, ps.scan_window) if name in words else _TM90
    _check_against_naive(
        ps,
        scan_window,
        saturate,
        lambda w: naive_perm_set(text, n, w),
        ends=name not in words,
    )


@settings(max_examples=20, deadline=None)
@given(
    name=st.sampled_from(["dtm", "dfib"]),
    n=st.integers(min_value=1, max_value=24),
    scan_window=_SCAN_WINDOWS,
    saturate=st.booleans(),
    parity=st.sampled_from(["even", "odd"]),
)
def test_perm_set_parity_matches_naive(
    dtm, dfib, name, n, scan_window, saturate, parity
):
    source = {"dtm": dtm, "dfib": dfib}[name]
    ps = perm_set_parity(source, n, parity, scan_window=scan_window, saturate=saturate)
    text = _oracle_text(name, ps.scan_window)
    first = 0 if parity == "even" else 1
    _check_against_naive(
        ps,
        scan_window,
        saturate,
        lambda w: {naive_subperm(text, a, n) for a in range(first, w, 2)},
    )


def test_bulk_paths_never_rank_shifts(monkeypatch):
    # The bulk paths order each window's shifts by the source's names alone:
    # a sweep, an audit and an image check call shift_ranks not once.
    calls = []
    counted = ranking.shift_ranks

    def counting(*args):
        calls.append(args[1])
        return counted(*args)

    monkeypatch.setattr(ranking, "shift_ranks", counting)
    source = double(thue_morse_source())
    for n in range(2, 65):
        assert perm_set(source, n).saturated
    tm = thue_morse_source()
    assert audit_map(tm, "delta-m", 9).surjective
    assert verify_image_formulas(tm, 9, 512).ok
    assert calls == []


# -- factor representatives ------------------------------------------------------

#: Infinite words with their string oracles; sturmian:3,1 has a large
#: separation depth for its window lengths.
_FACTOR_WORDS = {
    "tm": (thue_morse_source, _ORACLE_WORDS["tm"]),
    "fib": (fibonacci_source, _ORACLE_WORDS["fib"]),
    "st31": (
        lambda: sturmian_characteristic((3, 1)),
        lambda m: naive_sturmian((3, 1), m),
    ),
    "dtm": (lambda: double(thue_morse_source()), _ORACLE_WORDS["dtm"]),
    "dfib": (lambda: double(fibonacci_source()), _ORACLE_WORDS["dfib"]),
}

_FACTOR_WORD = st.one_of(
    st.sampled_from(sorted(_FACTOR_WORDS)), st.text("01", min_size=1, max_size=48)
)


def _word(word):
    """A fresh source, and a function of m giving the first m letters of an
    infinite word or all of a finite one."""
    if word in _FACTOR_WORDS:
        build, text = _FACTOR_WORDS[word]
        return build(), text
    return explicit_source(word), lambda m: word


@settings(max_examples=60, deadline=None)
@given(
    word=_FACTOR_WORD,
    requests=st.lists(
        st.tuples(st.integers(min_value=1, max_value=40), _SCAN_WINDOWS),
        min_size=1,
        max_size=4,
    ),
)
# The deepest pair, shifts 10 and 11, is the last pair the reach holds.
@example(word="01010101010000001", requests=[(2, 10)])
# Shifts 91 and 115 agree on 113 letters, past the letters the table first
# reads, so it reads on.
@example(word="st31", requests=[(25, 100)])
def test_separation_depth_matches_naive(word, requests):
    # Each request measures H(n) over the shifts [0, reach) from letters
    # alone.  The table behind it holds every distance and shift asked for,
    # read exactly as the naive scan reads them; across requests it grows in
    # reach and in distance, and its depth over the reach it holds bounds the
    # depth asked for.
    source, text = _word(word)
    for n, scan_window in requests:
        reach = scan_window + n
        try:
            depth = separation_depth(source, n, reach)
        except PermlexError:
            continue
        over, runs = source._agreement
        assert over >= reach and runs.size >= n
        long = text(4 * over + 512)
        exact = ranking._agreement_runs(_word(word)[0], n, reach, 1 << 20)
        assert exact.max() == naive_separation_depth(long, n, 0, reach) <= depth
        assert depth == naive_separation_depth(long, n, 0, over)
        if n == 1:
            assert depth == 0  # a window of one shift compares nothing


@pytest.mark.parametrize("wide_first", [False, True])
def test_horizon_errors_do_not_depend_on_earlier_calls(wide_first):
    # The shifts 0 and 1 of sturmian:20001 agree on 20,000 letters: past the
    # limit max(16 * reach, 16384) of a scan of 512, within that of a scan of
    # 2048.  A table measured for the wider scan covers the narrower one, and
    # must not lift its limit.
    source = sturmian_characteristic((20001,))
    for wide in (wide_first, not wide_first):
        if wide:
            assert perm_set(source, 2, scan_window=2048).count == 1
            assert separation_depth(source, 2, 4096) == 20000
        else:
            with pytest.raises(HorizonExhausted):
                perm_set(source, 2, scan_window=512)
            with pytest.raises(HorizonExhausted):
                separation_depth(source, 2, 1024)


@settings(max_examples=80, deadline=None)
@given(
    word=_FACTOR_WORD,
    n=st.integers(min_value=1, max_value=40),
    scan_window=_SCAN_WINDOWS,
    warm=st.integers(min_value=0, max_value=2000),
)
# The last start's factor w[a, a+n+H) runs past the end of this 17-letter word.
@example(word="01001000001011110", n=11, scan_window=4, warm=0)
def test_factor_representatives_give_the_naive_pattern_set(
    word, n, scan_window, warm
):
    # ``warm`` measures H over a longer reach first, so H is taken over more
    # shifts than the scan holds: an overestimate, which must change nothing.
    # It also names a longer prefix than the representatives need.
    source, text = _word(word)
    if word in _FACTOR_WORDS and warm:
        window_patterns(source, [warm], n, separation_depth(source, 2 * n, warm + n))
    try:
        ps = perm_set(source, n, scan_window=scan_window, saturate=False)
    except PermlexError as exc:
        # Errors come from the shifts the scan's windows hold, so ordering
        # the last window without grouping raises too.
        with pytest.raises(type(exc)):
            _bulk_pattern(_word(word)[0], scan_window - 1, n)
        return
    naive = naive_perm_set(text(8 * (scan_window + n) + 512), n, scan_window)
    assert ps.members == naive


def test_enumeration_sorts_one_window_per_distinct_factor(monkeypatch):
    calls, reach = [], 0
    sort = perms_module.window_patterns

    def counting(source, starts, n, depth):
        nonlocal reach
        calls.append((len(starts), depth))
        names = (1 << depth.bit_length()) - 1  # letters past the window named
        reach = max(reach, int(starts.max(initial=0)) + n + names)
        return sort(source, starts, n, depth)

    monkeypatch.setattr(perms_module, "window_patterns", counting)
    source = double(thue_morse_source())
    scan = 2 * DEFAULT_SCAN_WINDOW
    text = _ORACLE_WORDS["dtm"](2 * scan)
    for n in range(2, 130, 8):
        calls.clear()
        ps = perm_set(source, n)
        # The one saturation round is one sort of the doubled scan, one
        # window per distinct factor w[a, a+n+H) of its starts.
        assert ps.saturated and ps.scan_window == scan
        ((rows, depth),) = calls
        assert rows == len({text[a : a + n + depth] for a in range(scan)})
        assert 8 * rows <= scan
    # The sorted windows and the letters their names span stop well short of
    # the scan, so they never grow the name table past the one grouping the
    # doubled scan built.
    assert reach < DEFAULT_SCAN_WINDOW
    assert source._names[0] <= 2 * (scan + reach)
