"""Word sources: fixed points, Sturmian standard words, wrappers, run bounds."""

import random
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from permlex import (
    DomainError,
    ExplicitSource,
    InvalidDirective,
    LimitExceeded,
    MorphicSource,
    PermlexError,
    PrefixTooShort,
    RunBounds,
    Unsaturated,
    WordSpecError,
    complement,
    double,
    explicit_source,
    factors,
    fibonacci_source,
    parse_word_spec,
    recurrence_bound,
    run_bounds,
    sturmian_characteristic,
    thue_morse_source,
)
from permlex import words
from permlex.words import DEFAULT_FACTOR_WINDOW

from bruteforce import (
    naive_complement,
    naive_double,
    naive_factors,
    naive_fibonacci,
    naive_sturmian,
    naive_thue_morse,
)


# -- prefixes against the naive constructions ----------------------------------


def test_thue_morse_prefix(tm):
    assert tm.prefix_str(16) == "0110100110010110"
    assert tm.prefix_str(2048) == naive_thue_morse(2048)


def test_fibonacci_prefix(fib):
    assert fib.prefix_str(13) == "0100101001001"
    assert fib.prefix_str(2048) == naive_fibonacci(2048)


@pytest.mark.parametrize(
    "directive",
    [
        (1,), (2,), (3,), (1, 2), (2, 1, 1), (3, 1, 2), (5000,), (60, 1),
        (1, 2, 3), (5000, 5000),
    ],
)
def test_sturmian_prefix(directive):
    # A request covered by copies of s(i), a prefix of s(i+1) = s(i)^d
    # s(i-1), builds no s(i+1): sturmian:5000's s(2) has 25,005,001 letters.
    # Every block is shorter than the request, so the prefix stays below
    # twice the longest one.
    src = sturmian_characteristic(directive)
    longest = 0
    for n in (8200, 30000, 100):
        assert src.prefix_str(n) == naive_sturmian(directive, n)
        longest = max(longest, n)
        assert src._prefix.size < 2 * longest


def _iterate(images, n):
    # Plain string iteration of a binary morphism prolongable at 0.
    table = str.maketrans({str(a): "".join(map(str, images[a])) for a in (0, 1)})
    word = "0"
    while len(word) < n:
        word = word.translate(table)
    return word[:n]


# The images of 0 and 1 of a binary morphism prolongable at 0.
MORPHISMS = st.tuples(
    st.lists(st.integers(0, 1), min_size=1, max_size=3).map(lambda tail: (0, *tail)),
    st.lists(st.integers(0, 1), min_size=1, max_size=4).map(tuple),
)

FIXED_POINT_WORDS = st.one_of(
    st.tuples(st.just("morphic"), MORPHISMS),
    st.tuples(
        st.just("sturmian"),
        st.lists(st.integers(1, 60), min_size=1, max_size=4).map(tuple),
    ),
)


@settings(max_examples=60, deadline=None)
@given(
    word=FIXED_POINT_WORDS,
    lengths=st.lists(st.integers(0, 5000), min_size=1, max_size=8),
)
@example(word=("morphic", ((0, 1), (1, 0))), lengths=[5000, 3, 1025])
@example(word=("morphic", ((0, 0, 1, 0), (1,))), lengths=[1, 4000, 2])  # Chacon
@example(word=("morphic", ((0, 1), (1,))), lengths=[5000])  # 0 1^k grows by one
@example(word=("sturmian", (60, 1)), lengths=[3782, 61, 3843, 5000])
def test_fixed_point_prefixes_in_any_request_order(word, lengths):
    # One block recursion serves morphic and Sturmian words alike; every
    # prefix, in any order of requests, is the plain iteration's.
    kind, data = word
    if kind == "morphic":
        source, text = MorphicSource({0: data[0], 1: data[1]}), _iterate(data, 5000)
    else:
        source, text = sturmian_characteristic(data), naive_sturmian(data, 5000)
    for n in lengths:
        assert source.prefix_str(n) == text[:n]


def test_letters_are_read_only_int8(tm):
    arr = tm.letters(64)
    assert arr.dtype == np.int8
    with pytest.raises(ValueError):
        arr[0] = 1


def test_prefix_growth_is_stable(fib):
    head = fib.prefix_str(50)
    fib.letters(5000)
    assert fib.prefix_str(50) == head


def test_prefix_request_validation(tm):
    with pytest.raises(DomainError):
        tm.letters(-1)
    small = thue_morse_source(hard_limit=128)
    with pytest.raises(LimitExceeded):
        small.letters(129)


def _count_generates(monkeypatch, source) -> tuple[dict, dict]:
    """Record the length each source in ``source``'s chain of wrappers asks
    of its ``_generate``, and the letters it gets back, keyed by source."""
    asked, built, chain = {}, {}, [source]
    while hasattr(chain[-1], "inner"):
        chain.append(chain[-1].inner)
    for src in chain:
        asked[src], built[src] = [], []

        def counting(n, src=src, generate=src._generate):
            out = generate(n)
            asked[src].append(n)
            built[src].append(out.size)
            return out

        monkeypatch.setattr(src, "_generate", counting)
    return asked, built


AMORTISED_WORDS = {
    "thue-morse": naive_thue_morse,
    "fibonacci": naive_fibonacci,
    "sturmian:2": lambda n: naive_sturmian((2,), n),
    "double(thue-morse)": lambda n: naive_double(naive_thue_morse(n))[:n],
    "complement(double(fibonacci))": lambda n: naive_complement(
        naive_double(naive_fibonacci(n))[:n]
    ),
}


@pytest.mark.parametrize("spec", sorted(AMORTISED_WORDS))
def test_prefix_growth_is_amortised(spec, monkeypatch):
    # About 2,000 requests, each 64 letters past the last: every regrowth at
    # least doubles the cached prefix, so each source in the chain builds
    # O(log(top / 64)) prefixes and O(top) letters in all, not one prefix
    # per request, and every prefix is still the word's.
    top = 1 << 17
    word = np.frombuffer(AMORTISED_WORDS[spec](top).encode(), np.uint8) - ord("0")
    source = parse_word_spec(spec)
    asked, built = _count_generates(monkeypatch, source)
    for n in range(64, top + 1, 64):
        assert np.array_equal(source.letters(n), word[:n])
        assert source._prefix.size <= source.max_available()
    for src in asked:
        assert 1 <= len(asked[src]) <= (top // 64).bit_length() + 1
        assert sum(built[src]) <= 8 * top


def test_prefix_growth_keeps_the_edges(monkeypatch):
    # Growth never asks a source for more than it can produce, so a capped
    # word serves every request up to its hard limit exactly as before.
    fib = fibonacci_source(hard_limit=170)
    twice = double(fib)
    asked, _ = _count_generates(monkeypatch, twice)
    assert twice.letters(0).size == 0 and fib.letters(0).size == 0
    assert asked == {twice: [], fib: []}
    text = naive_fibonacci(170)
    for n in (10, 100, 150, 169, 170):
        assert fib.prefix_str(n) == text[:n]
        assert twice.prefix_str(n) == naive_double(text)[:n]
        assert twice._prefix.size <= twice.max_available() == 170
    assert all(n <= src.max_available() for src in asked for n in asked[src])
    for src in (fib, twice):
        with pytest.raises(LimitExceeded):
            src.letters(171)
    # A finite word past its end raises what it raised before.
    word = explicit_source("0110")
    assert word.prefix_str(3) == "011"
    with pytest.raises(PrefixTooShort, match="^explicit word has 4 letters, needed 5$"):
        word.letters(5)
    doubled = double(explicit_source("0110"))
    assert doubled.prefix_str(5) == "00111"
    assert doubled.prefix_str(8) == "00111100"
    with pytest.raises(PrefixTooShort, match="^explicit word has 4 letters, needed 5$"):
        doubled.letters(9)


# -- specific sources -----------------------------------------------------------


def test_explicit_source_end_behaviour():
    src = explicit_source("0110")
    assert src.prefix_str(4) == "0110"
    assert src.max_available() == 4
    with pytest.raises(PrefixTooShort):
        src.letters(5)
    with pytest.raises(DomainError):
        ExplicitSource("01a0")
    with pytest.raises(DomainError):
        ExplicitSource("")


def test_morphic_source_validation():
    # 0 -> 10 is not prolongable at 0, and empty images are rejected.
    with pytest.raises(DomainError):
        MorphicSource({0: (1, 0), 1: (0, 1)})
    with pytest.raises(DomainError):
        MorphicSource({0: (), 1: (0,)})
    with pytest.raises(DomainError):
        MorphicSource({0: (0, 1), 1: (1, 0)}, seed=2)


def test_period_doubling_morphism():
    src = MorphicSource({0: (0, 1), 1: (0, 0)})
    w = src.prefix_str(32)
    assert w == "01000101010001000100010101000101"[: len(w)]


def test_double_and_complement_prefixes(tm, fib):
    assert double(tm).prefix_str(40) == naive_double(naive_thue_morse(20))
    assert complement(fib).prefix_str(40) == naive_complement(naive_fibonacci(40))
    # complement is an involution letter by letter
    assert complement(complement(tm)).prefix_str(100) == tm.prefix_str(100)
    # doubling commutes with complement
    assert double(complement(tm)).prefix_str(80) == complement(double(tm)).prefix_str(80)


def test_extend_prefix(fib):
    assert fib.prefix_str(21) == naive_fibonacci(21)


# -- run bounds -----------------------------------------------------------------


def _interior_run_maxima(w: str) -> tuple[int, int]:
    runs = [m.group() for m in re.finditer(r"0+|1+", w)][1:-1]
    k0 = max((len(r) for r in runs if r[0] == "0"), default=0)
    k1 = max((len(r) for r in runs if r[0] == "1"), default=0)
    return k0, k1


def test_run_bounds_known_words(tm, fib, st2):
    assert (run_bounds(tm).k0, run_bounds(tm).k1) == (2, 2)
    assert (run_bounds(fib).k0, run_bounds(fib).k1) == (2, 1)
    b = run_bounds(st2)
    assert (b.k0, b.k1) == _interior_run_maxima(st2.prefix_str(4096))
    assert run_bounds(tm).k == 2
    assert run_bounds(fib).num_classes == 3


def test_run_bounds_match_interior_runs(tm, fib):
    for src, text in [(tm, naive_thue_morse(4096)), (fib, naive_fibonacci(4096))]:
        b = run_bounds(src)
        assert (b.k0, b.k1) == _interior_run_maxima(text)


def test_run_bounds_reject_unbounded_prefix():
    # A boundary run longer than any interior run cannot be certified.
    with pytest.raises(PrefixTooShort):
        run_bounds(explicit_source("000010"), inspect_len=6)
    with pytest.raises(PrefixTooShort):
        run_bounds(explicit_source("01"))


def _naive_run_bounds(source, inspect_len=DEFAULT_FACTOR_WINDOW):
    # Cache-free reference: every call rescans the whole inspected prefix.
    if inspect_len < 2:
        raise DomainError("inspect_len must be at least 2")
    eff = min(inspect_len, source.max_available())
    if eff < 2:
        raise PrefixTooShort("cannot certify run bounds on fewer than 2 letters")
    w = source.letters(eff)
    run_starts = np.concatenate([[0], np.flatnonzero(np.diff(w)) + 1])
    run_ends = np.concatenate([run_starts[1:], [w.size]])
    lengths = run_ends - run_starts
    letters_at = w[run_starts]
    if run_starts.size < 3:
        raise PrefixTooShort(
            f"no interior runs in the first {eff} letters of {source.spec_string()}"
        )
    interior_lengths = lengths[1:-1]
    interior_letters = letters_at[1:-1]
    bounds = {}
    for letter in (0, 1):
        runs = interior_lengths[interior_letters == letter]
        if runs.size == 0:
            raise PrefixTooShort(
                f"letter {letter} completes no interior run in the first {eff} "
                f"letters of {source.spec_string()}"
            )
        bounds[letter] = int(runs.max())
    for edge in (0, run_starts.size - 1):
        if lengths[edge] > bounds[int(letters_at[edge])]:
            raise PrefixTooShort(
                "a run clipped by the prefix boundary exceeds every interior run; "
                "inspect a longer prefix"
            )
    return RunBounds(k0=bounds[0], k1=bounds[1], certified_over=eff)


def _outcome(call):
    try:
        return call()
    except PermlexError as exc:
        return type(exc), str(exc)


# Its first 20 letters have bounds (1, 1) and its first 104 have (3, 1), so
# bounds over 20 letters must not borrow the run 000 from a call over 104.
LATE_RUN_WORD = "explicit:" + "01" * 40 + "000" + "1" + "01" * 10
RUN_SPECS = [
    "thue-morse", "fibonacci", "sturmian:2", "sturmian:3,1", "double(thue-morse)"
]


def _from_runs(first: int, runs: list[int]) -> str:
    letters = (str((first + i) % 2) * r for i, r in enumerate(runs))
    return "explicit:" + "".join(letters)[:80]


# Explicit words of long runs make the clipped edge runs matter.
EXPLICIT_WORDS = st.one_of(
    st.text("01", min_size=1, max_size=80).map("explicit:".__add__),
    st.builds(
        _from_runs,
        st.integers(0, 1),
        st.lists(st.integers(1, 6), min_size=1, max_size=30),
    ),
)


@settings(max_examples=150, deadline=None)
@given(
    spec=st.one_of(st.sampled_from(RUN_SPECS), EXPLICIT_WORDS),
    lengths=st.lists(
        st.one_of(st.integers(0, 90), st.integers(0, 1 << 14)),
        min_size=1,
        max_size=12,
    ),
)
@example(spec=LATE_RUN_WORD, lengths=[20, 104])
@example(spec=LATE_RUN_WORD, lengths=[104, 20])
# After the scan has passed it, the run 11 ending exactly at the prefix end
# is the clipped last run of the first 6 letters, not an interior one.
@example(spec="explicit:01001100", lengths=[8, 6])
def test_run_bounds_exact_in_any_call_order(spec, lengths):
    shared = parse_word_spec(spec)
    for n in lengths:
        fresh = parse_word_spec(spec)
        assert _outcome(lambda: run_bounds(shared, n)) == _outcome(
            lambda: _naive_run_bounds(fresh, n)
        )


def test_run_bounds_on_shared_sources(tm, fib, st2, dtm):
    # Session fixtures carry whatever prefixes earlier tests inspected.
    for source in (tm, fib, st2, dtm):
        spec = source.spec_string()
        for n in (50_000, 4096, 7, 300, 50_001):
            fresh = parse_word_spec(spec)
            assert _outcome(lambda: run_bounds(source, n)) == _outcome(
                lambda: _naive_run_bounds(fresh, n)
            )


def test_run_bounds_scans_each_letter_once(monkeypatch):
    scanned = []
    counted = words._run_starts

    def counting(w, lo):
        scanned.append((lo, w.size))
        return counted(w, lo)

    monkeypatch.setattr(words, "_run_starts", counting)
    source = thue_morse_source()
    rng = random.Random(17)
    lengths = [rng.randint(2, 1 << 17) for _ in range(200)]
    for n in lengths:
        run_bounds(source, n)
    # The scanned position ranges are disjoint.  They read ahead at most one
    # chunk past the longest inspected prefix, and never past the letters
    # the source generated.
    scanned.sort()
    assert all(hi <= lo for (_, hi), (lo, _) in zip(scanned, scanned[1:]))
    assert scanned[-1][1] <= source._prefix.size
    assert sum(hi - lo for lo, hi in scanned) <= max(lengths) + words._SCAN_CHUNK
    # The read-ahead generates no letter: the prefix grew as it does for
    # the same requests without run bounds.
    twin = thue_morse_source()
    for n in lengths:
        twin.letters(n)
    assert source._prefix.size == twin._prefix.size


def _scan_state(source):
    scan = source._run_scan
    return (
        scan.scanned,
        scan.first_starts,
        scan.last_start,
        scan.record_ends,
        scan.record_maxima,
    )


@settings(max_examples=100, deadline=None)
@given(
    chunk=st.sampled_from([1, 2, 3, 64]),
    spec=st.one_of(st.sampled_from(RUN_SPECS), EXPLICIT_WORDS),
    lengths=st.lists(
        st.one_of(st.integers(0, 90), st.integers(0, 1 << 11)),
        min_size=1,
        max_size=8,
    ),
)
@example(chunk=1, spec=LATE_RUN_WORD, lengths=[20, 104])
@example(chunk=2, spec="explicit:01001100", lengths=[8, 6])
def test_run_bounds_exact_across_scan_chunks(chunk, spec, lengths):
    # Runs that straddle chunk boundaries, one run per chunk, and chunks
    # that hold no run start give exact bounds, and leave the state that one
    # scan of the same letters in a single chunk leaves.  Where the scan
    # stops depends on the chunk size, since it reads a chunk ahead.
    chunked = parse_word_spec(spec)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(words, "_SCAN_CHUNK", chunk)
        for n in lengths:
            fresh = parse_word_spec(spec)
            assert _outcome(lambda: run_bounds(chunked, n)) == _outcome(
                lambda: _naive_run_bounds(fresh, n)
            )
    whole = parse_word_spec(spec)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(words, "_SCAN_CHUNK", 1 << 30)
        whole._run_scan.extend(whole.letters(chunked._run_scan.scanned))
    assert _scan_state(chunked) == _scan_state(whole)


def test_run_bounds_memory_does_not_grow_with_the_prefix():
    # The scan reads fresh letters a chunk at a time, so certifying bounds
    # over 2**22 letters allocates far less than one int64 per letter.
    source = thue_morse_source()
    source.letters(1 << 22)
    tracemalloc.start()
    try:
        run_bounds(source, 1 << 22)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20


# -- factors and recurrence -----------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 5, 9])
def test_factors_match_naive(tm, n):
    assert factors(tm, n, window_len=1024) == naive_factors(naive_thue_morse(1024), n)


def test_sturmian_factor_counts(fib, st2):
    # n + 1 distinct blocks of each length: the defining complexity.
    for n in range(1, 21):
        assert len(factors(fib, n)) == n + 1
        assert len(factors(st2, n)) == n + 1


def _naive_recurrence(w: str, k: int) -> int:
    facs = naive_factors(w, k)
    for span in range(k, len(w) + 1):
        if all(facs <= naive_factors(w[a : a + span], k) for a in range(len(w) - span + 1)):
            return span
    raise AssertionError("no covering window")


def test_recurrence_bound_values(tm, fib):
    assert recurrence_bound(tm, 2) == 9
    assert recurrence_bound(fib, 2) == 6
    assert recurrence_bound(tm, 2, window_len=512) == _naive_recurrence(
        naive_thue_morse(512), 2
    )
    assert recurrence_bound(fib, 3, window_len=512) == _naive_recurrence(
        naive_fibonacci(512), 3
    )
    # Sturmian and doubled words, then finite words whose widest gap sits
    # before a first occurrence, after a last one, and between occurrences.
    for source, text, k in [
        (sturmian_characteristic((2,)), naive_sturmian((2,), 300), 4),
        (sturmian_characteristic((3, 1)), naive_sturmian((3, 1), 300), 5),
        (double(thue_morse_source()), naive_double(naive_thue_morse(150)), 3),
        (explicit_source("00000010010010001"), "00000010010010001", 2),
        (explicit_source("11010011010010110111"), "11010011010010110111", 2),
        (explicit_source("0010111001011100"), "0010111001011100", 2),
    ]:
        assert recurrence_bound(source, k, window_len=300) == _naive_recurrence(
            text, k
        )
    # Factors longer than one 64-bit code: those differing only in their
    # first k - 64 letters must stay apart.
    assert recurrence_bound(tm, 70, window_len=16384) == 645
    text = "1" + "0" * 64 + "1" + ("0" * 65 + "1") * 3
    assert recurrence_bound(explicit_source(text), 65) == _naive_recurrence(text, 65)


def test_recurrence_bound_saturation_guard():
    # Too short a window to pin the factor set down.
    with pytest.raises(Unsaturated):
        recurrence_bound(thue_morse_source(), 5, window_len=12)


def _covers(w: str, k: int, span: int) -> bool:
    # Whether every length-``span`` window of ``w`` holds every length-k
    # factor of ``w``: slide the window, counting the factors it starts.
    want = len(naive_factors(w, k))
    inside = Counter(w[a : a + k] for a in range(span - k + 1))
    for a in range(len(w) - span + 1):
        if a:
            gone = w[a - 1 : a - 1 + k]
            inside[gone] -= 1
            if not inside[gone]:
                del inside[gone]
            inside[w[a + span - k : a + span]] += 1
        if len(inside) < want:
            return False
    return True


def _string_recurrence(w: str, k: int):
    # recurrence_bound over the inspected prefix ``w``, from strings alone:
    # the least covering span by bisection (a window that covers, grown by
    # a letter, still covers), or the class of the error its guards raise.
    if len(w) < 2 * k:
        return PrefixTooShort
    seen = Counter(w[a : a + k] for a in range(len(w) - k + 1))
    if naive_factors(w[: len(w) // 2], k) != set(seen) or 1 in seen.values():
        return Unsaturated
    lo, hi = k, len(w)
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if _covers(w, k, mid) else (mid + 1, hi)
    return lo


def _value_or_class(call):
    try:
        return call()
    except PermlexError as exc:
        return type(exc)


#: Up to 2000 letters, drawn often near 2000 (hypothesis favours small
#: integers), so that factors up to 130 letters long recur.
FACTOR_WINDOWS = st.one_of(
    st.integers(1, 2000), st.integers(0, 1700).map(lambda x: 2000 - x)
)

#: Finite words: any, and periodic ones long enough for long factors to recur.
FACTOR_EXPLICIT_WORDS = st.one_of(
    st.text("01", min_size=1, max_size=300),
    st.builds(
        lambda unit, size: (unit * size)[:size],
        st.text("01", min_size=1, max_size=40),
        FACTOR_WINDOWS,
    ),
)


def _factor_word(word, wrap):
    # A source and its letters from the plain string constructions: 2000 of
    # an infinite word, all of a finite one.
    kind, data = word
    if kind == "morphic":
        source, text = MorphicSource({0: data[0], 1: data[1]}), _iterate(data, 2000)
    elif kind == "sturmian":
        source, text = sturmian_characteristic(data), naive_sturmian(data, 2000)
    else:
        source, text = explicit_source(data), data
    if wrap == "double":
        return double(source), naive_double(text)
    if wrap == "complement":
        return complement(source), naive_complement(text)
    return source, text


@settings(max_examples=150, deadline=None)
@given(
    word=st.one_of(
        FIXED_POINT_WORDS, FACTOR_EXPLICIT_WORDS.map(lambda t: ("explicit", t))
    ),
    wrap=st.sampled_from([None, "double", "complement"]),
    k=st.integers(1, 130),
    window=FACTOR_WINDOWS,
)
# Factors on both sides of 62 letters, the most one int64 code of letters holds.
@example(word=("morphic", ((0, 1), (1, 0))), wrap=None, k=70, window=2000)
@example(word=("sturmian", (1,)), wrap="double", k=63, window=2000)
@example(word=("sturmian", (2, 1)), wrap="complement", k=62, window=1500)
@example(word=("explicit", "0" * 64 + "1"), wrap="double", k=1, window=2000)
@example(word=("explicit", "1" + "0" * 100), wrap=None, k=1, window=2000)
@example(word=("explicit", ("0" * 61 + "1") * 30), wrap=None, k=125, window=2000)
def test_factor_statistics_against_strings(word, wrap, k, window):
    # factors and recurrence_bound, values and error classes, against the
    # string sets of the inspected prefix.
    source, text = _factor_word(word, wrap)
    w = text[:window]
    want = PrefixTooShort if len(w) < k else naive_factors(w, k)
    assert _value_or_class(lambda: factors(source, k, window_len=window)) == want
    assert _value_or_class(
        lambda: recurrence_bound(source, k, window_len=window)
    ) == _string_recurrence(w, k)


# -- the word-spec grammar ------------------------------------------------------


@pytest.mark.parametrize(
    "spec",
    [
        "fibonacci",
        "thue-morse",
        "sturmian:2",
        "sturmian:3,1,2",
        "explicit:0110100110010110",
        "double(thue-morse)",
        "complement(double(sturmian:1))",
        "morphic:01,00",
        "morphic:0010,1",
        "morphic:11,10@1",
        "double(morphic:011,100)",
    ],
)
def test_word_spec_round_trip(spec):
    src = parse_word_spec(spec)
    again = parse_word_spec(src.spec_string())
    probe = min(64, src.max_available())
    assert again.prefix_str(probe) == src.prefix_str(probe)


@settings(max_examples=60, deadline=None)
@given(images=MORPHISMS, seed=st.integers(0, 1))
@example(images=((0, 1), (1, 0)), seed=0)  # prints as thue-morse
@example(images=((0, 1), (0, 0)), seed=1)  # period-doubling, complemented
def test_morphic_spec_string_parses_back(images, seed):
    # A seed-1 morphism is the complement of one prolongable at 0: it maps 1
    # to the complement of the image of 0.
    if seed:
        flip = {0: 1, 1: 0}
        images = tuple(tuple(flip[x] for x in images[1 - a]) for a in (0, 1))
    src = MorphicSource({0: images[0], 1: images[1]}, seed)
    spec = src.spec_string()
    assert parse_word_spec(spec).prefix_str(2000) == src.prefix_str(2000)
    again = parse_word_spec(f"complement(double({spec}))")
    assert parse_word_spec(again.spec_string()).prefix_str(999) == again.prefix_str(999)


def test_fibonacci_normalises_to_sturmian_one():
    assert fibonacci_source().spec_string() == "sturmian:1"
    assert parse_word_spec("fibonacci").prefix_str(30) == naive_fibonacci(30)


@pytest.mark.parametrize(
    "bad",
    ["", "tribonacci", "sturmian:", "sturmian:1,x", "explicit:",
     "explicit:012", "double(", "double()", "complement(tribonacci)",
     "morphic:", "morphic:01", "morphic:01,10,1", "morphic:01,2", "morphic:01,10@0",
     "morphic:01,10@"],
)
def test_word_spec_rejects_garbage(bad):
    with pytest.raises(WordSpecError):
        parse_word_spec(bad)


def test_word_spec_surfaces_directive_error():
    # Syntactically fine, semantically empty: the sharper error wins.
    with pytest.raises(InvalidDirective):
        parse_word_spec("sturmian:0")


def test_sturmian_directive_validation():
    with pytest.raises(InvalidDirective):
        sturmian_characteristic(())
    with pytest.raises(InvalidDirective):
        sturmian_characteristic((1, 0, 2))
