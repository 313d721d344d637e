"""The prefix-doubling rank engine against sort-the-substrings oracles."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from permlex import (
    HorizonExhausted,
    LimitExceeded,
    MorphicSource,
    PermlexError,
    PrefixTooShort,
    double,
    explicit_source,
    fibonacci_source,
    perm_set,
    shift_ranks,
    sturmian_characteristic,
    thue_morse_source,
    verify_image_formulas,
    window_patterns,
)
from permlex import ranking
from permlex.perms import restrict_rows
from permlex.ranking import prefix_names, separation_depth

from bruteforce import (
    naive_double,
    naive_fibonacci,
    naive_sturmian,
    naive_subperm,
    naive_thue_morse,
)


def _letters(text):
    return np.frombuffer(text.encode(), dtype=np.int8) - ord("0")


def _oracle_ranks(text, positions, horizon):
    subs = [text[p : p + horizon] for p in range(positions)]
    if len(set(subs)) < positions:
        return None
    order = sorted(range(positions), key=lambda p: subs[p])
    ranks = [0] * positions
    for r, p in enumerate(order):
        ranks[p] = r
    return ranks


def _dense(ranks):
    # ranks are only promised order-isomorphic; normalise to 0..P-1
    return np.argsort(np.argsort(ranks)).tolist()


@pytest.mark.parametrize(
    "positions,horizon",
    [(4, 8), (16, 32), (100, 64), (100, 512), (333, 80), (333, 1024)],
)
def test_shift_ranks_against_substring_sort(positions, horizon):
    for text in (naive_thue_morse(2000), naive_fibonacci(2000)):
        got = shift_ranks(_letters(text), positions, horizon)[0]
        want = _oracle_ranks(text, positions, horizon)
        if want is None:
            assert got is None
        else:
            assert got is not None and _dense(got) == want


@pytest.mark.parametrize(
    "text,positions,horizon",
    [
        # Within horizon 4 the two copies of "0101" are indistinguishable.
        pytest.param("01010110", 3, 4, id="copies"),
        # Shifts 0 and 1 agree on "000"; the fourth letter lies past the
        # horizon, so the last doubling round must not look at it.
        pytest.param("00001", 2, 3, id="horizon-not-power-of-two"),
    ],
)
def test_shift_ranks_reports_unresolved_ties(text, positions, horizon):
    assert shift_ranks(_letters(text), positions, horizon)[0] is None


def test_shift_ranks_requires_full_buffer():
    # The end of the buffer is the end of the word.  "0110", "110" and "10"
    # differ before it.
    assert _dense(shift_ranks(_letters("0110"), 3, 4)[0]) == [0, 2, 1]
    # "0" is a prefix of "0110": only the end of the word tells them apart.
    with pytest.raises(PrefixTooShort):
        shift_ranks(_letters("0110"), 4, 4)
    # There is no fifth shift.
    with pytest.raises(PrefixTooShort):
        shift_ranks(_letters("0110"), 5, 4)


def _finite_oracle(text, positions, horizon):
    # shift_ranks on the whole word ``text``: PrefixTooShort for a missing
    # shift or for a shift cut short by the end that is a prefix of another.
    if positions > len(text):
        return PrefixTooShort
    subs = [text[p : p + horizon] for p in range(positions)]
    if len(set(subs)) < positions:
        return None
    for s in subs:
        if len(s) < horizon and any(t != s and t.startswith(s) for t in subs):
            return PrefixTooShort
    return _oracle_ranks(text, positions, horizon)


_FINITE_BUFFERS = st.one_of(
    st.text("01", min_size=1, max_size=60),
    st.builds(
        lambda period, length: (period * 60)[:length],
        st.sampled_from(["0110", "01", "001", "0", "01001", "011"]),
        st.integers(1, 60),
    ),
)


@settings(max_examples=300, deadline=None)
@given(
    case=_FINITE_BUFFERS.flatmap(
        lambda text: st.tuples(
            st.just(text), st.integers(0, len(text) + 1), st.integers(1, 70)
        )
    )
)
# Shift 2, "0", runs out after one letter.  With the end sorted last, its
# key (rank 0, end) must stay below shift 1's key (rank 1, rank 0).
@example(case=("110", 3, 2))
def test_shift_ranks_on_finite_buffers_against_string_oracle(case):
    text, positions, horizon = case
    want = _finite_oracle(text, positions, horizon)
    if want is PrefixTooShort:
        with pytest.raises(PrefixTooShort):
            shift_ranks(_letters(text), positions, horizon)
        return
    got = shift_ranks(_letters(text), positions, horizon)[0]
    if want is None:
        assert got is None
    else:
        assert got is not None and _dense(got) == want


@settings(max_examples=300, deadline=None)
@given(
    case=_FINITE_BUFFERS.flatmap(
        lambda text: st.tuples(
            st.just(text), st.integers(0, len(text)), st.integers(1, 70)
        )
    )
)
# Shifts 0 and 2 agree on 8 letters, as a group of three, two and then one
# key letter a sort; only the end orders shifts 1 and 3.
@example(case=("0101010101", 4, 9))
def test_shift_ranks_sorting_few_letters_a_key_against_string_oracle(case):
    # Keys of one letter or a few: tied groups are sorted again past their
    # agreement, many levels deep, and the least tied group is the one the
    # smallest repeated key names.
    text, positions, horizon = case
    want = _finite_oracle(text, positions, horizon)
    letters = _letters(text)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ranking, "_KEY_MIN", 1)
        patch.setattr(ranking, "_KEY_BYTES", 0)
        if want is PrefixTooShort:
            with pytest.raises(PrefixTooShort):
                shift_ranks(letters, positions, horizon)
        elif want is None:
            subs = [text[p : p + horizon] for p in range(positions)]
            least = min(s for s in subs if subs.count(s) > 1)
            tied = [p for p in range(positions) if subs[p] == least]
            assert shift_ranks(letters, positions, horizon) == (None, tied)
        else:
            assert _dense(shift_ranks(letters, positions, horizon)[0]) == want


def test_shift_ranks_takes_wide_integer_letters():
    # Keys are bytes, so wider letters are narrowed first, and letters a
    # byte cannot hold are refused rather than wrapped.
    for dtype in (np.int64, np.uint16, np.int32):
        ranks = shift_ranks(np.array([0, 1, 1, 0], dtype=dtype), 3, 4)[0]
        assert _dense(ranks) == [0, 2, 1]
    assert _dense(shift_ranks(np.array([200, 2, 1]), 3, 1)[0]) == [2, 1, 0]
    with pytest.raises(PermlexError):
        shift_ranks(np.array([256, 0, 1]), 3, 1)
    with pytest.raises(PermlexError):
        shift_ranks(np.array([0, -1, 1]), 3, 1)
    # One-byte signed letters below 0 are refused too, not read as 255.
    with pytest.raises(PermlexError):
        shift_ranks(np.array([0, -1, 1, 0], dtype=np.int8), 3, 1)


def test_ranked_word_detects_periodic_words():
    # Shifts two apart of 0101... never separate: the depth that would order
    # them is past every limit, and no depth gives names that do.
    periodic = MorphicSource({0: (0, 1), 1: (0, 1)})
    with pytest.raises(HorizonExhausted):
        separation_depth(periodic, 4, 8, max_horizon=8)
    with pytest.raises(HorizonExhausted):
        window_patterns(periodic, np.arange(4), 4, 1000)


@pytest.mark.parametrize("n", [1, 2, 5, 9])
def test_window_patterns_match_naive(tm, n):
    source = thue_morse_source()
    starts = np.arange(0, 250, 7)
    rows = window_patterns(source, starts, n, separation_depth(source, n, 250 + n))
    text = naive_thue_morse(4000)
    for row, a in zip(rows, starts):
        assert tuple(int(v) for v in row) == naive_subperm(text, int(a), n)


@pytest.mark.parametrize("n", [3, 4, 9])
def test_window_patterns_refuse_a_depth_too_small(n):
    # Every window of three or more shifts of thue-morse holds two shifts
    # that begin with the same letter, so names one letter long tie.
    with pytest.raises(HorizonExhausted):
        window_patterns(thue_morse_source(), np.arange(0, 40, 3), n, 0)


def _outcome(call):
    # A call's rows, or the class of the error it raises.
    try:
        return call()
    except PermlexError as exc:
        return type(exc)


#: (build, starts, n, depth): windows whose rows come out whole, windows that
#: tie at too small a depth, and a window the end decides followed by one
#: that ties, where the tie's error wins.
_BLOCK_CASES = [
    (thue_morse_source, np.arange(0, 250, 7), 9, 3),
    (thue_morse_source, np.arange(0, 250, 7), 9, 2),
    (lambda: double(thue_morse_source()), np.arange(300), 40, 31),
    (lambda: explicit_source(naive_thue_morse(16)), np.array([12, 4, 0]), 4, 1),
]


@pytest.mark.parametrize("case", range(len(_BLOCK_CASES)))
@pytest.mark.parametrize("cells", [1, 10, 100])
def test_window_patterns_in_blocks_equal_one_block(monkeypatch, case, cells):
    # Rows, or the error class, do not depend on how starts are split into
    # blocks: a tie anywhere raises before an order the end decides.
    build, starts, n, depth = _BLOCK_CASES[case]
    whole = _outcome(lambda: window_patterns(build(), starts, n, depth))
    monkeypatch.setattr(ranking, "_BLOCK_CELLS", cells)
    split = _outcome(lambda: window_patterns(build(), starts, n, depth))
    if isinstance(whole, type):
        assert split is whole
    else:
        assert split.dtype == whole.dtype and np.array_equal(split, whole)


def test_window_patterns_errors_in_a_later_block(monkeypatch):
    # One start per block: the first blocks are sound, the last one is not.
    monkeypatch.setattr(ranking, "_BLOCK_CELLS", 1)
    tm = thue_morse_source()
    assert window_patterns(tm, [0, 2, 4], 2, 0).tolist() == [[1, 2], [2, 1], [2, 1]]
    with pytest.raises(HorizonExhausted):
        window_patterns(tm, [0, 2, 4, 1], 2, 0)  # w[1:3] = "11"
    # The last window's shifts at 60 and 63 agree until the word ends.
    prefix = naive_thue_morse(64)
    for source, error in [
        (explicit_source(prefix), PrefixTooShort),
        (thue_morse_source(hard_limit=64), LimitExceeded),
    ]:
        assert window_patterns(source, [0, 8, 16], 4, 3).shape == (3, 4)
        with pytest.raises(error):
            window_patterns(source, [0, 8, 16, 60], 4, 3)


def test_window_patterns_of_length_zero(tm):
    # The middle restriction of a doubled window at half-length 1 is empty.
    rows = window_patterns(tm, np.arange(5), 0, 0)
    assert rows.shape == (5, 0)
    assert verify_image_formulas(tm, 1, 16).ok


def test_window_patterns_with_int64_keys():
    # Names near 2**31 >> shift: packed into int32 they would wrap past
    # 2**31 and sort first, so the kernel packs them into int64.  The table
    # is the source's own, each level moved up by the same offset, which
    # keeps every order.
    n, source, starts = 9, thue_morse_source(), np.arange(0, 400, 3)
    depth = separation_depth(source, n, 400 + n)
    j, shift = depth.bit_length(), (n - 1).bit_length()
    want = window_patterns(source, starts, n, depth)
    size, levels = source._names
    top = np.iinfo(np.int32).max >> shift
    offset = top - int(levels[j].max()) // 2
    source._names = (top + size, [level + np.int32(offset) for level in levels])
    names = np.lib.stride_tricks.sliding_window_view(source._names[1][j], n)[starts]
    assert names.min() <= top < names.max()
    reference = np.argsort(np.argsort(names, axis=1), axis=1) + 1
    got = window_patterns(source, starts, n, depth)
    assert np.array_equal(got, reference) and np.array_equal(got, want)


@pytest.mark.parametrize("n, dtype", [(1, np.uint8), (255, np.uint8), (256, np.uint16)])
def test_window_patterns_rows_are_narrow(n, dtype):
    source = double(thue_morse_source())
    starts = np.array([0, 1, 37, 500])
    rows = window_patterns(source, starts, n, separation_depth(source, n, 501 + n))
    assert rows.dtype == dtype
    text = naive_double(naive_thue_morse(4000))
    for row, a in zip(rows.tolist(), starts.tolist()):
        assert tuple(row) == naive_subperm(text, a, n)


#: Infinite words and their doublings; explicit words are drawn as text.
_RESTRICTED_WORDS = {
    "tm": thue_morse_source,
    "fib": fibonacci_source,
    "double(tm)": lambda: double(thue_morse_source()),
    "double(fib)": lambda: double(fibonacci_source()),
}


@settings(max_examples=150, deadline=None)
@given(
    word=st.one_of(
        st.sampled_from(sorted(_RESTRICTED_WORDS)), st.text("01", min_size=2, max_size=40)
    ),
    starts=st.lists(st.integers(0, 80), min_size=1, max_size=8),
    n=st.integers(2, 20),
    depth=st.integers(0, 40),
    lead=st.integers(0, 1),
    trail=st.integers(0, 1),
)
# Names of the window [4, 10) of thue-morse's first 16 letters run past
# its end, and do not decide its order.
@example(word=naive_thue_morse(16), starts=[4], n=6, depth=5, lead=1, trail=1)
@example(word="double(tm)", starts=[0, 3, 77], n=20, depth=15, lead=1, trail=0)
def test_sub_windows_rank_as_the_window_restricted(word, starts, n, depth, lead, trail):
    # A trimmed window is a sub-window, so when a window has a pattern, each
    # sub-window's pattern is its restriction, as the transfer maps take it.
    if word in _RESTRICTED_WORDS:
        build, top = _RESTRICTED_WORDS[word], 81
    else:
        n = min(n, len(word))
        build, top = (lambda: explicit_source(word)), len(word) - n + 1
    starts = np.array(starts) % top
    rows = _outcome(lambda: window_patterns(build(), starts, n, depth))
    if isinstance(rows, type):
        return
    sub = window_patterns(build(), starts + lead, n - lead - trail, depth)
    assert np.array_equal(sub, restrict_rows(rows, lead, trail))


def _tails_outcome(text, starts, n, depth):
    # The string oracle of ``window_patterns`` on the finite word ``text``:
    # each shift's next 2**j letters, j = depth.bit_length(), cut at the
    # end.  Two equal ones tie; one that begins its sorted neighbour is
    # ordered only by the end.
    span = 1 << depth.bit_length()
    windows = [
        sorted((text[p : p + span], p - a) for p in range(a, a + n)) for a in starts
    ]
    pairs = [(x, y) for w in windows for (x, _), (y, _) in zip(w, w[1:])]
    if any(x == y for x, y in pairs):
        return HorizonExhausted
    if any(y.startswith(x) for x, y in pairs):
        return PrefixTooShort
    rows = np.zeros((len(starts), n), dtype=np.int64)
    for row, w in zip(rows, windows):
        row[[column for _, column in w]] = np.arange(1, n + 1)
    return rows


@settings(max_examples=150, deadline=None)
@given(
    text=st.text("01", min_size=1, max_size=40),
    n=st.integers(1, 12),
    depth=st.integers(0, 48),
    seed=st.integers(0, 2**32 - 1),
    cells=st.sampled_from([1, 5, 40]),
)
@example(text=naive_thue_morse(64), n=4, depth=3, seed=0, cells=1)
@example(text="0101", n=3, depth=1, seed=0, cells=1)
# Few of the windows the end reaches are ordered by it, so each must be
# checked on its own row.
@example(text="0010010110100111001001011001011", n=5, depth=9, seed=1, cells=5)
def test_window_patterns_of_every_start_against_sorted_tails(text, n, depth, seed, cells):
    # Every start of a finite word, shuffled and split over blocks, then
    # fewer of them: the windows the end orders are found wherever their
    # rows fall among the others.
    n = min(n, len(text))
    rng = np.random.default_rng(seed)
    every = rng.permutation(len(text) - n + 1)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ranking, "_BLOCK_CELLS", cells)
        for starts in (every, every[: rng.integers(1, every.size + 1)]):
            got = _outcome(lambda: window_patterns(explicit_source(text), starts, n, depth))
            want = _tails_outcome(text, starts.tolist(), n, depth)
            if isinstance(want, type):
                assert got is want
            else:
                assert np.array_equal(got, want)


def test_sturmian_60_1_counts_from_letters():
    # Far-apart shifts of sturmian:60,1 agree on more letters than any
    # lookahead limit allows; no window holds them, so no count needs them.
    counts = [perm_set(sturmian_characteristic((60, 1)), n).count for n in range(2, 7)]
    assert counts == [2, 3, 4, 5, 6]  # Makarov: n patterns of length n


# -- prefix names ------------------------------------------------------------------

#: Infinite words with their string oracles.
_NAMED_WORDS = {
    "tm": (thue_morse_source, naive_thue_morse),
    "fib": (fibonacci_source, naive_fibonacci),
    "st31": (
        lambda: sturmian_characteristic((3, 1)),
        lambda m: naive_sturmian((3, 1), m),
    ),
}

#: 1, 2**j, 2**j + 1 and 2**(j+1) - 1 for j up to 7.
_NAME_LENGTHS = st.integers(0, 7).flatmap(
    lambda j: st.sampled_from([1, 2**j, 2**j + 1, 2 ** (j + 1) - 1])
)


def _named_word(word, cut):
    # A fresh source and its text as a function of the letters needed: an
    # infinite word, or, with ``cut``, an explicit word of its first ``cut``
    # letters, or the explicit word ``word``.
    if word not in _NAMED_WORDS:
        return explicit_source(word), lambda m: word
    build, text = _NAMED_WORDS[word]
    if cut is None:
        return build(), text
    prefix = text(cut)
    return explicit_source(prefix), lambda m: prefix


@settings(max_examples=80, deadline=None)
@given(
    word=st.one_of(
        st.sampled_from(sorted(_NAMED_WORDS)), st.text("01", min_size=1, max_size=60)
    ),
    cut=st.one_of(st.none(), st.integers(1, 300)),
    requests=st.lists(
        st.tuples(st.integers(1, 300), _NAME_LENGTHS), min_size=1, max_size=3
    ),
)
# The second request outgrows the table the first built, which then names
# the first request's factors again.
@example(word="tm", cut=None, requests=[(8, 3), (600, 100), (8, 3)])
def test_prefix_names_sort_as_the_factors_do(word, cut, requests):
    # Over every pair of positions, the sign of the key difference is the
    # comparison of the factors as strings, in which a factor cut short by a
    # finite word's end sorts before every longer one it begins.
    source, text = _named_word(word, cut)
    for positions, length in requests:
        whole = text(positions + length)
        positions = min(positions, len(whole))
        keys = prefix_names(source, np.arange(positions), length)
        factors = [whole[a : a + length] for a in range(positions)]
        order = {f: r for r, f in enumerate(sorted(set(factors)))}
        want = np.array([order[f] for f in factors])
        assert np.array_equal(
            np.sign(keys[:, None] - keys[None, :]),
            np.sign(want[:, None] - want[None, :]),
        )
        size, levels = source._names
        assert positions - 1 + length <= size or size == source.max_available()
        assert all(level.dtype == np.int32 for level in levels)



def test_prefix_names_of_a_long_word_with_many_factors():
    # Over 2**16 positions whose 32-letter factors are nearly all distinct,
    # a name times the table's size passes 2**31, so the packed keys must be
    # made in int64 even from int32 levels.
    rng = np.random.default_rng(7)
    text = "".join(map(str, rng.integers(0, 2, 70_000)))
    length = 32
    positions = len(text) - length + 1
    keys = prefix_names(explicit_source(text), np.arange(positions), length)
    factors = [text[a : a + length] for a in range(positions)]
    order = {f: r for r, f in enumerate(sorted(set(factors)))}
    want = np.array([order[f] for f in factors])
    assert len(order) * positions > 2**31
    assert np.array_equal(np.unique(keys, return_inverse=True)[1].ravel(), want)


def _unique_from_sort(keys, top):
    # np.unique's return_index, return_inverse and return_counts, read from
    # ``_sort_with_index`` as ``_merge`` and ``perms._pattern_rows`` read it.
    value, index = ranking._sort_with_index(keys.copy(), top)
    change = np.ones(value.size, dtype=bool)
    change[1:] = value[1:] != value[:-1]
    bounds = np.flatnonzero(change)
    inverse = np.empty(value.size, dtype=np.int64)
    inverse[index] = np.cumsum(change) - 1
    return value[bounds], index[bounds], inverse, np.diff(bounds, append=value.size)


def _assert_sort_with_index_matches_numpy(keys, top):
    value, index = ranking._sort_with_index(keys.copy(), top)
    assert np.array_equal(value, np.sort(keys))
    assert np.array_equal(index, np.argsort(keys, kind="stable"))
    want = np.unique(keys, return_index=True, return_inverse=True, return_counts=True)
    for got, expected in zip(_unique_from_sort(keys, top), want):
        assert np.array_equal(got, expected.ravel())


@pytest.mark.parametrize("size", [2, 3, 100, 8192, 9000])
@pytest.mark.parametrize("top", [2, 50, 2**20, 2**40])
def test_sort_with_index_matches_numpy_unique(size, top):
    keys = np.random.default_rng(size * 31 + top.bit_length()).integers(0, top, size)
    _assert_sort_with_index_matches_numpy(keys, top)


@pytest.mark.parametrize(
    "keys", [np.empty(0, np.int64), np.array([5]), np.array([0]), np.full(7, 3)]
)
def test_sort_with_index_of_edge_inputs(keys):
    _assert_sort_with_index_matches_numpy(keys, 8)


def test_sort_with_index_of_wide_keys():
    # Keys near 2**62 leave no bits below bit 63 for the index, so the
    # helper sorts them with a stable argsort; packed, they would overflow.
    # The same small keys under a wide bound take that branch too.
    rng = np.random.default_rng(3)
    keys = (1 << 62) + rng.integers(0, 4, 9)
    _assert_sort_with_index_matches_numpy(keys, (1 << 62) + 4)
    small = rng.integers(0, 5, 40)
    assert np.array_equal(
        ranking._sort_with_index(small.copy(), 1 << 62)[1],
        ranking._sort_with_index(small.copy(), 5)[1],
    )


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
@pytest.mark.parametrize(
    "size, step", [(0, 1), (1, 1), (89, 1), (89, 8), (300, 64), (7, 7), (7, 20)]
)
def test_merge_matches_a_numpy_unique_reference(dtype, size, step):
    # A rank past the buffer stands below every other.
    rng = np.random.default_rng(size + step)
    rank = rng.integers(0, max(size // 3, 1), size).astype(dtype)
    shifted = np.full(size, -1, dtype=np.int64)
    shifted[: max(size - step, 0)] = rank[step:]
    key = rank.astype(np.int64) * (size + 2) + shifted + 1
    want = np.unique(key, return_inverse=True)[1].ravel()
    assert np.array_equal(ranking._merge(rank, step), want)
