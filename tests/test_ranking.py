"""The prefix-doubling rank engine against sort-the-substrings oracles."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from permlex import (
    HorizonExhausted,
    MorphicSource,
    PermlexError,
    PrefixTooShort,
    double,
    explicit_source,
    fibonacci_source,
    global_ranks,
    perm_set,
    shift_ranks,
    sturmian_characteristic,
    thue_morse_source,
    window_patterns,
)
from permlex import ranking
from permlex.ranking import prefix_names

from bruteforce import (
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
        got = shift_ranks(_letters(text), positions, horizon)
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
    assert shift_ranks(_letters(text), positions, horizon) is None


def test_shift_ranks_requires_full_buffer():
    # The end of the buffer is the end of the word.  "0110", "110" and "10"
    # differ before it.
    assert _dense(shift_ranks(_letters("0110"), 3, 4)) == [0, 2, 1]
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
    got = shift_ranks(_letters(text), positions, horizon)
    if want is None:
        assert got is None
    else:
        assert got is not None and _dense(got) == want


def test_ranked_word_grows_horizon(tm):
    ranks = global_ranks(thue_morse_source(), 600, max_horizon=4)
    assert np.unique(ranks).size == 600
    # and agrees with a straight scan comparison on a sample
    text = naive_thue_morse(4000)
    for a, b in [(0, 1), (5, 300), (17, 512), (598, 2)]:
        scan = -1 if text[a:] < text[b:] else 1
        assert (ranks[a] - ranks[b] < 0) == (scan < 0)


def test_ranked_word_detects_periodic_words():
    periodic = MorphicSource({0: (0, 1), 1: (0, 1)})
    with pytest.raises(HorizonExhausted):
        global_ranks(periodic, 4, max_horizon=8)


@pytest.mark.parametrize("n", [1, 2, 5, 9])
def test_window_patterns_match_naive(tm, n):
    ranks = global_ranks(thue_morse_source(), 260 + n)
    starts = np.arange(0, 250, 7)
    rows = window_patterns(ranks, starts, n)
    text = naive_thue_morse(4000)
    for row, a in zip(rows, starts):
        assert tuple(int(v) for v in row) == naive_subperm(text, int(a), n)


def _doubled_thue_morse():
    return double(thue_morse_source())


def _grown_then_fresh(build, requests, positions):
    source = build()
    for p in requests:
        global_ranks(source, p)
    fresh = global_ranks(build(), positions)
    return source, global_ranks(source, positions), fresh


def test_ranked_word_grows_its_table_geometrically():
    source, got, fresh = _grown_then_fresh(thue_morse_source, [1000, 1500], 1200)
    assert source._ranks.size == 2000
    assert got.size == 1200
    assert _dense(got) == _dense(fresh)


def test_global_ranks_are_views_of_the_table_their_source_owns():
    source = thue_morse_source()
    # A call with its own lookahead grows the one table; a later call with
    # the default lookahead is served from it.
    first, second = global_ranks(source, 300, 65536), global_ranks(source, 200)
    assert np.shares_memory(first, second)
    assert np.array_equal(first[:200], second)


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from([thue_morse_source, fibonacci_source, _doubled_thue_morse]),
    st.lists(st.integers(min_value=1, max_value=3000), min_size=1, max_size=6),
    st.integers(min_value=1, max_value=3000),
)
def test_grown_table_is_order_isomorphic_to_fresh(build, requests, positions):
    _, got, fresh = _grown_then_fresh(build, requests, positions)
    assert got.size == positions
    assert _dense(got) == _dense(fresh)


def test_a_failed_growth_is_retried_only_at_twice_its_limit(monkeypatch):
    # Each row of this sweep asks for one position more than the table holds.
    # Twice the first request ties within the growth's limit; that size and
    # limit are remembered, so later rows rank exactly what they ask for.
    failed = []
    counted = ranking.rank_span

    def counting(source, start, positions, horizon, limit):
        try:
            return counted(source, start, positions, horizon, limit)
        except PermlexError:
            failed.append(positions)
            raise

    monkeypatch.setattr(ranking, "rank_span", counting)
    source = sturmian_characteristic((60, 1))
    counts = [perm_set(source, n).count for n in range(2, 7)]
    assert counts == [2, 3, 4, 5, 6]  # Makarov: n patterns of length n
    assert len(failed) <= 1
    # At twice the failed growth's letter limit or more, the growth is tried
    # again, and here it separates.
    held = source._ranks.size
    global_ranks(source, held + 1, max_horizon=60_000)
    assert source._ranks.size == 2 * held
    assert len(failed) <= 1


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
