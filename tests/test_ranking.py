"""The prefix-doubling rank engine against sort-the-substrings oracles."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from permlex import (
    HorizonExhausted,
    MorphicSource,
    PrefixTooShort,
    double,
    fibonacci_source,
    global_ranks,
    shift_ranks,
    thue_morse_source,
    window_patterns,
)

from bruteforce import naive_fibonacci, naive_subperm, naive_thue_morse


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
