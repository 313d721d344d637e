"""Lexicographic ranking of word shifts: the one ranking engine.

``shift_ranks`` orders the first P shifts of a letter buffer by prefix
doubling: start from single-letter ranks and repeatedly merge each rank with
the rank a few positions on (one sort of one integer key per doubling, the
last round shortened), so that ranks compare exactly ``horizon`` letters.  It
returns ``None`` only when two shifts agree on all ``horizon`` letters.  The
end of the buffer is the end of the word: two shifts that agree until it
raise ``PrefixTooShort``, since no further letter can order them.

``rank_span`` is the one horizon loop.  It ranks a span of shifts of a
source, doubling the horizon up to a limit and reading letters only as far
as the source supplies them.  Its two callers are ``global_ranks``, which
grows the one table of global ranks a source owns as plain data
(``WordSource._ranks``), and ``perms.subpermutation``, which ranks the
shifts of a single window.  A table that ranks P shifts gives the order of
every shorter prefix of positions, so a request no larger than the table is
a slice, and a larger one at least doubles the table.  The bulk paths ask
only for the shifts up to their last factor representative's window.

``separation_depth`` reads how far shifts less than n apart agree over a
scan's shifts from letters alone, out of ``WordSource._agreement``.

``prefix_names`` keys factors of any length for grouping, out of a third
table on the source, ``WordSource._names``: Karp, Miller & Rosenberg's names
of the 2**j-letter factors, level j+1 made from level j by the same merge
step (``_merge``) that ``shift_ranks`` doubles with, so the engine has one
prefix-doubling step.  A factor of length L is a pair of names at level
floor(log2 L), packed into one int64 key that sorts as the factor does.
"""

from __future__ import annotations

import numpy as np

from .errors import HorizonExhausted, PermlexError, PrefixTooShort
from .words import WordSource

#: Default lookahead for scalar shift comparisons; bulk ranking scales its
#: horizon with the number of positions instead (see global_ranks).
DEFAULT_MAX_HORIZON = 4096


def shift_ranks(
    letters: np.ndarray, positions: int, horizon: int
) -> np.ndarray | None:
    """Ranks of the first ``positions`` shifts of ``letters``, comparing
    exactly ``horizon`` letters.

    Returned ranks are order-isomorphic integers (they say how shifts compare,
    not where they sit in ``0..positions-1``).  Returns ``None`` when two
    shifts agree on ``horizon`` letters; the caller decides whether to retry
    with more lookahead or give up.  The end of ``letters`` is the end of the
    word: when two shifts agree until it, ``PrefixTooShort`` is raised.
    """
    if positions == 0:
        return np.empty(0, dtype=np.int64)
    if letters.size < positions:
        raise PrefixTooShort(
            f"cannot rank {positions} shifts: only {letters.size} letters exist"
        )
    first = _ranks_with_end(letters, positions, horizon, -1)
    if first is None or letters.size >= positions + horizon:
        return first
    # A shift may run out within the horizon.  Only a pair that agrees until
    # the word ends is ordered by where the end sorts, so rank again with the
    # end sorted last and require the same order.
    last = _ranks_with_end(letters, positions, horizon, letters.size)
    if not np.array_equal(np.argsort(first), np.argsort(last)):
        raise PrefixTooShort(
            f"two of {positions} shifts agree until the word ends "
            f"after {letters.size} letters"
        )
    return first


def _ranks_with_end(
    letters: np.ndarray, positions: int, horizon: int, end: int
) -> np.ndarray | None:
    # Prefix doubling with ``end`` (-1 or the buffer's size) standing for the
    # letters past the buffer: after each merge the ranks compare ``width +
    # step`` letters.
    rank = letters.astype(np.int64)
    width = 1
    while True:
        head = rank[:positions]
        if np.bincount(head).max() == 1:
            return head.copy()
        if width >= horizon:
            return None
        step = min(width, horizon - width)
        rank = _merge(rank, step, end)
        width += step


def _merge(rank: np.ndarray, step: int, end: int) -> np.ndarray:
    # The one prefix-doubling step: the dense rank of the pair (rank[x],
    # rank[x + step]), with ``end`` (-1 or the buffer's size) standing for
    # the ranks past the buffer.  Ranks are below ``total``, so the pair
    # packs into one int64 key below (total + 2)**2 and np.unique's inverse
    # ranks it.  ``rank`` is widened first: the name table's int32 levels,
    # times a scalar, stay int32 under numpy 1.x and would wrap.
    total = rank.size
    shifted = np.full(total, end, dtype=np.int64)
    shifted[: max(total - step, 0)] = rank[step:]
    key = rank.astype(np.int64, copy=False) * (total + 2) + shifted + 1
    return np.unique(key, return_inverse=True)[1]


def rank_span(
    source: WordSource, start: int, positions: int, horizon: int, limit: int
) -> np.ndarray:
    """Ranks of the shifts ``start .. start+positions-1`` of ``source``.

    Doubles the horizon from ``horizon`` up to ``limit`` until every pair
    separates, reading letters only as far as the source supplies them.
    Raises ``HorizonExhausted`` when two shifts agree on ``limit`` letters
    and ``PrefixTooShort`` when two agree until the word ends.
    """
    horizon = min(horizon, limit)
    while True:
        stop = min(start + positions + horizon, source.max_available())
        try:
            got = shift_ranks(source.letters(stop)[start:], positions, horizon)
        except PrefixTooShort as exc:
            raise PrefixTooShort(f"{source.spec_string()} at {start}: {exc}") from None
        if got is not None:
            return got
        if horizon >= limit:
            raise HorizonExhausted(
                f"shifts {start}..{start + positions - 1} of "
                f"{source.spec_string()} do not separate within {limit} letters"
            )
        horizon = min(2 * horizon, limit)


def global_ranks(
    source: WordSource, positions: int, max_horizon: int = DEFAULT_MAX_HORIZON
) -> np.ndarray:
    """Global ranks of shifts ``0..positions-1`` of ``source``, from the one
    table the source owns, grown on demand.

    A table that ranks P shifts serves every request for at most P.  A larger
    request ranks at least twice the positions already held, so a sweep over
    growing lengths ranks O(log n) times rather than once per request.  Each
    call's ``max_horizon`` governs only the growth that call asks for.  A
    growth past the request that fails is remembered with its letter limit
    (``WordSource._ranks_failed``); one at least as large is tried again only
    with at least twice that limit, so a sweep retries a failed growth once
    its budget has doubled, not once per request.  While growths fail, each
    request ranks exactly its own positions.
    """
    held = source._ranks
    if positions <= held.size:
        return held[:positions]
    # Start at 2P letters; rank_span doubles the horizon on a tie.
    limit = max(16 * positions, 4 * max_horizon)
    grown = max(positions, 2 * held.size)
    failed, failed_limit = source._ranks_failed
    if grown >= failed and limit < 2 * failed_limit:
        grown = positions
    try:
        got = rank_span(source, 0, grown, 2 * grown, limit)
    except PermlexError:
        # Shifts past the request may run out or tie; the exact request
        # alone decides errors and the behaviour of finite words.
        if grown == positions:
            raise
        source._ranks_failed = (grown, limit)
        got = rank_span(source, 0, positions, 2 * positions, limit)
    got.setflags(write=False)
    source._ranks = got
    return got[:positions]


def prefix_names(
    source: WordSource, positions: np.ndarray, length: int
) -> np.ndarray:
    """One int64 key per position: two keys are equal exactly when the
    ``length``-letter factors at their positions are, and they sort as those
    factors do.

    Karp, Miller & Rosenberg's names: with 2**j <= length < 2**(j+1), the
    factor ``w[a, a+length)`` is the pair of overlapping 2**j-letter factors
    at ``a`` and ``a + length - 2**j``, each named by level j of the table the
    source owns.  A finite word's factors stop at its end, and one cut short
    sorts before every longer factor it begins, as the end sentinel -1 does
    in ``shift_ranks``.  The caller keeps every factor within
    ``source.max_available()``, as ``perms._factor_groups`` does.
    """
    positions = np.asarray(positions, dtype=np.int64)
    j = length.bit_length() - 1
    size, levels = _name_levels(source, int(positions.max()) + length, j)
    head = levels[j]
    # A factor cut shorter than 2**j by the word's end has a head name no
    # other position shares, so its tail name, clipped to the table, never
    # decides an order.
    tail = np.minimum(positions + (length - (1 << j)), size - 1)
    return head[positions].astype(np.int64) * np.int64(size) + head[tail]


def _name_levels(
    source: WordSource, reach: int, j: int
) -> tuple[int, list[np.ndarray]]:
    # The source's name table, grown to hold the factors ending by ``reach``
    # and 2**j letters long.  ``WordSource._names = (size, levels)``: level i
    # ranks the 2**i-letter factors at the shifts [0, size), cut at the
    # table's end; a factor that ends by ``size`` is named exactly.  A table
    # too small is rebuilt at twice the reach, and stops at a finite word's end.
    size, levels = source._names
    end = source.max_available()
    if size < min(reach, end):
        size = min(2 * reach, end)
        levels = [source.letters(size).astype(np.int32)]
    while len(levels) <= j:
        step = 1 << (len(levels) - 1)
        levels.append(_merge(levels[-1], step, -1).astype(np.int32))
    source._names = (size, levels)
    return size, levels


def separation_depth(
    source: WordSource, n: int, reach: int, max_horizon: int = DEFAULT_MAX_HORIZON
) -> int:
    """The separation depth H(n): the longest agreement of two of the shifts
    ``[0, reach)`` less than ``n`` apart, read from letters alone.

    Comparing two shifts of a window ``[a, a+n)`` reads letters only up to
    their first difference, so when the window's shifts lie below ``reach``
    its pattern is fixed by the factor ``w[a, a+n+H)``.  The source holds
    ``_agreement = (over, runs)``: ``runs[d]`` is the longest run of ``w[i]
    == w[i+d]`` with ``i + d < over``.  A depth over more shifts is a safe
    overestimate, so a request past the table is measured at twice its
    distance and reach, the reach of the scan's next doubling.  A run that
    reaches a finite word's end raises ``PrefixTooShort``, and one longer
    than ``global_ranks``' limit raises ``HorizonExhausted``.
    """
    over, runs = source._agreement
    if n > runs.size or reach > over:
        limit = max(16 * reach, 4 * max_horizon)  # as global_ranks sets it
        grown = (max(2 * n, runs.size), max(2 * reach, over))
        try:
            source._agreement = (grown[1], _agreement_runs(source, *grown, limit))
        except (HorizonExhausted, PrefixTooShort):
            # Pairs past the request may run out or agree too long; the
            # exact request alone decides errors.
            source._agreement = (reach, _agreement_runs(source, n, reach, limit))
    return int(source._agreement[1][:n].max())


def _agreement_runs(
    source: WordSource, size: int, reach: int, limit: int
) -> np.ndarray:
    # Longest agreement at each distance below ``size`` over [0, reach).
    cap = min(source.max_available(), reach + limit)
    w = source.letters(min(reach + size + 64, cap))
    runs = np.zeros(size, dtype=np.int64)
    for d in range(1, min(size, reach)):
        run = _longest_agreement(w, d, reach)
        while run is None and w.size < cap:
            w = source.letters(min(2 * w.size, cap))
            run = _longest_agreement(w, d, reach)
        if run is None or run > limit:
            pair = f"shifts {d} apart among the first {reach} of {source.spec_string()}"
            if run is None and w.size == source.max_available():
                raise PrefixTooShort(f"{pair} agree until the word ends")
            raise HorizonExhausted(f"{pair} do not separate within {limit} letters")
        runs[d] = run
    return runs


def _longest_agreement(w: np.ndarray, d: int, positions: int) -> int | None:
    # Longest run of w[i] == w[i+d] starting at some i < positions - d, or
    # None when the last of those runs does not end within ``w``.
    breaks = np.flatnonzero(w[: w.size - d] != w[d:])
    last = np.searchsorted(breaks, positions - d - 1)
    if last == breaks.size:
        return None
    ends = breaks[: last + 1]
    # The first run ends at the first break, each later one at the next.
    return max(int(ends[0]), int((ends[1:] - ends[:-1]).max(initial=1)) - 1)


def window_patterns(ranks: np.ndarray, starts: np.ndarray, n: int) -> np.ndarray:
    """Rank patterns (rows of values 1..n) of the length-``n`` windows at ``starts``.

    ``ranks`` must cover every index in ``starts + n - 1`` and be
    pairwise distinct there, as ``global_ranks`` guarantees; with no
    ties to break, the sort need not be stable.
    """
    windows = np.lib.stride_tricks.sliding_window_view(ranks, n)[starts]
    order = np.argsort(windows, axis=1)
    patterns = np.empty(order.shape, dtype=np.int64)
    rows = np.arange(order.shape[0])[:, None]
    patterns[rows, order] = np.arange(1, n + 1)[None, :]
    return patterns
