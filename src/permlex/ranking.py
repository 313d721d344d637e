"""Bulk lexicographic ranking of word shifts.

``shift_ranks`` orders the first P shifts of a word by prefix doubling: start
from single-letter ranks and repeatedly merge each rank with the rank offset
by the current width (one Manber-Myers round per doubling), stopping as soon
as the first P ranks are pairwise distinct.  A rank computed this way is
exact for every pair of shifts that separates within the supplied horizon,
provided the letter buffer extends ``horizon`` letters past position P.

For an aperiodic word every pair of shifts eventually separates, so
termination is a matter of lookahead; :class:`RankedWord` grows the horizon
geometrically and gives up only past a generous multiple of the requested
span (which would indicate a periodic or pathologically repetitive word).
It keeps one rank table per word: ranks of the first P shifts already give
the order of every shorter prefix of positions, so a request no larger than
the table is a slice, and a larger one at least doubles the table.
"""

from __future__ import annotations

import weakref

import numpy as np

from .errors import HorizonExhausted, PermlexError, PrefixTooShort
from .words import WordSource

#: Default lookahead for scalar shift comparisons; bulk ranking scales its
#: horizon with the number of positions instead (see RankedWord.ranks).
DEFAULT_MAX_HORIZON = 4096


def shift_ranks(
    letters: np.ndarray, positions: int, horizon: int
) -> np.ndarray | None:
    """Ranks of the first ``positions`` shifts of ``letters``.

    Returned ranks are order-isomorphic integers (they say how shifts compare,
    not where they sit in ``0..positions-1``).  Returns ``None`` when the
    horizon could not separate every pair; the caller decides whether to retry
    with more lookahead or give up.
    """
    if positions == 0:
        return np.empty(0, dtype=np.int64)
    if letters.size < positions + horizon:
        raise PrefixTooShort(
            f"ranking {positions} shifts with horizon {horizon} needs "
            f"{positions + horizon} letters, got {letters.size}"
        )
    total = letters.size
    rank = letters.astype(np.int64)
    width = 1
    while True:
        head = rank[:positions]
        if np.unique(head).size == positions:
            return head.copy()
        if width >= horizon:
            return None
        # Merge rank[x] with rank[x + width]; -1 marks truncated tails, which
        # only affects positions too close to the buffer end to matter here.
        shifted = np.full(total, -1, dtype=np.int64)
        shifted[: total - width] = rank[width:]
        order = np.lexsort((shifted, rank))
        key_a = rank[order]
        key_b = shifted[order]
        bumps = np.empty(total, dtype=np.int64)
        bumps[0] = 0
        bumps[1:] = np.cumsum(
            (np.diff(key_a) != 0) | (np.diff(key_b) != 0)
        )
        merged = np.empty(total, dtype=np.int64)
        merged[order] = bumps
        rank = merged
        width *= 2


class RankedWord:
    """One growing table of global shift ranks for a word source.

    A table that ranks P shifts serves every request for at most P.  A larger
    request ranks at least twice the positions already held, so a sweep over
    growing lengths ranks O(log n) times rather than once per request.  Use
    :meth:`of` to share one table per source and horizon.
    """

    def __init__(self, source: WordSource, max_horizon: int = DEFAULT_MAX_HORIZON):
        self.source = source
        self.max_horizon = int(max_horizon)
        self._count = 0
        self._ranks = np.empty(0, dtype=np.int64)

    @classmethod
    def of(
        cls, source: WordSource, max_horizon: int = DEFAULT_MAX_HORIZON
    ) -> "RankedWord":
        """The table owned by ``source``; it sees its source through a weak
        proxy, so the pair forms no reference cycle."""
        cached = source._ranker
        if cached is None or cached.max_horizon != max_horizon:
            cached = cls(weakref.proxy(source), max_horizon)
            source._ranker = cached
        return cached

    def ranks(self, positions: int) -> np.ndarray:
        """Global ranks of shifts ``0..positions-1``, growing on demand."""
        if positions <= self._count:
            return self._ranks[:positions]
        # Aperiodic binary words separate positions a < b < P well within a
        # small multiple of P letters, so start past the configured horizon
        # and double a few times before declaring the word periodic-looking.
        first = max(self.max_horizon, 2 * positions)
        cap = max(16 * positions, 4 * self.max_horizon)
        limit = first
        while limit < cap:
            limit *= 2
        # Grow geometrically, but only as far as the source supplies letters
        # for a full horizon, and with no more lookahead than the exact
        # request may use: the larger request then cannot succeed where the
        # exact one fails, and the exact request alone decides errors and the
        # behaviour of finite words.
        available = self.source.max_available()
        grown = min(2 * self._count, available - self.max_horizon, available // 3)
        if grown > positions:
            try:
                self._rank(grown, min(limit, available - grown))
            except PermlexError:
                self._rank(positions, limit)
        else:
            self._rank(positions, limit)
        return self._ranks[:positions]

    def _rank(self, positions: int, limit: int) -> None:
        """Rank ``positions`` shifts, doubling the horizon up to ``limit``."""
        horizon = min(max(self.max_horizon, 2 * positions), limit)
        while True:
            available = self.source.max_available()
            need = positions + horizon
            clamped = need > available
            if clamped:
                horizon = available - positions
                if horizon <= 0:
                    raise PrefixTooShort(
                        f"cannot rank {positions} shifts of "
                        f"{self.source.spec_string()}: only {available} letters exist"
                    )
                need = available
            got = shift_ranks(self.source.letters(need), positions, horizon)
            if got is not None:
                got.setflags(write=False)
                self._ranks = got
                self._count = positions
                return
            if clamped:
                raise PrefixTooShort(
                    f"shifts of {self.source.spec_string()} did not separate "
                    f"before the word ran out ({available} letters)"
                )
            if horizon >= limit:
                raise HorizonExhausted(
                    f"shifts of {self.source.spec_string()} agree beyond "
                    f"{horizon} letters; the word looks periodic"
                )
            horizon = min(2 * horizon, limit)


def window_patterns(
    global_ranks: np.ndarray, starts: np.ndarray, n: int
) -> np.ndarray:
    """Rank patterns (rows of values 1..n) of the length-``n`` windows at ``starts``.

    ``global_ranks`` must cover every index in ``starts + n - 1`` and be
    pairwise distinct there, as :meth:`RankedWord.ranks` guarantees; with no
    ties to break, the sort need not be stable.
    """
    windows = np.lib.stride_tricks.sliding_window_view(global_ranks, n)[starts]
    order = np.argsort(windows, axis=1)
    patterns = np.empty(order.shape, dtype=np.int64)
    rows = np.arange(order.shape[0])[:, None]
    patterns[rows, order] = np.arange(1, n + 1)[None, :]
    return patterns
