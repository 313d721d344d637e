"""Permutation patterns induced by comparing shifts of a word.

The window ``[a, a+n)`` of a word gets the pattern whose i-th entry is the
1-based rank of the shift starting at ``a+i`` among the window's shifts under
lexicographic order.  One pattern is a tuple of ints; the bulk paths hold
many as the rows of an unsigned array (``PermSet.rows``).

Two routines of one ranking engine compute patterns.  ``subpermutation``
sorts the shifts of one window by their next letters as byte strings
(``ranking.shift_ranks``), one sort a round, each past the last tie.  The
bulk path, ``_pattern_rows``, sorts one window per distinct factor of
length n+H (H the separation depth over the scan, measured from letters by
``ranking.separation_depth``; starts grouped by factor with
``ranking._factor_groups``), ordering each window's shifts by their names
2**j >= H+1 letters long (``ranking.window_patterns``), so it compares only
shifts that share a window.  Both bulk callers share ``_pattern_rows``:
enumeration (``perm_set``), each of whose saturation rounds is one call
over the doubled scan, and the transfer audits.  ``compare_shifts`` orders a
single pair and names the offset where the two shifts first differ.
Every path keeps the one agreement rule of ``ranking``, so the scalar and
the bulk paths give the same pattern or raise the same error class.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DomainError,
    HorizonExhausted,
    LengthTooSmall,
    LimitExceeded,
    PrefixTooShort,
    WrongSource,
)
from . import ranking
from .ranking import (
    DEFAULT_MAX_HORIZON,
    _agreement_limit,
    _factor_groups,
    _out_of_letters,
    separation_depth,
    window_patterns,
)
from .words import DoubledSource, WordSource

Perm = tuple[int, ...]

#: Return values of compare_shifts: the shift at ``a`` comes first / second.
LESS = -1
GREATER = 1

#: Default number of window start positions scanned during enumeration.
DEFAULT_SCAN_WINDOW = 4096


def is_permutation(p: Perm) -> bool:
    return sorted(p) == list(range(1, len(p) + 1))


def format_perm(p: Perm) -> str:
    return "(" + " ".join(str(v) for v in p) + ")"


def parse_perm(text: str) -> Perm:
    """Read a pattern like ``(4 9 7 2 6 1 3 8 5)`` (parens/commas optional)."""
    cleaned = text.strip().strip("()").replace(",", " ")
    try:
        p = tuple(int(tok) for tok in cleaned.split())
    except ValueError as exc:
        raise DomainError(f"cannot parse permutation from {text!r}") from exc
    if not p or not is_permutation(p):
        raise DomainError(f"{text!r} is not a permutation of 1..n")
    return p


def _first_difference(source: WordSource, a: int, b: int, span: int) -> int | None:
    # The first offset below ``span`` where the shifts at ``a`` and ``b``
    # differ, or None: 64 offsets, then doubling slices.
    top = max(a, b)
    lo, hi = 0, min(64, span)
    while lo < hi:
        w = source.letters(top + hi)
        diff = np.flatnonzero(w[a + lo : a + hi] != w[b + lo : b + hi])
        if diff.size:
            return lo + int(diff[0])
        lo, hi = hi, min(2 * hi, span)
    return None


def compare_shifts(
    source: WordSource, a: int, b: int, max_horizon: int = DEFAULT_MAX_HORIZON
) -> tuple[int, int]:
    """Order the shifts starting at ``a`` and ``b`` lexicographically.

    Returns ``(ordering, witness)``: ordering is LESS (-1) when the shift at
    ``a`` comes first and GREATER (+1) otherwise; witness is the offset of the
    first differing letter.  Raises ``HorizonExhausted`` if the shifts agree
    on more than ``ranking._agreement_limit`` letters, at the reach
    ``max(a, b) + 1``, and ``ranking._out_of_letters`` if the letters run
    out first.  The scan reads 64 offsets, then doubling slices, so the
    prefix grows only as far as the first difference needs.
    """
    if a < 0 or b < 0:
        raise DomainError("shift positions must be nonnegative")
    if a == b:
        raise DomainError("shifts at equal positions are identical")
    top, end = max(a, b), source.max_available()
    if top >= end:
        raise _out_of_letters(
            source, f"the shift at {top} starts past all {end} letters"
        )
    limit = _agreement_limit(top + 1, max_horizon)
    # Shifts that agree on all of the offsets 0..limit agree on more than it.
    span = min(limit + 1, end - top)
    c = _first_difference(source, a, b, span)
    if c is not None:
        w = source.letters(top + c + 1)
        return (LESS if w[a + c] < w[b + c] else GREATER, c)
    pair = f"shifts at {a} and {b} of {source.spec_string()}"
    if span <= limit:
        raise _out_of_letters(source, f"{pair} agree until the last letter")
    raise HorizonExhausted(f"{pair} agree on more than {limit} letters")


def subpermutation(
    source: WordSource, a: int, n: int, max_horizon: int = DEFAULT_MAX_HORIZON
) -> Perm:
    """Pattern of the window ``[a, a+n)``: entry i is the rank of shift ``a+i``.

    One sort of the shifts' next 64 letters (``ranking.shift_ranks``) orders
    them or names their least tied group; ``_first_difference`` on two of its
    pairs sets the next horizon past their longer agreement, and to at least
    twice the last.  As with :func:`compare_shifts`, at the reach ``a + n``,
    shifts agreeing on more than ``ranking._agreement_limit`` letters raise
    ``HorizonExhausted``; running out raises ``ranking._out_of_letters``.
    """
    if a < 0:
        raise DomainError("window start must be nonnegative")
    if n < 1:
        raise DomainError("window length must be at least 1")
    end = source.max_available()
    if a + n > end:
        raise _out_of_letters(
            source, f"the window [{a}, {a + n}) of {source.spec_string()} "
            "runs past the last letter"
        )
    limit = _agreement_limit(a + n, max_horizon)
    # Ranks over limit + 1 letters tie only on shifts that agree past the limit.
    horizon = min(64, limit + 1)
    while True:
        w = source.letters(min(a + n + horizon, end))[a:]
        try:
            ranks, tied = ranking.shift_ranks(w, n, horizon)
        except PrefixTooShort:
            raise _out_of_letters(
                source, f"two of the shifts {a}..{a + n - 1} agree until the "
                f"last letter of {source.spec_string()}"
            ) from None
        if ranks is not None:
            return tuple((ranks + 1).tolist())
        # The first two and the last two shifts of the least tied group.  A
        # pair that agrees until the last letter ties no more one letter on,
        # so the next round raises for it unless a pair still ties.
        agree = 0
        for p, q in {(tied[0], tied[1]), (tied[-2], tied[-1])}:
            span = min(limit + 1, end - a - q)
            c = _first_difference(source, a + p, a + q, span)
            if c is None and span > limit:
                raise HorizonExhausted(
                    f"two of the shifts {a}..{a + n - 1} of {source.spec_string()} "
                    f"agree on more than {limit} letters"
                )
            agree = max(agree, span if c is None else c)
        horizon = min(max(2 * horizon, agree + 1), limit + 1)


def form_of(p: Perm) -> str:
    """Ascent/descent word of a pattern: letter i is 0 iff ``p[i] < p[i+1]``.

    For patterns of a binary word this recovers the underlying factor.
    """
    if len(p) < 2:
        raise LengthTooSmall("a form needs a pattern of length at least 2")
    return "".join("0" if p[i] < p[i + 1] else "1" for i in range(len(p) - 1))


# -- restrictions ---------------------------------------------------------------


def restrict_rows(rows: np.ndarray, lead: int, trail: int) -> np.ndarray:
    """Drop ``lead`` entries from the front and ``trail`` from the back of
    every row of a ``(W, n)`` pattern array and renumber what is left to
    ``1..n-lead-trail``, keeping its relative order."""
    width = rows.shape[1]
    kept = rows[:, lead : width - trail]
    # Each kept entry exceeds every dropped entry it counts, so the
    # difference stays at least 1 in any dtype, unsigned ones included.
    below = np.zeros(kept.shape, dtype=rows.dtype)
    for j in (*range(lead), *range(width - trail, width)):
        below += kept > rows[:, j : j + 1]
    return kept - below


def _restrict(p: Perm, lead: int, trail: int) -> Perm:
    if len(p) <= lead + trail:
        raise LengthTooSmall(
            f"trimming {lead} + {trail} entries from a length-{len(p)} pattern "
            "leaves nothing"
        )
    return tuple(restrict_rows(np.array([p]), lead, trail)[0].tolist())


def left_restrict(p: Perm) -> Perm:
    """Forget the last entry and renumber: the pattern of the window minus
    its right endpoint."""
    return _restrict(p, 0, 1)


def right_restrict(p: Perm) -> Perm:
    """Forget the first entry and renumber."""
    return _restrict(p, 1, 0)


def middle_restrict(p: Perm) -> Perm:
    """Forget both end entries and renumber."""
    return _restrict(p, 1, 1)


def left_restrict_k(p: Perm, k: int) -> Perm:
    """k-fold left restriction (k = 0 returns the pattern unchanged)."""
    if k < 0:
        raise DomainError("restriction count must be nonnegative")
    return _restrict(p, 0, k)


# -- enumeration -----------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PermSet:
    """All window patterns of one length found in a scan.

    ``rows`` holds the distinct patterns, one per row of a read-only
    ``(count, n)`` array of the narrowest unsigned dtype that holds n, in no
    particular order.  ``members`` (a frozenset of tuples) and
    ``sorted_members`` are built from it on first use.

    ``saturated`` records whether doubling the scan once more found nothing
    new on a word that does not end; when False the member set is only a
    lower bound.
    """

    source_spec: str
    n: int
    rows: np.ndarray
    scan_window: int
    saturated: bool

    def __post_init__(self):
        self.rows.setflags(write=False)

    @property
    def count(self) -> int:
        return self.rows.shape[0]

    @cached_property
    def members(self) -> frozenset[Perm]:
        return frozenset(map(tuple, self.rows.tolist()))

    def sorted_members(self) -> list[Perm]:
        return sorted(self.members)


def _pattern_rows(
    source: WordSource,
    n: int,
    scan: int,
    parity: str | None,
    max_horizon: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Patterns of the windows starting in ``[0, scan)`` (of one parity), one
    row per distinct factor ``w[a, a+n+H)``, H the separation depth over the
    shifts ``[0, scan+n-1)``: that factor fixes the window's pattern.

    Returns ``(reps, weights, rows)``: the first start of each factor,
    ascending, how many starts share it, and its window's pattern.  Starts
    are grouped by factor with ``ranking._factor_groups``; a start whose
    factor would run past the end of the word stands alone, with weight 1.
    """
    starts = np.arange(scan)
    if parity is not None:
        starts = starts[starts % 2 == (parity == "odd")]
    depth = separation_depth(source, n, scan + n - 1, max_horizon)
    span = n + depth
    cut = int(np.searchsorted(starts, source.max_available() - span, side="right"))
    index, bounds = _factor_groups(source, starts[:cut], span)
    first = index[bounds[:-1]]
    counts = np.diff(bounds)
    order = np.argsort(first)
    reps = np.concatenate([first[order], starts[cut:]])
    weights = np.concatenate([counts[order], np.ones(starts.size - cut, np.int64)])
    return reps, weights, window_patterns(source, reps, n, depth)


def _row_keys(rows: np.ndarray) -> np.ndarray:
    # One opaque key per row of a nonnegative (W, m) array, m >= 1, packed in
    # the narrowest dtype that holds the largest entry: a 1-D sort of the
    # keys compares with memcmp, far cheaper than sorting the rows themselves.
    rows = np.ascontiguousarray(rows, dtype=np.min_scalar_type(rows.max(initial=0)))
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()


def _row_groups(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ``(index, bounds)`` of ``ranking._factor_groups``, for equal rows."""
    keys = _row_keys(rows)
    index = np.argsort(keys, kind="stable")
    return index, ranking._group_bounds(keys[index])


def _distinct_rows(rows: np.ndarray) -> np.ndarray:
    """The distinct rows, each at its first occurrence, in key order."""
    index, bounds = _row_groups(rows)
    return rows[index[bounds[:-1]]]


def _enumerate(
    source: WordSource,
    n: int,
    parity: str | None,
    scan_window: int,
    saturate: bool,
    max_horizon: int,
) -> PermSet:
    if n < 1:
        raise DomainError("pattern length must be at least 1")
    if scan_window < 2:
        raise DomainError("scan window must be at least 2")
    spec = source.spec_string()
    window = scan_window
    while saturate:
        # Each round scans the doubled window [0, 2 * window) in one call.
        # Every factor of [0, window) has its first start there and the reps
        # ascend, so the doubling adds a pattern exactly when a distinct row
        # first shows at a rep past window.
        try:
            reps, _, rows = _pattern_rows(source, n, 2 * window, parity, max_horizon)
        except (LimitExceeded, PrefixTooShort):
            break
        index, bounds = _row_groups(rows)
        first = index[bounds[:-1]]
        if reps[first].max() < window:
            # Windows past the scan, up to a finite word's end, may still
            # show a new pattern; a source cut by its hard limit goes on.
            ends = isinstance(_out_of_letters(source, spec), PrefixTooShort)
            return PermSet(spec, n, rows[first], 2 * window, saturated=not ends)
        window *= 2
    # No saturation asked for, or the doubled scan ran out of letters.
    rows = _pattern_rows(source, n, window, parity, max_horizon)[2]
    return PermSet(spec, n, _distinct_rows(rows), window, saturated=False)


def perm_set(
    source: WordSource,
    n: int,
    scan_window: int = DEFAULT_SCAN_WINDOW,
    saturate: bool = True,
    max_horizon: int = DEFAULT_MAX_HORIZON,
) -> PermSet:
    """Patterns of every length-``n`` window starting in ``[0, scan_window)``.

    With ``saturate=True`` the scan doubles until a doubling adds no pattern
    (the count is then exact for all words whose patterns all appear early,
    which holds for uniformly recurrent words) or until letters run out, in
    which case the result is flagged unsaturated.  A finite word (one that
    ends before the source's hard limit) is never flagged saturated.
    """
    return _enumerate(source, n, None, scan_window, saturate, max_horizon)


def perm_set_parity(
    source: WordSource,
    n: int,
    parity: str,
    scan_window: int = DEFAULT_SCAN_WINDOW,
    saturate: bool = True,
    max_horizon: int = DEFAULT_MAX_HORIZON,
) -> PermSet:
    """Patterns of length-``n`` windows at even or odd starts of a doubled word.

    Start-position parity is only meaningful when letters come in aligned
    pairs, so any source that is not a doubling is rejected.
    """
    if not isinstance(source, DoubledSource):
        raise WrongSource(
            "parity enumeration needs a doubled word; got "
            f"{source.spec_string()}"
        )
    if parity not in ("even", "odd"):
        raise DomainError(f"parity must be 'even' or 'odd', got {parity!r}")
    return _enumerate(source, n, parity, scan_window, saturate, max_horizon)
