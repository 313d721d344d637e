"""Lexicographic ranking of word shifts: the one ranking engine.

``shift_ranks`` orders the first P shifts of a letter buffer by sorting
their next ``horizon`` letters as byte strings and checking adjacent sorted
keys.  Shifts whose keys tie short of the horizon are sorted again by the
letters past them, with keys short enough that memory stays within the
buffer's size.  Where shifts agree on all ``horizon`` letters it names the
least such group instead.  The end of the buffer is the end of the word: a
key cut short by it sorts first among the keys it begins, and when one begins
another, no further letter can order them, so ``PrefixTooShort`` is raised.

A prefix-doubling merge (``_merge``) packs each pair of ranks into one
integer key, and each key's position into the key's low bits, and sorts the
packed keys once in place (``_sort_with_index``).  The same sort groups
starts by their factors in ``_factor_groups``, the one factor-keying engine.

``separation_depth`` reads how far shifts less than n apart agree over a
scan's shifts from letters alone, out of ``WordSource._agreement``.

The bulk paths read one table on the source, ``WordSource._names``: Karp,
Miller & Rosenberg's names of the 2**j-letter factors, level j+1 made from
level j by the merge step (``_merge``), the engine's one prefix-doubling
step.  ``prefix_names`` keys factors of any length for grouping: a factor
of length L is a pair of names at level floor(log2 L), packed into one
int64 key that sorts as the factor does.  ``window_patterns`` orders the
shifts of each window by their names at the first level longer than the
separation depth, the one shift order the bulk paths hold.  It ranks each
window once; one that the word's end reaches is checked on its finished row.

Every path that compares shifts (``separation_depth`` and the bulk paths,
``perms.subpermutation`` and ``perms.compare_shifts``) keeps one agreement
rule: how far shifts may agree is ``_agreement_limit``, and what running out
of letters raises is ``_out_of_letters``.
"""

from __future__ import annotations

from itertools import groupby
from typing import TYPE_CHECKING

import numpy as np

from .errors import DomainError, HorizonExhausted, LimitExceeded, PrefixTooShort

if TYPE_CHECKING:  # words calls _factor_groups, so only annotations name it
    from .words import WordSource

#: Sets, with a comparison's reach, how far its shifts may agree on every
#: path: up to the larger of 4 times this and 16 times the reach.
DEFAULT_MAX_HORIZON = 4096

#: The most cells (rows times window length) ``window_patterns`` sorts at once.
_BLOCK_CELLS = 1 << 16


def _agreement_limit(reach: int, max_horizon: int) -> int:
    """The most letters two shifts below ``reach`` may agree on; a path
    whose shifts agree on more raises ``HorizonExhausted``."""
    return max(16 * reach, 4 * max_horizon)


def _out_of_letters(source: WordSource, what: str) -> PrefixTooShort | LimitExceeded:
    """The error for shifts that need a letter past ``source.max_available()``:
    ``PrefixTooShort`` when the word ends there, ``LimitExceeded`` when only
    the source's hard limit cuts a word that goes on."""
    end = source.max_available()
    if end < source.hard_limit:
        return PrefixTooShort(f"{what}: the word ends after {end} letters")
    return LimitExceeded(
        f"{what}: the word goes on past the hard limit of {end} letters"
    )


#: A group of g shifts sorts by its next max(_KEY_MIN, budget // g) letters,
#: budget the larger of the buffer and _KEY_BYTES: keys stay within the
#: buffer's size however far the horizon reaches.
_KEY_MIN, _KEY_BYTES = 64, 1 << 20


def shift_ranks(
    letters: np.ndarray, positions: int, horizon: int
) -> tuple[np.ndarray, None] | tuple[None, list[int]]:
    """Ranks 0..positions-1 of the first ``positions`` shifts of ``letters``
    (integers 0..255), comparing their next ``horizon`` letters as bytes.

    Returns ``(ranks, None)``, or ``(None, tied)``, ``tied`` the least group
    of shifts that agree on all ``horizon`` letters, ascending; the caller
    decides whether to retry with more lookahead or give up.  The end of
    ``letters`` is the end of the word: a key it cuts short sorts first among
    the keys it begins, so it begins its sorted neighbour, and then only the
    end orders them: ``PrefixTooShort`` is raised.
    """
    if letters.size < positions:
        raise PrefixTooShort(
            f"cannot rank {positions} shifts: only {letters.size} letters exist"
        )
    # A group that agrees on its first ``depth`` letters sorts by its next
    # ``step`` letters as byte strings; each run of equal keys is then a
    # group ``step`` letters deeper, ascending, as the sort is stable.
    text = letters[: positions - 1 + horizon]
    wide = text.dtype.itemsize != 1
    if wide and 0 <= text.min(initial=0) <= text.max(initial=0) <= 255:
        text, wide = text.astype(np.uint8), False
    # An int8 letter below 0 is a byte of 128 or more, so not ASCII.
    signed, text = text.dtype.kind == "i", text.tobytes()
    if wide or signed and not text.isascii():
        raise DomainError("shift_ranks compares letters 0..255")
    budget = max(len(text), _KEY_BYTES)
    order, cut, groups = [], False, [(0, range(positions))]
    while groups:
        depth, group = groups.pop()
        if len(group) < 2:
            order += group
            continue
        step = min(horizon - depth, max(_KEY_MIN, budget // len(group)))
        keys = {i: text[i + depth : i + depth + step] for i in group}
        ranked = sorted(keys, key=keys.__getitem__)
        if len(text) < positions - 1 + horizon:
            sk = [keys[i] for i in ranked]
            cut = cut or any(p != q and q.startswith(p) for p, q in zip(sk, sk[1:]))
        if len(set(keys.values())) == len(ranked):
            order += ranked
            continue
        runs = [list(run) for _, run in groupby(ranked, keys.__getitem__)]
        if depth + step == horizon:
            return None, next(run for run in runs if len(run) > 1)
        groups += [(depth + step, run) for run in reversed(runs)]
    if cut:
        raise PrefixTooShort(
            f"two of {positions} shifts agree until the word ends "
            f"after {letters.size} letters"
        )
    ranks = np.empty(positions, dtype=np.int64)
    ranks[np.fromiter(order, np.int64, positions)] = np.arange(positions)
    return ranks, None


def _merge(rank: np.ndarray, step: int) -> np.ndarray:
    # The one prefix-doubling step: the dense rank of the pair (rank[x],
    # rank[x + step]), a rank past the buffer sorting first.  Ranks are below
    # ``total``, so the pair packs into one int64 key below (total + 1)**2,
    # built in place; a position's dense rank counts the changes of the
    # sorted key before it.  The product is taken in int64: the name table's
    # int32 levels, times a scalar, stay int32 under numpy 1.x and would wrap.
    total = rank.size
    key = np.zeros(total, dtype=np.int64)
    head = key[: max(total - step, 0)]
    head[:] = rank[step:]
    head += 1
    key += np.multiply(rank, total + 1, dtype=np.int64)
    value, index = _sort_with_index(key, (total + 1) ** 2)
    dense = np.empty(total, dtype=np.int64)
    dense[index[:1]] = 0
    dense[index[1:]] = np.cumsum(value[1:] != value[:-1])
    return dense


def _sort_with_index(key: np.ndarray, top: int) -> tuple[np.ndarray, np.ndarray]:
    # The nonnegative int64 keys, all below ``top``, sorted, and the index
    # of each, ascending among equal keys: one in-place sort of ``key <<
    # bits | index``, which overwrites ``key``.  Keys too wide to leave
    # ``bits`` free below bit 63 (a name table of more than 2**21
    # positions) take a stable argsort instead.
    bits = max(key.size - 1, 0).bit_length()
    if (top - 1).bit_length() + bits > 63:
        index = np.argsort(key, kind="stable")
        return key[index], index
    key <<= bits
    key |= np.arange(key.size)
    key.sort()
    index = key & ((1 << bits) - 1)
    key >>= bits
    return key, index


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
    sorts before every longer factor it begins, as a key cut short does in
    ``shift_ranks``.  The caller keeps every factor within
    ``source.max_available()``, as ``perms._pattern_rows`` does.  Keys are
    below ``size**2``, ``size = source._names[0]`` the size of the table
    they were read from.
    """
    positions = np.asarray(positions, dtype=np.int64)
    j = length.bit_length() - 1
    size, levels = _name_levels(source, int(positions.max(initial=0)) + length, j)
    head = levels[j]
    # A factor cut shorter than 2**j by the word's end has a head name no
    # other position shares, so its tail name, clipped to the table, never
    # decides an order.
    tail = np.minimum(positions + (length - (1 << j)), size - 1)
    return head[positions].astype(np.int64) * np.int64(size) + head[tail]


def _factor_groups(
    source: WordSource, starts: np.ndarray, length: int
) -> tuple[np.ndarray, np.ndarray]:
    """The one factor-keying engine: ``(index, bounds)``, the ascending array
    ``starts`` in the order of their ``length``-letter factors, ascending
    within a factor, and the ``_group_bounds`` of the sorted keys.  One packed
    sort of ``prefix_names`` keys, below the square of the name table's size;
    the caller keeps each factor within ``max_available()``."""
    value, index = _sort_with_index(
        prefix_names(source, starts, length), source._names[0] ** 2
    )
    return starts[index], _group_bounds(value)


def _group_bounds(keys: np.ndarray) -> np.ndarray:
    """Where each run of equal sorted ``keys`` begins, then ``keys.size``."""
    # ``!=``: numpy has no np.not_equal(out=...) loop for void keys.
    change = np.ones(keys.size + 1, dtype=bool)
    change[1:-1] = keys[1:] != keys[:-1]
    return np.flatnonzero(change)


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
        levels.append(_merge(levels[-1], step).astype(np.int32))
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
    distance and at its reach plus twice its distance, which covers the
    longer windows a scan of the same starts asks for next.  A run longer
    than ``_agreement_limit(reach, max_horizon)`` raises
    ``HorizonExhausted``, and one that runs out of letters raises
    ``_out_of_letters``.  A table measured over more shifts, or under a
    larger reach's limit, is measured again at the request when it passes
    the request's limit, so errors depend on ``(n, reach)`` alone.
    """
    over, runs = source._agreement
    limit = _agreement_limit(reach, max_horizon)
    if n > runs.size or reach > over:
        grown = (max(2 * n, runs.size), max(reach + 2 * n, over))
        try:
            source._agreement = (grown[1], _agreement_runs(source, *grown, limit))
        except (HorizonExhausted, LimitExceeded, PrefixTooShort):
            # Pairs past the request may run out or agree too long; the
            # exact request alone decides errors.
            source._agreement = (reach, _agreement_runs(source, n, reach, limit))
    depth = int(source._agreement[1][:n].max())
    if depth > limit:
        depth = int(_agreement_runs(source, n, reach, limit).max())
    return depth


def _agreement_runs(
    source: WordSource, size: int, reach: int, limit: int
) -> np.ndarray:
    # Longest agreement at each distance below ``size`` over [0, reach).
    # reach + limit letters settle every run up to the limit, and a run
    # still open there is longer.
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
            if run is None and w.size < reach + limit:
                raise _out_of_letters(source, f"{pair} agree until the last letter")
            raise HorizonExhausted(f"{pair} agree on more than {limit} letters")
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


def window_patterns(
    source: WordSource, starts: np.ndarray, n: int, depth: int
) -> np.ndarray:
    """Rank patterns (rows of values 1..n) of the length-``n`` windows of
    ``source`` at ``starts``, as a ``(len(starts), n)`` array of the
    narrowest unsigned dtype that holds n (uint8 up to n = 255).

    ``depth`` bounds how far two shifts of one window agree, as
    ``separation_depth`` measures it, so their names at level j =
    depth.bit_length() of the source's name table, 2**j >= depth + 1
    letters long, differ and order them.  Two shifts of a window that share
    a name raise ``HorizonExhausted``: a depth too small gives no order.  A
    window past the last letter raises ``_out_of_letters``, and so does one
    whose order the end decides: a name the end cuts, ``w[p:end]``, sorts
    first among the shifts it begins, so a finished row is checked for a
    shift p followed by one that ``w[p:end]`` begins.

    Each row is two in-place sorts of packed keys, ``value << shift |
    column`` with n <= 2**shift: sorting the names' keys puts each shift's
    column in the low bits in name order, and sorting those columns' keys
    puts each column's place in that order in the low bits.  Keys are int32
    unless the table's names need int64, and starts are taken in blocks of
    at most ``_BLOCK_CELLS`` cells, so no temporary spans every row.
    """
    starts = np.asarray(starts, dtype=np.int64)
    reach, end = int(starts.max(initial=0)) + n, source.max_available()
    if reach > end:
        raise _out_of_letters(
            source,
            f"the window [{reach - n}, {reach}) of {source.spec_string()} "
            "runs past the last letter",
        )
    j = int(depth).bit_length()
    size, levels = _name_levels(source, reach - 1 + (1 << j), j)
    names = levels[j]
    windows = np.lib.stride_tricks.as_strided(
        names, (names.size - n + 1, n), (names.strides[0],) * 2, writeable=False
    )
    shift = max(n - 1, 0).bit_length()
    low = (1 << shift) - 1
    key_type = np.int32 if size << shift <= np.iinfo(np.int32).max else np.int64
    column = np.arange(n, dtype=key_type)
    patterns = np.empty((starts.size, n), dtype=np.min_scalar_type(n))
    step = max(_BLOCK_CELLS // max(n, 1), 1)
    for lo in range(0, starts.size, step):
        key = windows[starts[lo : lo + step]].astype(key_type, copy=False)
        key <<= shift
        key |= column
        key.sort(axis=1)
        # Sorted keys with equal names differ in their column bits alone.
        if ((key[:, 1:] ^ key[:, :-1]) <= low).any():
            raise HorizonExhausted(
                f"two shifts of a length-{n} window of {source.spec_string()} "
                f"agree on {1 << j} letters, past the depth {depth}"
            )
        key &= low
        key <<= shift
        key |= column
        key.sort(axis=1)
        key &= low
        key += 1
        patterns[lo : lo + step] = key
    if reach - 1 + (1 << j) <= end:
        return patterns
    # The shifts of the windows the end reaches, in each row's order; only a
    # q < p has the letters to begin with w[p:end].
    late = np.flatnonzero(starts + (n - 1 + (1 << j)) > end)
    shifts = starts[late, None] + np.argsort(patterns[late], axis=1)
    p, q = shifts[:, :-1], shifts[:, 1:]
    cut = (p + (1 << j) > end) & (q < p)
    if cut.any():
        w = source.letters(end)
        pairs = zip(p[cut].tolist(), q[cut].tolist())
        if any(np.array_equal(w[a:end], w[b : b + end - a]) for a, b in pairs):
            raise _out_of_letters(
                source, f"two shifts of a length-{n} window of "
                f"{source.spec_string()} agree until the last letter"
            )
    return patterns
