"""Binary word sources.

A :class:`WordSource` produces an unbounded 0/1 sequence one prefix at a time:
morphic fixed points and characteristic Sturmian words, both fixed points of a
cycle of morphisms that one block recursion generates, and the doubling and
complementation operators over any inner source.  Prefixes are cached and only
grow, never rewriting letters handed out, so positions identify shifts.  A
prefix grows to at least twice its cached length, up to what the source can
produce, so deeper and deeper requests build letters in proportion to the
deepest one, not to the number of requests.

Letters are stored as int8 arrays (values 0 and 1); ``prefix_str`` renders the
same data as a digit string for display and hashing.

``factors`` and ``recurrence_bound`` group factor starts with
``ranking._factor_groups``, the one factor-keying engine.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass
from itertools import groupby
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    DomainError,
    InvalidDirective,
    LimitExceeded,
    PrefixTooShort,
    Unsaturated,
    WordSpecError,
)
from .ranking import _factor_groups

#: Hard ceiling on prefix length; requests beyond it raise LimitExceeded.
DEFAULT_HARD_LIMIT = 1 << 24

#: Default inspection window for factor statistics (run bounds, factor sets).
DEFAULT_FACTOR_WINDOW = 4096

_THUE_MORSE_RULES: Mapping[int, tuple[int, ...]] = {0: (0, 1), 1: (1, 0)}


def _str_to_letters(text: str) -> np.ndarray:
    arr = np.frombuffer(text.encode("ascii"), dtype=np.uint8) - ord("0")
    return arr.astype(np.int8)


class WordSource:
    """Lazily evaluated one-sided infinite binary word.

    Subclasses implement :meth:`_generate`, returning *at least* ``n`` letters
    as an int8 array.  The base class owns the cache and enforces the growth
    invariant: a longer prefix always begins with every shorter one.  A
    request past the cached prefix asks for ``max(n, 2 * cached)`` letters,
    capped at :meth:`max_available`, so the prefix is regenerated O(log n)
    times on the way to ``n`` letters and is at most twice the longest
    request (plus the source's own rounding up to whole blocks).
    """

    def __init__(self, hard_limit: int = DEFAULT_HARD_LIMIT):
        self.hard_limit = int(hard_limit)
        self._prefix = np.empty(0, dtype=np.int8)
        self._prefix.setflags(write=False)
        # Caches owned by the source, held as plain data: the agreement of
        # shifts by distance over the shifts a scan reaches, and the names of
        # the 2**j-letter factors at the shifts [0, size), level j an int32
        # array, by which the bulk paths group starts and order the shifts
        # of each window.  The doubled twin points back, but weakly, so a
        # dropped source is freed without the cycle collector.  The last
        # transfer window is the (key, result) that doubling.delta, key
        # ("delta", a, n, max_horizon), or doubling._bulk_windows, key
        # ("bulk", n, scan_window, max_horizon), last built without raising.
        self._agreement = (0, np.zeros(1, dtype=np.int64))  # ranking.separation_depth
        self._names = (0, [])  # ranking._name_levels: (size, levels)
        self._doubled_twin = None      # doubling._doubled_view
        self._run_scan = _RunScan()    # words.run_bounds
        self._last_transfer = (None, None)  # doubling.delta, doubling._bulk_windows

    # -- subclass interface -------------------------------------------------

    def _generate(self, n: int) -> np.ndarray:
        raise NotImplementedError

    def spec_string(self) -> str:
        """Expression in the word-spec grammar, which ``parse_word_spec`` reads back."""
        raise NotImplementedError

    def max_available(self) -> int:
        """Largest prefix this source can ever produce."""
        return self.hard_limit

    # -- public API ----------------------------------------------------------

    def letters(self, n: int) -> np.ndarray:
        """First ``n`` letters as a read-only int8 array of 0s and 1s."""
        if n < 0:
            raise DomainError("prefix length must be nonnegative")
        if n > self.hard_limit:
            raise LimitExceeded(
                f"requested {n} letters of {self.spec_string()}, "
                f"hard limit is {self.hard_limit}"
            )
        if n > self._prefix.size:
            target = max(n, min(2 * self._prefix.size, self.max_available()))
            grown = np.ascontiguousarray(self._generate(target), dtype=np.int8)
            if grown.size < n:
                raise PrefixTooShort(
                    f"{self.spec_string()} produced {grown.size} letters, needed {n}"
                )
            old = self._prefix
            if old.size and not np.array_equal(grown[: old.size], old):
                raise AssertionError(
                    f"{self.spec_string()} rewrote an already-produced prefix"
                )
            grown.setflags(write=False)
            self._prefix = grown
        return self._prefix[:n]

    def prefix_str(self, n: int) -> str:
        """First ``n`` letters as a digit string."""
        data = self.letters(n)
        return (data + ord("0")).astype(np.uint8).tobytes().decode("ascii")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.spec_string()!r})"


class _FixedPointSource(WordSource):
    """Limit of a seed letter's images under a cycle of binary morphisms.

    With steps s_1, s_2, ... repeating the cycle, level k holds the images
    A_k(a) = s_1(...s_k(a)) of both letters, and A_{k+1}(a) is the blocks
    A_k(b) over the letters b of s_{k+1}(a).  A step gives each image as its
    runs (b, count), so 0^d 1 is d blocks A_k(0) and one A_k(1).  Each step
    maps the seed to a word that begins with it, so a request that the first
    blocks of A_{k+1}(seed) cover is served from them without building level
    k+1.
    """

    def __init__(self, steps: Sequence[tuple], seed: int, hard_limit: int):
        super().__init__(hard_limit)
        self.seed, self._steps, self._level = seed, tuple(steps), 0
        self._images = (np.zeros(1, np.int8), np.ones(1, np.int8))

    def _generate(self, n: int) -> np.ndarray:
        while True:
            images, step = self._images, self._steps[self._level % len(self._steps)]
            runs, covered = step[self.seed], 0
            for r, (b, count) in enumerate(runs):
                if covered + count * images[b].size >= n:
                    copies = -(-(n - covered) // images[b].size)
                    return np.concatenate(_blocks(images, [*runs[:r], (b, copies)]))
                covered += count * images[b].size
            self._images = tuple(
                np.concatenate(_blocks(images, step[a])) for a in (0, 1)
            )
            self._level += 1


def _blocks(images: tuple, runs: Sequence[tuple[int, int]]) -> list[np.ndarray]:
    """``count`` copies of ``images[b]`` for each run ``(b, count)``.  One
    copy is the block itself (``np.tile`` would copy it before the caller's
    concatenation copies it again)."""
    return [
        images[b] if count == 1 else np.tile(images[b], count) for b, count in runs
    ]


class MorphicSource(_FixedPointSource):
    """Fixed point of a binary morphism prolongable at its seed letter.

    The Thue-Morse word is the fixed point of 0 -> 01, 1 -> 10 at 0.  The
    morphism is the one step of the block recursion.
    """

    def __init__(
        self,
        rules: Mapping[int, Sequence[int]],
        seed: int = 0,
        hard_limit: int = DEFAULT_HARD_LIMIT,
    ):
        images = {a: tuple(int(x) for x in rules[a]) for a in (0, 1)}
        if any(not image or set(image) - {0, 1} for image in images.values()):
            raise DomainError("morphism images must be nonempty binary words")
        if seed not in (0, 1):
            raise DomainError("seed letter must be 0 or 1")
        if images[seed][0] != seed or len(images[seed]) < 2:
            raise DomainError("morphism is not prolongable at the seed letter")
        runs = [tuple((b, len(list(g))) for b, g in groupby(images[a])) for a in (0, 1)]
        super().__init__([runs], seed, hard_limit)
        self.rules = images

    def is_thue_morse(self) -> bool:
        return self.rules == _THUE_MORSE_RULES and self.seed == 0

    def spec_string(self) -> str:
        if self.is_thue_morse():
            return "thue-morse"
        images = ",".join("".join(map(str, self.rules[a])) for a in (0, 1))
        return f"morphic:{images}" + ("@1" if self.seed else "")


class SturmianSource(_FixedPointSource):
    """Characteristic Sturmian word built from a periodic directive.

    The directive d_1 d_2 ... repeats forever, and the word is the fixed
    point at 0 of the cycle of standard morphisms phi_{d_1}, phi_{d_2}, ...,
    phi_d mapping 0 -> 0^d 1 and 1 -> 0.  Level k holds the standard words
    s(k) and s(k-1), the images of 0 and 1, and s(k+1) = s(k)^{d_{k+1}}
    s(k-1), so a request that copies of s(k) cover builds no s(k+1).
    """

    def __init__(
        self, directive: Sequence[int], hard_limit: int = DEFAULT_HARD_LIMIT
    ):
        entries = tuple(int(d) for d in directive)
        if not entries or any(d < 1 for d in entries):
            raise InvalidDirective(
                f"directive entries must be integers >= 1, got {entries!r}"
            )
        steps = [(((0, d), (1, 1)), ((0, 1),)) for d in entries]
        super().__init__(steps, 0, hard_limit)
        self.directive = entries

    def spec_string(self) -> str:
        return "sturmian:" + ",".join(str(d) for d in self.directive)


class ExplicitSource(WordSource):
    """Finite word given literally; it runs out instead of extending."""

    def __init__(self, text: str, hard_limit: int = DEFAULT_HARD_LIMIT):
        super().__init__(hard_limit)
        if not text or set(text) - {"0", "1"}:
            raise DomainError("explicit words must be nonempty strings of 0s and 1s")
        self.text = text
        self._all = _str_to_letters(text)

    def _generate(self, n: int) -> np.ndarray:
        if n > self._all.size:
            raise PrefixTooShort(
                f"explicit word has {self._all.size} letters, needed {n}"
            )
        return self._all

    def max_available(self) -> int:
        return min(self.hard_limit, self._all.size)

    def spec_string(self) -> str:
        return f"explicit:{self.text}"


class DoubledSource(WordSource):
    """Image of an inner word under the doubling substitution a -> aa."""

    def __init__(self, inner: WordSource, hard_limit: int = DEFAULT_HARD_LIMIT):
        super().__init__(hard_limit)
        self.inner = inner

    def _generate(self, n: int) -> np.ndarray:
        half = self.inner.letters((n + 1) // 2)
        return np.repeat(half, 2)

    def max_available(self) -> int:
        return min(self.hard_limit, 2 * self.inner.max_available())

    def spec_string(self) -> str:
        return f"double({self.inner.spec_string()})"


class ComplementSource(WordSource):
    """Letter-wise complement (0 <-> 1) of an inner word."""

    def __init__(self, inner: WordSource, hard_limit: int = DEFAULT_HARD_LIMIT):
        super().__init__(hard_limit)
        self.inner = inner

    def _generate(self, n: int) -> np.ndarray:
        return (1 - self.inner.letters(n)).astype(np.int8)

    def max_available(self) -> int:
        return min(self.hard_limit, self.inner.max_available())

    def spec_string(self) -> str:
        return f"complement({self.inner.spec_string()})"


# -- constructors -------------------------------------------------------------


def thue_morse_source(hard_limit: int = DEFAULT_HARD_LIMIT) -> MorphicSource:
    """The Thue-Morse word 0110100110010110..."""
    return MorphicSource(_THUE_MORSE_RULES, seed=0, hard_limit=hard_limit)


def fibonacci_source(hard_limit: int = DEFAULT_HARD_LIMIT) -> SturmianSource:
    """The Fibonacci word 0100101001001010... (directive 1,1,1,...)."""
    return SturmianSource((1,), hard_limit=hard_limit)


def sturmian_characteristic(
    directive: Sequence[int], hard_limit: int = DEFAULT_HARD_LIMIT
) -> SturmianSource:
    """Characteristic Sturmian word for a periodically repeated directive."""
    return SturmianSource(directive, hard_limit=hard_limit)


def explicit_source(text: str, hard_limit: int = DEFAULT_HARD_LIMIT) -> ExplicitSource:
    return ExplicitSource(text, hard_limit=hard_limit)


def double(source: WordSource) -> DoubledSource:
    """Word with every letter written twice."""
    return DoubledSource(source, hard_limit=source.hard_limit)


def complement(source: WordSource) -> ComplementSource:
    """Word with every letter flipped."""
    return ComplementSource(source, hard_limit=source.hard_limit)


# -- factor statistics ---------------------------------------------------------


@dataclass(frozen=True)
class RunBounds:
    """Certified maximal run lengths: at most ``k0`` zeros or ``k1`` ones in a row."""

    k0: int
    k1: int
    certified_over: int

    @property
    def k(self) -> int:
        return max(self.k0, self.k1)

    @property
    def num_classes(self) -> int:
        return self.k0 + self.k1


def _effective_window(source: WordSource, window_len: int) -> int:
    return min(window_len, source.max_available())


def _run_starts(w: np.ndarray, lo: int) -> np.ndarray:
    """Positions in ``[lo, w.size)`` where a new run starts (``lo >= 1``)."""
    return np.flatnonzero(w[lo:] != w[lo - 1 : -1]) + lo


#: Letters ``_RunScan.extend`` reads at a time, so each of its temporaries
#: stays near 128 KB (int64 positions) however long the scanned prefix grows.
_SCAN_CHUNK = 1 << 14


class _RunScan:
    """Run statistics of a source's prefix, grown as ``run_bounds`` inspects
    longer prefixes.

    Letters ``[0, scanned)`` have been scanned, each once.  ``scanned`` may
    run up to one chunk past the longest prefix inspected (never past the
    letters generated), since the records answer any shorter prefix.  The
    state stays O(records), never one entry per run: the first three run
    starts, the start of the last run seen (its end is not known yet), and
    per letter the records ``(end, maximum)`` at which the running maximum
    of completed interior runs grows, ``end`` being the start of the next
    run.

    Fresh letters are read in chunks of ``_SCAN_CHUNK``, so the scan's memory
    is bounded by the chunk, not by the prefix.  Runs alternate letters, so a
    chunk's run lengths, one ``np.diff`` of its run starts, split into each
    letter's runs as the even and odd entries, with no gather by letter.
    """

    def __init__(self) -> None:
        self.scanned = 0
        self.first_starts = [0]
        self.last_start = 0
        self.record_ends: tuple[list[int], list[int]] = ([], [])
        self.record_maxima: tuple[list[int], list[int]] = ([], [])

    def extend(self, w: np.ndarray) -> None:
        """Scan the letters of ``w`` past ``scanned``."""
        for lo in range(max(self.scanned, 1), w.size, _SCAN_CHUNK):
            fresh = _run_starts(w[: lo + _SCAN_CHUNK], lo)
            if fresh.size:
                self._add_runs(w, fresh)
        self.scanned = w.size

    def _add_runs(self, w: np.ndarray, fresh: np.ndarray) -> None:
        """Record the runs that the run starts ``fresh`` complete."""
        self.first_starts += fresh[: 3 - len(self.first_starts)].tolist()
        letter = int(w[self.last_start])
        bounds = np.concatenate([[self.last_start], fresh])
        if self.last_start == 0:  # the first run is never interior
            bounds, letter = fresh, 1 - letter
        self.last_start = int(fresh[-1])
        lengths, ends = np.diff(bounds), bounds[1:]
        for parity in (0, 1):
            runs, mine = lengths[parity::2], letter ^ parity
            maxima = self.record_maxima[mine]
            best = maxima[-1] if maxima else 0
            if not runs.size or runs.max() <= best:
                continue
            running = np.maximum.accumulate(np.concatenate([[best], runs]))
            grows = np.diff(running) > 0
            self.record_ends[mine].extend(ends[parity::2][grows].tolist())
            maxima.extend(running[1:][grows].tolist())

    def interior_max(self, letter: int, eff: int) -> int:
        """Longest interior run of ``letter`` in the first ``eff`` letters,
        i.e. not the first run and followed by a run starting before
        ``eff``; 0 if there is none."""
        i = bisect_left(self.record_ends[letter], eff)
        return self.record_maxima[letter][i - 1] if i else 0


def run_bounds(
    source: WordSource, inspect_len: int = DEFAULT_FACTOR_WINDOW
) -> RunBounds:
    """Maximal run length of each letter over a prefix.

    Only runs bounded on both sides inside the prefix are trusted.  If a run
    touching either end of the prefix is longer than everything certified, or
    a letter never completes an interior run, the prefix cannot support a
    conclusion and ``PrefixTooShort`` is raised.

    The result is exact for the inspected prefix, whatever longer prefixes
    were scanned before.  The source scans each letter once over all calls,
    so the cost is amortised: a call past the scanned prefix scans on to its
    own end or one ``_SCAN_CHUNK`` past the old scan, whichever is further,
    within the letters the source has already generated, so deeper and
    deeper requests extend the scan about once per chunk.  Every call
    answers from a few run records plus a look at the last ``k + 1``
    letters.
    """
    if inspect_len < 2:
        raise DomainError("inspect_len must be at least 2")
    eff = _effective_window(source, inspect_len)
    if eff < 2:
        raise PrefixTooShort("cannot certify run bounds on fewer than 2 letters")
    w = source.letters(eff)
    scan = source._run_scan
    if eff > scan.scanned:
        # The read-ahead stops at the end of the generated letters.
        ahead = max(eff, scan.scanned + _SCAN_CHUNK)
        scan.extend(source._prefix[:ahead])
    if len(scan.first_starts) < 3 or scan.first_starts[2] >= eff:
        raise PrefixTooShort(
            f"no interior runs in the first {eff} letters of {source.spec_string()}"
        )
    bounds = [scan.interior_max(letter, eff) for letter in (0, 1)]
    for letter in (0, 1):
        if not bounds[letter]:
            raise PrefixTooShort(
                f"letter {letter} completes no interior run in the first {eff} "
                f"letters of {source.spec_string()}"
            )
    # The first run ends at the second run start.  The last run, clipped by
    # the prefix end, exceeds its bound k iff the last k + 1 letters agree
    # (an interior run has k <= eff - 2, so they all lie in the prefix).
    last = int(w[-1])
    if (
        scan.first_starts[1] > bounds[int(w[0])]
        or (w[eff - bounds[last] - 1 :] == last).all()
    ):
        raise PrefixTooShort(
            "a run clipped by the prefix boundary exceeds every interior run; "
            "inspect a longer prefix"
        )
    return RunBounds(k0=bounds[0], k1=bounds[1], certified_over=eff)


def factors(
    source: WordSource, n: int, window_len: int = DEFAULT_FACTOR_WINDOW
) -> set[str]:
    """Distinct length-``n`` blocks occurring in the first ``window_len`` letters."""
    if n < 1:
        raise DomainError("factor length must be at least 1")
    eff = _effective_window(source, window_len)
    if eff < n:
        raise PrefixTooShort(
            f"window of {eff} letters cannot contain a factor of length {n}"
        )
    index, bounds = _factor_groups(source, np.arange(eff - n + 1), n)
    text = source.prefix_str(eff)
    return {text[a : a + n] for a in index[bounds[:-1]].tolist()}


def recurrence_bound(
    source: WordSource, k: int, window_len: int = DEFAULT_FACTOR_WINDOW
) -> int:
    """Smallest N such that every length-N window of the inspected prefix
    contains every length-``k`` factor seen in that prefix.

    Saturation guard: the length-``k`` factor set over the first half of the
    inspected prefix must already equal the set over the whole prefix, and
    each factor must occur at least twice; otherwise the estimate cannot be
    trusted and ``Unsaturated`` is raised.
    """
    if k < 1:
        raise DomainError("factor length must be at least 1")
    eff = _effective_window(source, window_len)
    if eff < 2 * k:
        raise PrefixTooShort(f"window of {eff} letters is too short for k={k}")
    # Factor starts grouped by factor, each group in position order.
    index, bounds = _factor_groups(source, np.arange(eff - k + 1), k)
    first, last = index[bounds[:-1]], index[bounds[1:] - 1]
    if first.max() >= eff // 2 - k + 1:
        raise Unsaturated(
            f"length-{k} factor set still growing at window {eff}; "
            "inspect a longer prefix"
        )
    if (np.diff(bounds) == 1).any():
        raise Unsaturated(
            f"some length-{k} factor occurs only once in the first {eff} letters"
        )
    # A window of N letters holds the factors starting in N - k + 1
    # consecutive positions.  It misses a factor only if it fits before the
    # factor's first occurrence, after its last, or between two consecutive
    # occurrences, so the smallest covering span is the largest such gap.
    # A step of ``index`` from one group to the next, a first start less a
    # last one, is below the first term, so it never decides the largest.
    span = max(first.max() + 1, index.size - last.min(), np.diff(index).max())
    return int(span) + k - 1


# -- word-spec grammar ---------------------------------------------------------


def parse_word_spec(text: str, hard_limit: int = DEFAULT_HARD_LIMIT) -> WordSource:
    """Build a :class:`WordSource` from the compact spec grammar.

    ::

        spec := fibonacci | thue-morse
              | sturmian:<d1>,<d2>,...
              | morphic:<image of 0>,<image of 1>[@1]
              | explicit:<digits>
              | double(<spec>) | complement(<spec>)

    ``morphic:`` names the fixed point of a binary morphism, prolongable at
    0, or at 1 with the suffix ``@1``: ``morphic:01,00`` is period-doubling.
    ``MorphicSource.spec_string`` prints this form, so it parses back.
    """
    s = text.strip()
    if s == "fibonacci":
        return fibonacci_source(hard_limit)
    if s == "thue-morse":
        return thue_morse_source(hard_limit)
    if s.startswith("sturmian:"):
        body = s[len("sturmian:") :]
        parts = [p.strip() for p in body.split(",")]
        if not body or any(not re.fullmatch(r"\d+", p) for p in parts):
            raise WordSpecError(f"bad directive list in {text!r}")
        return sturmian_characteristic(tuple(int(p) for p in parts), hard_limit)
    if s.startswith("morphic:"):
        body, suffix, seed = s[len("morphic:") :].partition("@")
        images = [p.strip() for p in body.split(",")]
        if (
            len(images) != 2
            or any(not re.fullmatch(r"[01]+", p) for p in images)
            or (suffix and seed.strip() != "1")
        ):
            raise WordSpecError(f"bad morphism in {text!r}")
        rules = {a: tuple(map(int, p)) for a, p in enumerate(images)}
        return MorphicSource(rules, 1 if suffix else 0, hard_limit)
    if s.startswith("explicit:"):
        body = s[len("explicit:") :]
        if not re.fullmatch(r"[01]+", body):
            raise WordSpecError(f"explicit words must be nonempty 0/1 strings: {text!r}")
        return explicit_source(body, hard_limit)
    for tag, wrap in (("double", double), ("complement", complement)):
        prefix = tag + "("
        if s.startswith(prefix) and s.endswith(")"):
            inner = parse_word_spec(s[len(prefix) : -1], hard_limit)
            return wrap(inner)
    raise WordSpecError(f"unrecognised word spec: {text!r}")
