"""Binary word sources.

A :class:`WordSource` produces an unbounded 0/1 sequence one prefix at a time:
morphic fixed points and characteristic Sturmian words, both fixed points of a
cycle of morphisms that one block recursion generates, and the image of any
inner source under a substitution of ``SUBSTITUTIONS`` (an ``ImageSource``).
Prefixes are cached and only grow, never rewriting letters handed out, so
positions identify shifts.  A prefix grows to at least twice its cached length,
up to what the source can produce, so deeper requests build letters in
proportion to the deepest one, not to the number of requests.

Letters are stored as int8 arrays (values 0 and 1); ``prefix_str`` renders the
same data as a digit string for display and hashing.

``run_bounds`` gives the word's own longest runs, read off the morphisms of
a fixed point with no letter generated.  ``factors`` and ``recurrence_bound``
estimate from a prefix, grouping factor starts with ``ranking._factor_groups``,
the one factor-keying engine.
"""

from __future__ import annotations

import re
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

#: Default prefix that ``factors`` and ``recurrence_bound`` inspect.
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
        self._run_bounds = None        # words.run_bounds
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

    def _runs(self) -> tuple[int, int]:
        """The word's longest runs ``(k0, k1)``, which ``run_bounds`` keeps."""
        raise NotImplementedError

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

    def _runs(self) -> tuple[int, int]:
        """Longest runs from the morphisms alone, with no letter read: with
        w_i = s_{i+1}(w_{i+1}) the fixed point of the cycle rotated by i, the
        longest runs of all w_i are the least fixed point of ``_longest_runs``,
        iterated up from the seed letter.  On p steps a bounded word settles
        within (4p + 1)(2p + 1) rounds: its 2p entries reach 1 (the letter
        occurs) or 2 (its square occurs) at most 4p times, and in between a
        change spreads along at most 2p entries.  Still growing, it raises."""
        steps, p = self._steps, len(self._steps)
        longest = [[int(a == self.seed) for a in (0, 1)]] * p
        for _ in range((4 * p + 1) * (2 * p + 1)):
            after = longest[1:] + longest[:1]  # steps[i] maps w_{i+1}
            grown = [_longest_runs(s, k) for s, k in zip(steps, after)]
            if grown == longest:
                return tuple(longest[0])
            longest, last = grown, longest
        grows = [a for a in (0, 1) if any(g[a] > l[a] for g, l in zip(longest, last))]
        raise DomainError(
            f"runs of letter {' and '.join(map(str, grows))} in "
            f"{self.spec_string()} grow without bound"
        )


def _longest_runs(step: Sequence[tuple], after: Sequence[int]) -> list[int]:
    """Longest run of each letter in s(w), s the step (each letter's image as
    runs ``(b, count)``) and ``after`` the longest runs of w.

    An a-run of s(w) lies inside one image s(b), b a letter of w; spans the
    border of s(b1) s(b2), b1 b2 a factor of w (01 and 10 when both letters
    occur, bb when w has a run bb); or, when s(c) = a^m, covers the images of
    a whole c-run of w between two images of the other letter d."""
    present = [b for b in (0, 1) if after[b]]
    pairs = [(x, y) for x in present for y in present if x != y or after[x] >= 2]
    longest = []
    for a in (0, 1):
        lead = [runs[0][1] if runs[0][0] == a else 0 for runs in step]
        trail = [runs[-1][1] if runs[-1][0] == a else 0 for runs in step]
        best = [count for b in present for x, count in step[b] if x == a]
        best += [trail[x] + lead[y] for x, y in pairs]
        for c in present:
            if len(step[c]) == 1 and step[c][0][0] == a:  # s(c) = a^m
                best.append(trail[1 - c] + step[c][0][1] * after[c] + lead[1 - c])
        longest.append(max(best, default=0))
    return longest


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

    def _runs(self) -> tuple[int, int]:
        """Longest interior runs.  The first and last runs are cut by the
        word's ends: a letter with no interior run, or a cut run longer than
        every interior run of its letter, raises ``PrefixTooShort``."""
        eff, spec = self.max_available(), self.spec_string()
        if eff < 2:
            raise PrefixTooShort("cannot certify run bounds on fewer than 2 letters")
        w = self.letters(eff)
        starts = np.flatnonzero(np.append(True, w[1:] != w[:-1]))
        lengths, heads = np.diff(np.append(starts, eff)), w[starts]
        if starts.size < 3:
            raise PrefixTooShort(
                f"no interior runs in the first {eff} letters of {spec}"
            )
        bounds = [int(lengths[1:-1][heads[1:-1] == a].max(initial=0)) for a in (0, 1)]
        if not all(bounds):
            raise PrefixTooShort(
                f"letter {bounds.index(0)} completes no interior run in the first "
                f"{eff} letters of {spec}"
            )
        if any(lengths[e] > bounds[heads[e]] for e in (0, -1)):
            raise PrefixTooShort(
                f"a run cut by an end of the first {eff} letters of {spec} is "
                "longer than every interior run of its letter"
            )
        return bounds[0], bounds[1]

    def spec_string(self) -> str:
        return f"explicit:{self.text}"


#: Letter-to-block substitutions by spec tag, in ``_FixedPointSource``'s run
#: format: a -> aa and a -> 1 - a.  The image of 0 is one run, that of 1 its flip.
SUBSTITUTIONS: Mapping[str, tuple] = {
    "double": (((0, 2),), ((1, 2),)),
    "complement": (((1, 1),), ((0, 1),)),
}


class ImageSource(WordSource):
    """Image of an inner word under the substitution ``SUBSTITUTIONS[tag]``."""

    def __init__(
        self, inner: WordSource, tag: str, hard_limit: int = DEFAULT_HARD_LIMIT
    ):
        super().__init__(hard_limit)
        self.inner = inner
        self.tag = tag
        [(self._flip, self._size)] = SUBSTITUTIONS[tag][0]  # 0 -> flip^size

    def _generate(self, n: int) -> np.ndarray:
        image = self.inner.letters(-(-n // self._size))
        if self._flip:
            image = image ^ 1
        return np.repeat(image, self._size) if self._size > 1 else image

    def max_available(self) -> int:
        return min(self.hard_limit, self._size * self.inner.max_available())

    def _runs(self) -> tuple[int, int]:
        bounds = run_bounds(self.inner)
        return tuple(_longest_runs(SUBSTITUTIONS[self.tag], (bounds.k0, bounds.k1)))

    def spec_string(self) -> str:
        return f"{self.tag}({self.inner.spec_string()})"


def is_image(source: WordSource, tag: str) -> bool:
    """Whether the outermost wrapper of ``source`` is ``tag``'s substitution."""
    return isinstance(source, ImageSource) and source.tag == tag


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


def double(source: WordSource) -> ImageSource:
    """Word with every letter written twice."""
    return ImageSource(source, "double", hard_limit=source.hard_limit)


def complement(source: WordSource) -> ImageSource:
    """Word with every letter flipped."""
    return ImageSource(source, "complement", hard_limit=source.hard_limit)


# -- factor statistics ---------------------------------------------------------


@dataclass(frozen=True)
class RunBounds:
    """The word's longest runs: at most ``k0`` zeros or ``k1`` ones in a row,
    the first run included.  ``certified_over`` is ``source.max_available()``,
    the most letters the source can give."""

    k0: int
    k1: int
    certified_over: int

    @property
    def k(self) -> int:
        return max(self.k0, self.k1)

    @property
    def num_classes(self) -> int:
        return self.k0 + self.k1


def run_bounds(source: WordSource) -> RunBounds:
    """Longest runs of zeros and of ones in the word itself.

    A fixed point's come from its morphisms, an image's from its inner word's
    through its substitution (``_longest_runs``), and an explicit word's are
    its interior runs (each source's ``_runs``).  No prefix estimates them,
    and the source keeps them after the first call.
    """
    if source._run_bounds is None:
        k0, k1 = source._runs()
        source._run_bounds = RunBounds(k0, k1, source.max_available())
    return source._run_bounds


def factors(
    source: WordSource, n: int, window_len: int = DEFAULT_FACTOR_WINDOW
) -> set[str]:
    """Distinct length-``n`` blocks occurring in the first ``window_len`` letters."""
    if n < 1:
        raise DomainError("factor length must be at least 1")
    eff = min(window_len, source.max_available())
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
    eff = min(window_len, source.max_available())
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
    for tag in SUBSTITUTIONS:
        prefix = tag + "("
        if s.startswith(prefix) and s.endswith(")"):
            inner = parse_word_spec(s[len(prefix) : -1], hard_limit)
            return ImageSource(inner, tag, hard_limit)
    raise WordSpecError(f"unrecognised word spec: {text!r}")
