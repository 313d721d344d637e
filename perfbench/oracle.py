"""Independent oracle for the benchmark's output checks.

Everything here works on plain digit strings: words are generated by their
textbook definitions, shifts are compared by string comparison, and the
paper's closed forms are written out again from its statements.  Nothing is
imported from permlex or its tests, so a fault in the package cannot hide
itself by also being in the oracle.
"""

from __future__ import annotations

import re

Perm = tuple[int, ...]


# -- words ---------------------------------------------------------------------


def thue_morse(n: int) -> str:
    w = "0"
    while len(w) < n:
        w += w.translate(str.maketrans("01", "10"))
    return w[:n]


def sturmian(directive: tuple[int, ...], n: int) -> str:
    """Characteristic Sturmian word: s(-1) = 1, s(0) = 0,
    s(i) = s(i-1)^d_i s(i-2) with the directive repeating."""
    prev, cur, i = "1", "0", 0
    while len(cur) < n:
        prev, cur = cur, cur * directive[i % len(directive)] + prev
        i += 1
    return cur[:n]


def doubled(w: str) -> str:
    return "".join(c + c for c in w)


def word(spec: str, n: int) -> str:
    """First ``n`` letters of the words the benchmark uses."""
    if spec == "thue-morse":
        return thue_morse(n)
    if spec == "fibonacci":
        return sturmian((1,), n)
    if spec.startswith("sturmian:"):
        return sturmian(tuple(int(d) for d in spec[9:].split(",")), n)
    inner = re.fullmatch(r"double\((.*)\)", spec)
    if inner:
        return doubled(word(inner.group(1), (n + 1) // 2))[:n]
    raise ValueError(f"oracle has no word {spec!r}")


def longest_runs(w: str) -> tuple[int, int]:
    """Longest run of 0s and of 1s in ``w``."""
    return (
        max(len(r) for r in re.findall("0+", w)),
        max(len(r) for r in re.findall("1+", w)),
    )


# -- shifts and patterns -------------------------------------------------------


def compare(w: str, a: int, b: int) -> int:
    """-1 if the shift at ``a`` is lexicographically smaller than the one at
    ``b``, +1 if larger; ``w`` must contain the first difference."""
    span = 16
    while True:
        x, y = w[a : a + span], w[b : b + span]
        if x != y:
            return -1 if x < y else 1
        if max(a, b) + span > len(w):
            raise ValueError(f"shifts {a} and {b} agree to the end of the word")
        span *= 2


def _pattern_of(text: str, n: int, lookahead: int) -> Perm | None:
    """Pattern of the first ``n`` shifts of ``text`` judged on ``lookahead``
    letters each, or None if that many letters leave two shifts tied."""
    keys = [text[i : i + lookahead] for i in range(n)]
    if len(set(keys)) < n:
        return None
    order = sorted(range(n), key=keys.__getitem__)
    rank = [0] * n
    for r, i in enumerate(order):
        rank[i] = r + 1
    return tuple(rank)


def pattern(w: str, a: int, n: int) -> Perm:
    """Pattern of the window ``[a, a+n)`` of ``w``."""
    lookahead = 2 * n + 16
    while True:
        if a + n - 1 + lookahead > len(w):
            raise ValueError(f"word too short for the window [{a}, {a + n})")
        p = _pattern_of(w[a : a + n - 1 + lookahead], n, lookahead)
        if p is not None:
            return p
        lookahead *= 2


def pattern_set(w: str, n: int, starts) -> set[Perm]:
    """Distinct patterns of the length-``n`` windows at ``starts``.

    A window's pattern depends only on its letters plus enough lookahead to
    separate its shifts, so each distinct extended factor is sorted once.
    """
    starts = list(starts)
    lookahead = 2 * n + 16
    while True:
        span = n - 1 + lookahead
        if max(starts) + span > len(w):
            raise ValueError(f"word too short for length-{n} windows")
        found = set()
        for f in {w[a : a + span] for a in starts}:
            p = _pattern_of(f, n, lookahead)
            if p is None:
                break
            found.add(p)
        else:
            return found
        lookahead *= 2


def factor_count(w: str, m: int) -> int:
    """Distinct length-``m`` factors of ``w``."""
    return len({w[a : a + m] for a in range(len(w) - m + 1)})


def complementary_type(p: Perm, q: Perm) -> int | None:
    """k when ``p = alpha mid beta`` and ``q = beta mid alpha`` with
    ``|alpha| = |beta| = k`` and alpha, beta differing by one constant
    +-1 entrywise; None when no k works."""
    for k in range(1, len(p) // 2 + 1):
        alpha, mid, beta = p[:k], p[k : len(p) - k], p[len(p) - k :]
        offsets = {x - y for x, y in zip(alpha, beta)}
        if q == beta + mid + alpha and offsets in ({-1}, {1}):
            return k
    return None


# -- closed forms ----------------------------------------------------------------


def doubled_thue_morse_count(m: int) -> int:
    """Pattern count of the doubled Thue-Morse word, stated for m >= 17.

    Write the half-length ceil(m/2) as 2^r + p with 0 <= p < 2^r.  At odd m
    the count is 6 * 2^r when p = 0 and 8 * 2^r + 4p otherwise; an even m
    adds 4 when p = 0 and 2 otherwise.
    """
    if m < 17:
        raise ValueError("the doubled Thue-Morse count is stated for m >= 17")
    half = (m + 1) // 2
    r = half.bit_length() - 1
    p = half - 2**r
    odd = 6 * 2**r if p == 0 else 8 * 2**r + 4 * p
    return odd if m % 2 else odd + (4 if p == 0 else 2)


def doubled_sturmian_count(n: int, k: int) -> int:
    """Pattern count n + 2k + 1 of a doubled Sturmian word whose longest run
    has k letters; the doubled Fibonacci word reaches it from n = 6."""
    return n + 2 * k + 1


#: First length at which each doubled word's closed form holds.
CLOSED_FORM_ONSET = {"double(thue-morse)": 17, "double(fibonacci)": 6}


def closed_form(spec: str, n: int) -> int | None:
    """Closed-form pattern count of a doubled word at ``n``, None below its onset."""
    if n < CLOSED_FORM_ONSET[spec]:
        return None
    if spec == "double(thue-morse)":
        return doubled_thue_morse_count(n)
    return doubled_sturmian_count(n, max(longest_runs(word("fibonacci", 4096))))
