"""Naive reference implementations used as oracles by the tests.

Everything here works on plain strings with quadratic scans — slow but
obviously correct, and sharing no code with the package under test.
"""

from __future__ import annotations

from functools import cmp_to_key


def naive_thue_morse(n: int) -> str:
    w = "0"
    while len(w) < n:
        w = w + "".join("1" if c == "0" else "0" for c in w)
    return w[:n]


def naive_sturmian(directive: tuple[int, ...], n: int) -> str:
    prev, cur, i = "1", "0", 0
    while len(cur) < n:
        d = directive[i % len(directive)]
        prev, cur = cur, cur * d + prev
        i += 1
    return cur[:n]


def naive_fibonacci(n: int) -> str:
    return naive_sturmian((1,), n)


def naive_double(w: str) -> str:
    return "".join(c + c for c in w)


def naive_complement(w: str) -> str:
    return "".join("1" if c == "0" else "0" for c in w)


def naive_cmp(w: str, a: int, b: int) -> int:
    """First-difference comparison of the shifts at a and b; the word must be
    long enough to contain the difference."""
    c = 0
    while True:
        x, y = w[a + c], w[b + c]
        if x != y:
            return -1 if x < y else 1
        c += 1


def naive_subperm(w: str, a: int, n: int) -> tuple[int, ...]:
    positions = list(range(a, a + n))
    ordered = sorted(positions, key=cmp_to_key(lambda x, y: naive_cmp(w, x, y)))
    rank = {pos: i + 1 for i, pos in enumerate(ordered)}
    return tuple(rank[pos] for pos in positions)


def naive_perm_set(w: str, n: int, starts: int) -> set[tuple[int, ...]]:
    return {naive_subperm(w, a, n) for a in range(starts)}


def naive_factors(w: str, n: int) -> set[str]:
    return {w[a : a + n] for a in range(len(w) - n + 1)}


def naive_left(p: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(v - 1 if v > p[-1] else v for v in p[:-1])


def naive_right(p: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(v - 1 if v > p[0] else v for v in p[1:])


def naive_separation_depth(w: str, n: int, lo: int, hi: int) -> int:
    """Longest common prefix of two shifts starting in ``[lo, hi)`` less than
    ``n`` apart; the word must be long enough to contain every difference."""
    depth = 0
    for a in range(lo, hi):
        for b in range(a + 1, min(a + n, hi)):
            c = 0
            while w[a + c] == w[b + c]:
                c += 1
            depth = max(depth, c)
    return depth
