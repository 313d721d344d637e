"""Closed forms for pattern counts of the studied words.

Counts are exact integers; every function raises ``DomainError`` outside the
length range where its formula is known to hold.  Lengths decompose around
powers of two in three flavours:

* strict:  n = 2^r + p with 0 < p <= 2^r  (pattern counts of the base word)
* shifted: the strict decomposition of n - 1  (factor counts)
* floor:   n = 2^r + c with 0 <= c < 2^r  (doubled-word counts, pair types)
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError, PrefixTooShort, Unsaturated
from .words import (
    MorphicSource,
    SturmianSource,
    WordSource,
    is_image,
    run_bounds,
    recurrence_bound,
)


@dataclass(frozen=True)
class Decomposition:
    n: int
    r: int
    rem: int
    flavor: str


def decompose_strict(n: int) -> Decomposition:
    """n = 2^r + rem with 0 < rem <= 2^r."""
    if n < 2:
        raise DomainError(f"strict decomposition needs n >= 2, got {n}")
    r = (n - 1).bit_length() - 1
    return Decomposition(n=n, r=r, rem=n - (1 << r), flavor="strict")


def decompose_shifted(n: int) -> Decomposition:
    """n - 1 = 2^r + rem with 0 < rem <= 2^r."""
    if n < 3:
        raise DomainError(f"shifted decomposition needs n >= 3, got {n}")
    inner = decompose_strict(n - 1)
    return Decomposition(n=n, r=inner.r, rem=inner.rem, flavor="shifted")


def decompose_floor(n: int) -> Decomposition:
    """n = 2^r + rem with 0 <= rem < 2^r."""
    if n < 1:
        raise DomainError(f"floor decomposition needs n >= 1, got {n}")
    r = n.bit_length() - 1
    return Decomposition(n=n, r=r, rem=n - (1 << r), flavor="floor")


# -- Sturmian words -----------------------------------------------------------


def sturmian_tau(n: int) -> int:
    """Pattern count of any Sturmian word: n for n >= 2."""
    if n < 2:
        raise DomainError(f"Sturmian pattern count needs n >= 2, got {n}")
    return n


def doubled_sturmian_tau(n: int, k: int) -> int:
    """Pattern count of a doubled Sturmian word whose longest run has k
    letters: n + 2k + 1 for all large enough n (the onset is a property of
    the particular word; the Fibonacci word reaches it at n = 6)."""
    if n < 2:
        raise DomainError(f"doubled Sturmian pattern count needs n >= 2, got {n}")
    if k < 2:
        raise DomainError(f"a Sturmian word has runs of at least 2, got k={k}")
    return n + 2 * k + 1


# -- Thue-Morse ----------------------------------------------------------------


def tm_rho(n: int) -> int:
    """Factor count of the Thue-Morse word."""
    if n < 1:
        raise DomainError(f"factor count needs n >= 1, got {n}")
    if n == 1:
        return 2
    if n == 2:
        return 4
    d = decompose_shifted(n)
    power = 1 << d.r
    if 2 * d.rem <= power:
        return 3 * power + 4 * d.rem
    return 4 * power + 2 * d.rem


def tm_tau(n: int) -> int:
    """Pattern count of the Thue-Morse word: 2(2^{r+1} + p - 2) for
    n = 2^r + p, 0 < p <= 2^r, valid from n = 6."""
    if n < 6:
        raise DomainError(f"Thue-Morse pattern count needs n >= 6, got {n}")
    d = decompose_strict(n)
    return 2 * ((1 << (d.r + 1)) + d.rem - 2)


def _is_power(n: int) -> bool:
    return n >= 8 and (n & (n - 1)) == 0


def _adjacent_to_power(n: int) -> bool:
    """n or n + 1 is a power of two (with exponent at least 3)."""
    return _is_power(n) or _is_power(n + 1)


def _above_power(n: int) -> bool:
    """n - 1 is a power of two (with exponent at least 3)."""
    return _is_power(n - 1)


def doubled_tm_tau(m: int) -> int:
    """Pattern count of the doubled Thue-Morse word at length m >= 17.

    For half-length n = ceil(m/2) written as 2^r + p with 0 <= p < 2^r:

    * p = 0:  2^{r+2} + 2^{r+1}  at odd m, plus 4 at even m
    * p > 0:  2^{r+3} + 4p       at odd m, plus 2 at even m
    """
    if m < 17:
        raise DomainError(f"doubled Thue-Morse pattern count needs m >= 17, got {m}")
    n = (m + 1) // 2
    d = decompose_floor(n)
    if d.rem == 0:
        odd_value = (1 << (d.r + 2)) + (1 << (d.r + 1))
        return odd_value if m % 2 else odd_value + 4
    odd_value = (1 << (d.r + 3)) + 4 * d.rem
    return odd_value if m % 2 else odd_value + 2


@dataclass(frozen=True)
class ParityExpectation:
    """Expected pattern counts of the doubled Thue-Morse word, split by the
    parity of the start position, at the four lengths reached from
    half-length n by the doubling map and its restrictions."""

    n: int
    even_full: int        # even starts, length 2n
    even_drop_last: int   # even starts, length 2n - 1
    odd_drop_first: int   # odd starts, length 2n - 1
    odd_drop_both: int    # odd starts, length 2n - 2


def expected_parity_cardinalities(n: int) -> ParityExpectation:
    """Parity-split counts for half-length n >= 9.

    Each count equals the Thue-Morse pattern count at n + 2, except at the
    exceptional half-lengths next to powers of two (n in {2^r - 1, 2^r}, and
    additionally 2^r + 1 for the doubly-restricted odd set), where the count
    drops to the factor count at n + 1.
    """
    if n < 9:
        raise DomainError(f"parity cardinalities need n >= 9, got {n}")
    unrestricted = tm_tau(n + 2)
    collapsed = tm_rho(n + 1)
    near_power = _adjacent_to_power(n)
    value = collapsed if near_power else unrestricted
    middle_value = collapsed if (near_power or _above_power(n)) else unrestricted
    return ParityExpectation(
        n=n,
        even_full=value,
        even_drop_last=value,
        odd_drop_first=value,
        odd_drop_both=middle_value,
    )


def expected_pair_type(length: int) -> int | None:
    """Prescribed complementary-pair type for distinct same-form Thue-Morse
    patterns of the given length, or None when no distinct pair may exist.

    For length - 1 = 2^r + c with 0 <= c < 2^r: pairs have type c + 1 when
    c < 2^{r-1} + 1, and cannot exist otherwise.
    """
    if length < 5:
        raise DomainError(f"pair-type rule needs length >= 5, got {length}")
    d = decompose_floor(length - 1)
    if d.rem < (1 << (d.r - 1)) + 1:
        return d.rem + 1
    return None


# -- formula lookup for arbitrary sources ----------------------------------------


def formula_for(source: WordSource, n: int) -> int | None:
    """Closed-form pattern count for ``source`` at length ``n``, if one is
    known to apply there; None otherwise.

    Complements are transparent (complementing a binary word preserves its
    pattern counts).  For doubled Sturmian words the formula is only claimed
    from twice the inner word's recurrence bound, a conservative onset, and
    not at all where the default prefix cannot certify that onset
    (``PrefixTooShort`` or ``Unsaturated``), as on ``sturmian:5000``; the
    longest run k is the word's own (``run_bounds``).
    """
    while is_image(source, "complement"):
        source = source.inner
    if isinstance(source, SturmianSource):
        return sturmian_tau(n) if n >= 2 else None
    if isinstance(source, MorphicSource):
        return tm_tau(n) if source.is_thue_morse() and n >= 6 else None
    if is_image(source, "double"):
        inner = source.inner
        while is_image(inner, "complement"):
            inner = inner.inner
        if isinstance(inner, SturmianSource):
            try:
                k = run_bounds(inner).k
                onset = 2 * recurrence_bound(inner, k)
            except (PrefixTooShort, Unsaturated):
                return None
            return doubled_sturmian_tau(n, k) if n >= onset else None
        if isinstance(inner, MorphicSource) and inner.is_thue_morse():
            return doubled_tm_tau(n) if n >= 17 else None
    return None
