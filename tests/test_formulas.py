"""Closed-form pattern counts and their binary decompositions."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from permlex import (
    DomainError,
    MorphicSource,
    complement,
    decompose_floor,
    decompose_shifted,
    decompose_strict,
    double,
    doubled_sturmian_tau,
    doubled_tm_tau,
    expected_pair_type,
    expected_parity_cardinalities,
    explicit_source,
    fibonacci_source,
    formula_for,
    parse_word_spec,
    sturmian_tau,
    thue_morse_source,
    tm_rho,
    tm_tau,
)


# -- binary decompositions --------------------------------------------------------


@given(st.integers(min_value=2, max_value=10**6))
def test_strict_decomposition(n):
    d = decompose_strict(n)
    assert n == 2**d.r + d.rem
    assert 0 < d.rem <= 2**d.r


@given(st.integers(min_value=3, max_value=10**6))
def test_shifted_decomposition(n):
    d = decompose_shifted(n)
    assert n - 1 == 2**d.r + d.rem
    assert 0 < d.rem <= 2**d.r


@given(st.integers(min_value=1, max_value=10**6))
def test_floor_decomposition(n):
    d = decompose_floor(n)
    assert n == 2**d.r + d.rem
    assert 0 <= d.rem < 2**d.r


def test_decomposition_guards():
    with pytest.raises(DomainError):
        decompose_strict(1)
    with pytest.raises(DomainError):
        decompose_shifted(2)
    with pytest.raises(DomainError):
        decompose_floor(0)


# -- spot values ------------------------------------------------------------------


def test_sturmian_tau_is_the_identity():
    assert [sturmian_tau(n) for n in (2, 3, 10, 60)] == [2, 3, 10, 60]
    with pytest.raises(DomainError):
        sturmian_tau(1)


def test_doubled_sturmian_tau_offsets():
    assert doubled_sturmian_tau(20, 2) == 25
    assert doubled_sturmian_tau(20, 3) == 27
    with pytest.raises(DomainError):
        doubled_sturmian_tau(1, 2)


def test_tm_factor_counts():
    assert [tm_rho(n) for n in range(1, 9)] == [2, 4, 6, 10, 12, 16, 20, 22]
    with pytest.raises(DomainError):
        tm_rho(0)


def test_tm_pattern_counts():
    assert [tm_tau(n) for n in range(6, 14)] == [16, 18, 20, 30, 32, 34, 36, 38]
    with pytest.raises(DomainError):
        tm_tau(5)


def test_doubled_tm_pattern_counts():
    assert doubled_tm_tau(17) == 68
    assert doubled_tm_tau(18) == 70
    assert doubled_tm_tau(31) == 96
    assert doubled_tm_tau(32) == 100
    with pytest.raises(DomainError):
        doubled_tm_tau(16)


def test_pattern_count_dominates_factor_count():
    # every length-(n-1) block is the form of some length-n pattern
    for n in range(6, 80):
        assert tm_rho(n - 1) <= tm_tau(n)


# -- parity expectations ------------------------------------------------------------


def test_parity_expectations_spot_values():
    split = expected_parity_cardinalities(9)
    assert (split.even_full, split.even_drop_last) == (34, 34)
    assert (split.odd_drop_first, split.odd_drop_both) == (34, 28)
    # near powers of two three of the four fields jump to a factor count
    assert expected_parity_cardinalities(15).even_full == 46
    assert expected_parity_cardinalities(16).even_full == 48
    assert expected_parity_cardinalities(10).even_full == tm_tau(12)
    with pytest.raises(DomainError):
        expected_parity_cardinalities(8)


def test_parity_fields_recombine_into_totals():
    for m in range(19, 300):
        if m % 2:
            split = expected_parity_cardinalities((m + 1) // 2)
            total = split.even_drop_last + split.odd_drop_first
        else:
            n = m // 2
            total = (
                expected_parity_cardinalities(n).even_full
                + expected_parity_cardinalities(n + 1).odd_drop_both
            )
        assert total == doubled_tm_tau(m)


# -- pair-type rule -----------------------------------------------------------------


def test_expected_pair_type_spot_values():
    assert expected_pair_type(8) is None
    assert expected_pair_type(9) == 1
    assert expected_pair_type(10) == 2
    assert expected_pair_type(13) == 5
    assert expected_pair_type(14) is None
    assert expected_pair_type(17) == 1
    with pytest.raises(DomainError):
        expected_pair_type(4)


# -- formula routing ----------------------------------------------------------------


def test_formula_for_routes_by_source():
    fib = fibonacci_source()
    tm = thue_morse_source()
    assert formula_for(fib, 12) == 12
    assert formula_for(complement(fib), 12) == 12
    assert formula_for(double(fib), 40) == 45
    assert formula_for(tm, 9) == 30
    assert formula_for(double(tm), 17) == 68
    assert formula_for(explicit_source("0110"), 2) is None
    # below each onset no claim is made
    assert formula_for(tm, 5) is None
    assert formula_for(double(tm), 16) is None


@pytest.mark.parametrize(
    "spec", ["double(sturmian:2000,1)", "complement(double(sturmian:5000))"]
)
def test_formula_for_claims_nothing_it_cannot_certify(spec):
    # The default prefix cannot certify k or the onset on these words: the
    # length-2001 factors of sturmian:2000,1 still grow at 4096 letters, and
    # sturmian:5000 completes no interior run in its first 4096 letters.
    for n in (2, 3, 30):
        assert formula_for(parse_word_spec(spec), n) is None
    doubled_fibonacci = double(fibonacci_source())
    assert formula_for(doubled_fibonacci, 30) == 35
    assert formula_for(doubled_fibonacci, 11) is None


def test_formula_for_routes_thue_morse_on_structure(monkeypatch):
    tm = thue_morse_source()
    flipped = complement(tm)
    doubled_flipped = double(complement(tm))
    period_doubling = MorphicSource({0: (0, 1), 1: (0, 0)})
    # The same rules from seed 1 generate complement(thue-morse), which the
    # routing claims only through an explicit complement.
    seeded_one = MorphicSource({0: (0, 1), 1: (1, 0)}, seed=1)
    for n in (5, 6, 9, 16, 17, 40):
        assert formula_for(tm, n) == (tm_tau(n) if n >= 6 else None)
        assert formula_for(flipped, n) == formula_for(tm, n)
        assert formula_for(doubled_flipped, n) == (
            doubled_tm_tau(n) if n >= 17 else None
        )
        assert formula_for(period_doubling, n) is None
        assert formula_for(seeded_one, n) is None
        assert formula_for(double(period_doubling), n) is None
    # Routing reads the rules and seed, never the rendered spec string.
    monkeypatch.setattr(MorphicSource, "spec_string", lambda self: "thue-morse")
    assert formula_for(period_doubling, 9) is None
    assert formula_for(double(period_doubling), 17) is None
