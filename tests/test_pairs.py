"""Type decompositions, complementary pairs, and same-form censuses."""

from itertools import permutations

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from permlex import (
    DomainError,
    LengthMismatch,
    PermSet,
    Unsaturated,
    check_type_rule,
    complementary_pair,
    expected_pair_type,
    perm_set,
    restriction_type_check,
    same_form_census,
    types_of,
)

perms = st.integers(min_value=4, max_value=11).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))
)


# -- type decompositions ----------------------------------------------------------


def test_types_of_examples():
    assert [(t.k, t.epsilon) for t in types_of((2, 3, 5, 4, 1))] == [(1, 1)]
    assert [(t.k, t.epsilon) for t in types_of((2, 5, 4, 1, 3, 6))] == [(2, -1)]
    # a pattern may admit several decompositions
    ks = {t.k for t in types_of((3, 7, 5, 1, 2, 6, 4))}
    assert ks == {1, 3}
    assert types_of((1,)) == ()
    assert [(t.k, t.epsilon) for t in types_of((1, 2))] == [(1, -1)]
    assert types_of((1, 2, 3)) == ()  # end offset is -2, not +-1



def test_type_blocks_reassemble():
    (t,) = types_of((2, 3, 5, 4, 1))
    assert t.reassemble() == (2, 3, 5, 4, 1)
    assert t.swapped() == (1, 3, 5, 4, 2)
    assert t.alpha == (2,) and t.beta == (1,) and t.middle == (3, 5, 4)


@given(perms)
def test_swapping_blocks_yields_a_complementary_pair(p):
    p = tuple(p)
    for t in types_of(p):
        q = t.swapped()
        assert q != p
        got = complementary_pair(p, q)
        assert got is not None and got >= t.k


# -- complementary pairs ----------------------------------------------------------


def test_complementary_pair_examples():
    assert complementary_pair((2, 3, 5, 4, 1), (1, 3, 5, 4, 2)) == 1
    assert complementary_pair((3, 1, 2), (3, 1, 2)) == 0
    assert complementary_pair((1, 2, 3), (3, 2, 1)) is None
    with pytest.raises(LengthMismatch):
        complementary_pair((1, 2), (1, 2, 3))


@given(perms, perms)
def test_complementary_pair_is_symmetric(p, q):
    p, q = tuple(p), tuple(q)
    if len(p) != len(q):
        return
    assert complementary_pair(p, q) == complementary_pair(q, p)


def _quadratic_pair(p, q):
    # complementary_pair as first written: build the closing of every k and
    # compare it with q, then test the type-k offset rule.
    if p == q:
        return 0
    n = len(p)
    for k in range(n // 2, 0, -1):
        if q == p[n - k :] + p[k:-k] + p[:k]:
            offsets = {p[i] - p[n - k + i] for i in range(k)}
            if len(offsets) == 1 and offsets <= {-1, 1}:
                return k
    return None


def test_complementary_pair_matches_the_quadratic_loop_on_permutations():
    for n in range(1, 7):
        members = list(permutations(range(1, n + 1)))
        mismatches = [
            (p, q)
            for p in members
            for q in members
            if complementary_pair(p, q) != _quadratic_pair(p, q)
        ]
        assert mismatches == []


@st.composite
def tuple_pairs(draw):
    # Equal-length tuples over a few values, so entries repeat.  Half the
    # draws close p's middle the other way round at some k, then perhaps
    # change one entry, so most of those are pairs and some nearly are.
    n = draw(st.integers(min_value=1, max_value=12))
    entries = st.integers(min_value=0, max_value=draw(st.integers(1, 5)))
    p = tuple(draw(st.lists(entries, min_size=n, max_size=n)))
    if n < 2 or draw(st.booleans()):
        return p, tuple(draw(st.lists(entries, min_size=n, max_size=n)))
    k = draw(st.integers(min_value=1, max_value=n // 2))
    q = list(p[n - k :] + p[k:-k] + p[:k])
    if draw(st.booleans()):
        q[draw(st.integers(0, n - 1))] = draw(entries)
    return p, tuple(q)


@given(tuple_pairs())
@example(((1, 2, 1, 2), (1, 2, 1, 2)))
@example(((2, 1, 2, 1), (1, 1, 2, 2)))
@example(((1, 1, 2, 1, 1), (1, 1, 2, 1, 1)))
@example(((1, 2, 2, 1), (2, 1, 1, 2)))
@example(((1, 1, 1, 2), (2, 1, 1, 1)))
def test_complementary_pair_matches_the_quadratic_loop_with_repeats(pair):
    p, q = pair
    assert complementary_pair(p, q) == _quadratic_pair(p, q)


# -- censuses over enumerated sets -------------------------------------------------


def test_census_structure_at_known_lengths(tm):
    expectations = {
        8: (0, set()),
        9: (8, {1}),
        10: (8, {2}),
        13: (2, {5}),
        14: (0, set()),
        17: (16, {1}),
    }
    for length, (multi, types) in expectations.items():
        cen = same_form_census(perm_set(tm, length))
        assert cen.multi_groups == multi
        # Every same-form group here holds two patterns, so one pair each.
        assert cen.pairs == multi
        assert {t for g in cen.groups for t in g.pair_types} == types
        assert cen.non_complementary_pairs == 0


def test_census_contains_the_golden_group(tm):
    cen = same_form_census(perm_set(tm, 9))
    group = next(g for g in cen.groups if g.form == "01101001")
    assert group.members == (
        (4, 9, 7, 2, 6, 1, 3, 8, 5),
        (5, 9, 7, 2, 6, 1, 3, 8, 4),
    )
    assert group.pair_types == (1,)


def test_census_rows_are_serialisable(tm):
    rows = same_form_census(perm_set(tm, 9)).rows()
    assert all(set(r) == {"form", "size", "members", "pair_types"} for r in rows)
    assert sum(r["size"] for r in rows) == perm_set(tm, 9).count


def test_census_requires_saturation():
    fake = PermSet(
        source_spec="thue-morse",
        n=9,
        rows=np.array([[1, 2, 3, 4, 5, 6, 7, 8, 9]], dtype=np.uint8),
        scan_window=64,
        saturated=False,
    )
    with pytest.raises(Unsaturated):
        same_form_census(fake)


# -- pair types under restriction ---------------------------------------------------


def test_restriction_drops_the_type_by_one_per_side(tm):
    rep = restriction_type_check((2, 3, 5, 4, 1), (1, 3, 5, 4, 2))
    assert (rep.base_type, rep.left_type, rep.right_type, rep.middle_type) == (
        1,
        0,
        0,
        0,
    )
    assert rep.consistent

    cen = same_form_census(perm_set(tm, 13))
    for g in cen.groups:
        if g.size < 2:
            continue
        rep = restriction_type_check(g.members[0], g.members[1])
        assert rep.base_type == 5
        assert (rep.left_type, rep.right_type, rep.middle_type) == (4, 4, 3)
        assert rep.consistent


def test_restriction_type_check_rejects_non_pairs():
    with pytest.raises(DomainError):
        restriction_type_check((1, 2, 3), (3, 2, 1))


# -- the one-type rule --------------------------------------------------------------


@pytest.mark.parametrize("length", range(6, 19))
def test_type_rule_on_thue_morse(tm, length):
    rep = check_type_rule(perm_set(tm, length), expected_pair_type(length))
    assert rep.ok
    if expected_pair_type(length) is None:
        assert rep.pairs == 0


def test_type_rule_reports_violations(tm):
    rep = check_type_rule(perm_set(tm, 9), expected_type=None)
    assert not rep.ok
    assert rep.pairs == 8 and len(rep.violations) == 8
