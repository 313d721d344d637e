"""Type decompositions and complementary pairs of patterns.

A pattern is *of type k* when it splits as ``alpha + middle + beta`` with
``len(alpha) == len(beta) == k`` and ``alpha[i] == beta[i] + e`` for a single
``e`` in {-1, +1}.  Two patterns form a *complementary pair of type k* when
they are the two ways of closing the same middle: ``p = alpha middle beta``
and ``q = beta middle alpha``.  By convention a pair of type <= 0 means the
patterns are equal.

These shapes explain every injectivity failure of the doubling transfer for
the words studied here, so this module also provides censuses of same-form
pattern groups and consistency checks for how pair types behave under the
one-sided restrictions.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import DomainError, LengthMismatch, Unsaturated
from .perms import (
    Perm,
    PermSet,
    form_of,
    left_restrict,
    middle_restrict,
    right_restrict,
)


@dataclass(frozen=True)
class TypeDecomposition:
    """One way of writing a pattern as ``alpha + middle + beta`` with
    entrywise offset ``epsilon`` between alpha and beta."""

    k: int
    epsilon: int
    alpha: Perm
    middle: Perm
    beta: Perm

    def reassemble(self) -> Perm:
        return self.alpha + self.middle + self.beta

    def swapped(self) -> Perm:
        """The complementary closing of the same middle."""
        return self.beta + self.middle + self.alpha


def _offset(p: Perm, k: int) -> int | None:
    """The type-k rule: the one ``e`` in {-1, +1} with ``p[i] == p[-k+i] + e``
    for every ``i < k``, or None if there is none."""
    offsets = {p[i] - p[len(p) - k + i] for i in range(k)}
    return offsets.pop() if len(offsets) == 1 and offsets <= {-1, 1} else None


def types_of(p: Perm) -> tuple[TypeDecomposition, ...]:
    """All type decompositions of ``p``, smallest k first.

    The two end blocks may not overlap, so k ranges over 1..len(p)//2; the
    middle may be empty.
    """
    return tuple(
        TypeDecomposition(
            k=k, epsilon=e, alpha=p[:k], middle=p[k:-k], beta=p[len(p) - k :]
        )
        for k in range(1, len(p) // 2 + 1)
        if (e := _offset(p, k)) is not None
    )


def complementary_pair(p: Perm, q: Perm) -> int | None:
    """Type of the complementary pair ``(p, q)``, or None if they are not one.

    Equal patterns are a degenerate pair of type 0.  For distinct patterns
    the largest admissible k is returned (it is in fact unique: ``q`` starts
    with ``p``'s tail block, which pins k).  So a k is tried only when
    ``q[0]`` is the first entry of that block: one k for a permutation.
    """
    if len(p) != len(q):
        raise LengthMismatch(
            f"patterns have lengths {len(p)} and {len(q)}; pairs need equal length"
        )
    if not p:
        raise DomainError("patterns must be nonempty")
    if p == q:
        return 0
    n = len(p)
    for k in range(n // 2, 0, -1):
        if (
            p[n - k] == q[0]
            and q == p[n - k :] + p[k:-k] + p[:k]
            and _offset(p, k) is not None
        ):
            return k
    return None


@dataclass(frozen=True)
class FormGroup:
    """All patterns of one enumeration sharing a single ascent/descent form."""

    form: str
    members: tuple[Perm, ...]
    pair_types: tuple[int | None, ...]  # per unordered member pair, in index order

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class CensusReport:
    """Same-form structure of a saturated pattern set."""

    source_spec: str
    n: int
    scan_window: int
    groups: tuple[FormGroup, ...]

    @property
    def multi_groups(self) -> int:
        return sum(1 for g in self.groups if g.size > 1)

    @property
    def pairs(self) -> int:
        return sum(len(g.pair_types) for g in self.groups)

    @property
    def non_complementary_pairs(self) -> int:
        return sum(1 for g in self.groups for t in g.pair_types if t is None)

    def rows(self) -> list[dict]:
        return [
            {
                "form": g.form,
                "size": g.size,
                "members": ";".join(
                    " ".join(str(v) for v in m) for m in g.members
                ),
                "pair_types": ";".join(
                    "-" if t is None else str(t) for t in g.pair_types
                ),
            }
            for g in self.groups
        ]


def same_form_census(pattern_set: PermSet) -> CensusReport:
    """Group a saturated pattern set by form and type every same-form pair."""
    if not pattern_set.saturated:
        raise Unsaturated(
            f"census needs a saturated pattern set; length {pattern_set.n} of "
            f"{pattern_set.source_spec} is not certified"
        )
    if pattern_set.n < 2:
        raise DomainError("census needs patterns of length at least 2")
    by_form: dict[str, list[Perm]] = {}
    for p in pattern_set.sorted_members():
        by_form.setdefault(form_of(p), []).append(p)
    groups = []
    for form in sorted(by_form):
        members = tuple(by_form[form])
        pair_types = tuple(
            complementary_pair(p, q) for p, q in combinations(members, 2)
        )
        groups.append(FormGroup(form=form, members=members, pair_types=pair_types))
    return CensusReport(
        source_spec=pattern_set.source_spec,
        n=pattern_set.n,
        scan_window=pattern_set.scan_window,
        groups=tuple(groups),
    )


@dataclass(frozen=True)
class RestrictionTypeReport:
    """How a complementary pair's type behaves under the three restrictions.

    A pair of type k restricts to pairs of type k-1 (left and right) and
    k-2 (middle), where any type <= 0 collapses to equality.
    """

    base_type: int
    left_type: int | None
    right_type: int | None
    middle_type: int | None

    @property
    def consistent(self) -> bool:
        expected_side = max(self.base_type - 1, 0)
        expected_middle = max(self.base_type - 2, 0)
        return (
            self.left_type == expected_side
            and self.right_type == expected_side
            and self.middle_type == expected_middle
        )


def restriction_type_check(p: Perm, q: Perm) -> RestrictionTypeReport:
    """Observe the pair types of (L(p), L(q)), (R(p), R(q)), (M(p), M(q)).

    ``p`` and ``q`` must form a complementary pair (possibly the degenerate
    type-0 pair p == q) of length at least 3.
    """
    base = complementary_pair(p, q)
    if base is None:
        raise DomainError("patterns do not form a complementary pair")
    return RestrictionTypeReport(
        base_type=base,
        left_type=complementary_pair(left_restrict(p), left_restrict(q)),
        right_type=complementary_pair(right_restrict(p), right_restrict(q)),
        middle_type=complementary_pair(middle_restrict(p), middle_restrict(q)),
    )


@dataclass(frozen=True)
class TypeRuleReport:
    """Whether every distinct same-form pair in a set has one prescribed type
    (or no distinct same-form pair exists when no type is prescribed)."""

    length: int
    expected_type: int | None
    pairs: int
    violations: tuple[tuple[Perm, Perm], ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def check_type_rule(
    pattern_set: PermSet, expected_type: int | None
) -> TypeRuleReport:
    """Check every distinct same-form pair of a saturated set against a rule.

    ``expected_type=None`` demands that no two distinct patterns share a
    form; an integer demands that every distinct same-form pair is a
    complementary pair of exactly that type.
    """
    census = same_form_census(pattern_set)
    pairs = 0
    violations = []
    for group in census.groups:
        for pair, observed in zip(combinations(group.members, 2), group.pair_types):
            pairs += 1
            if expected_type is None or observed != expected_type:
                violations.append(pair)
    return TypeRuleReport(
        length=pattern_set.n,
        expected_type=expected_type,
        pairs=pairs,
        violations=tuple(violations),
    )
