"""Transfer of window patterns through the letter-doubling substitution.

Positions in a window of an aperiodic binary word are graded by the run they
start: with maximal runs of k0 zeros and k1 ones, a position starting m
consecutive zeros gets class ``k0 - m`` and one starting m consecutive ones
gets class ``k0 + m - 1``.  Classes order shifts: a shift with a smaller
class index is lexicographically smaller whenever the classes differ.
Sorting shifts of the doubled word interleaves the two copies of each
position in a ladder fixed by these classes, which turns the doubled-window
pattern into arithmetic on the base pattern plus class counts:

    image[2i]   = core[i] + (partial sum below the class)   if letter is 0
    image[2i+1] = core[i] + (partial sum through the class)

with the two values swapped when the letter is 1.  ``core`` is the pattern of
the bare window, i.e. the k-fold left restriction of the window extended k
positions right.

One routine (``_window_rows``) reads the letters, run classes and class
sizes of any number of windows, and one (``_images``) evaluates the formula
on them, both in whole-array steps: ``_class_indices`` numbers each
letter's run once over the letters read, with one cumulative sum, classes
each buffer position once and gathers the classes at the offsets asked
for, and ``_images`` gathers class sums and sizes through flat indices.
The scalar entry points call both on a single window (``class_profile``,
``delta`` and friends) or on two one-letter windows
(``doubling_order_case``), and keep the formula's int64 images.
``_bulk_windows`` calls them on a scan and checks the images against the
doubled windows ranked directly, once per scan; it then keeps the ranked
rows, uint8 or uint16, as the scan's images, with one class column.
Everything a scan window feeds the formula and that ranking is a function of
a base factor starting at it, so ``_bulk_windows`` takes its base rows from
``perms._pattern_rows``, the routine enumeration uses: one row per distinct
factor, weighted by the starts that share it.  ``MAPS`` defines the four
transfer maps by the entries each trims from the doubled window, and drives
both paths: ``delta_left``/``delta_right``/``delta_middle`` trim one image
by it, the bulk path trims every image row.  A trimmed doubled window is a
sub-window of the untrimmed one, so its pattern is the image's restriction
(``perms.restrict_rows``), and no trimmed map ranks a window again.  The
source owns one slot for the last transfer window,
``WordSource._last_transfer``: ``delta`` and ``_bulk_windows`` store their
last result there, so the trimmed maps of one window, and every map audited
over one scan, reuse the untrimmed build.  The audit checks that read only
the untrimmed scan (restrictions, type-1 pairs, class gaps) are kept with
it as ``_BulkWindows.audit``, report fields that ``audit_map`` passes on.
Each map's images of the domain are grouped once per kept scan, and only
the grouping is kept (``_BulkWindows.map_groups``): the scan audit reads the
groups of ``delta``, ``delta-l`` and ``delta-r``, and each map's audit reads
its own for its image size and its collisions.
The scan audit types no pair one at a time: a type-1 partner of an image is
the image with its end entries swapped, so one distinct-row count decides the
type-1 check, and ``complementary_pair`` types only the collisions.
"""

from __future__ import annotations

import weakref
from dataclasses import asdict, dataclass, field
from functools import cached_property
from itertools import combinations
from types import MappingProxyType

import numpy as np

from .errors import ClassMissing, DomainError, Unsaturated
from .pairs import complementary_pair
from .perms import (
    DEFAULT_SCAN_WINDOW,
    LESS,
    Perm,
    _distinct_rows,
    _pattern_rows,
    _restrict,
    _row_groups,
    compare_shifts,
    is_permutation,
    perm_set,
    restrict_rows,
    subpermutation,
)
from .ranking import DEFAULT_MAX_HORIZON, separation_depth, window_patterns
from .words import (
    DEFAULT_FACTOR_WINDOW,
    DoubledSource,
    RunBounds,
    WordSource,
    recurrence_bound,
    run_bounds,
)

#: The four transfer maps: how many entries each trims from the front and
#: the back of the doubled window ``[2a, 2a+2n)``.
MAPS = {"delta": (0, 0), "delta-l": (0, 1), "delta-r": (1, 0), "delta-m": (1, 1)}
MAP_NAMES = tuple(MAPS)


def _doubled_view(source: WordSource) -> WordSource:
    """One shared doubled wrapper per source, so its caches accumulate.

    The wrapper reaches its inner word through a weak proxy: the source owns
    the wrapper, and a strong back reference would form a cycle.  Its hard
    limit is twice the source's, so it holds the copies of every letter the
    source has, and a capped source's doubled windows reach as far as its
    own windows do.
    """
    if source._doubled_twin is None:
        source._doubled_twin = DoubledSource(
            weakref.proxy(source), 2 * source.hard_limit
        )
    return source._doubled_twin


def _class_indices(
    letters: np.ndarray, k0: int, k1: int, at: np.ndarray
) -> np.ndarray:
    """Run class of the letter at each offset in ``at`` (an array of any
    shape) of ``letters``.

    Needs ``max(k0, k1)`` letters past the largest offset, as ``_window_rows`` reads.
    """
    # Mark the start of every run but the first, and the end of the buffer,
    # which lies past every classified offset: the marks are the run ends.
    # One in-place cumulative sum then numbers each letter's run.
    size = letters.size
    run_of = np.empty(size + 1, dtype=np.intp)
    run_of[0] = 0
    np.not_equal(letters[:-1], letters[1:], out=run_of[1:size])
    run_of[size] = 1
    ends = run_of.nonzero()[0]
    run_of.cumsum(out=run_of)
    # Each buffer position's run length and class, computed once and then
    # gathered at ``at``.  A run over its letter's cap gives a class outside
    # [0, k0 + k1): below 0 for zeros, past k0 + k1 - 1 for ones.
    run = ends[run_of[:size]]
    run -= np.arange(size)
    class_of = np.where(letters, run + (k0 - 1), k0 - run)
    over = class_of.view(np.uintp) >= k0 + k1
    if over.any():
        hits = np.flatnonzero(over[at])
        if hits.size:
            x = int(at.flat[hits[0]])
            raise DomainError(
                f"run of letter {int(letters[x])} at offset {x} "
                f"exceeds the certified bound ({k0}, {k1}); certify run bounds "
                "over a longer prefix"
            )
    return class_of[at]


def _window_rows(
    source: WordSource, bounds: RunBounds, starts: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Letters ``(W, n)``, run classes ``(W, n)`` and class sizes
    ``(W, k0 + k1)`` of the windows ``[a, a+n)`` at ``starts``.

    Reads letters only over ``[min(starts), max(starts) + n + k)``, so the
    offsets named in a run-bound error count from the smallest start.
    """
    lo = int(starts.min())
    letters = source.letters(int(starts.max()) + n + bounds.k)[lo:]
    at = (starts - lo)[:, None] + np.arange(n)
    classes = _class_indices(letters, bounds.k0, bounds.k1, at)
    keys = classes + bounds.num_classes * np.arange(starts.size)[:, None]
    gamma = np.bincount(keys.ravel(), minlength=starts.size * bounds.num_classes)
    return letters[at], classes, gamma.reshape(starts.size, -1)


def _bounds_covering(source: WordSource, extent: int) -> RunBounds:
    """Run bounds certified over at least ``extent`` letters.

    A longer certification window can reveal longer runs, which changes the
    class count, so re-certify until the bounds are stable over the region
    the caller is about to classify.
    """
    bounds = run_bounds(source, max(DEFAULT_FACTOR_WINDOW, extent))
    for _ in range(8):
        need = extent + bounds.k
        if bounds.certified_over >= need:
            return bounds
        wider = run_bounds(source, need + 64)
        if (wider.k0, wider.k1) == (bounds.k0, bounds.k1):
            return wider
        bounds = wider
    raise DomainError(
        f"run bounds of {source.spec_string()} kept growing while certifying "
        f"{extent} letters"
    )


def _images(
    core: np.ndarray, classes: np.ndarray, gamma: np.ndarray, letters: np.ndarray
) -> np.ndarray:
    """The doubling formula over ``W`` windows at once.

    ``core``, ``classes`` and ``letters`` are ``(W, n)``: each window's core
    pattern, and the run class and letter (0 or 1) of each of its positions.
    ``gamma`` is ``(W, k0 + k1)``, each window's class sizes.  Returns the
    ``(W, 2n)`` patterns of the doubled windows.  A row is a window, or the
    pair ``doubling_order_case`` orders, taken as a window with core (1, 2).
    """
    # Flat indices into the (W, k0 + k1) class arrays, one per position.
    at = classes + gamma.shape[1] * np.arange(core.shape[0])[:, None]
    through = gamma.cumsum(axis=1).ravel()[at] + core
    size = gamma.ravel()[at]
    # A letter 1 swaps the two copies: the even one moves up by the class size.
    swap = size * letters
    images = np.empty((core.shape[0], 2 * core.shape[1]), dtype=np.int64)
    images[:, 0::2] = through - size + swap
    images[:, 1::2] = through - swap
    return images


# -- scalar path -----------------------------------------------------------------


@dataclass(frozen=True)
class ClassProfile:
    """Run classes of one window, their sizes, and the partial sums that
    drive the doubling formula."""

    k0: int
    k1: int
    start: int
    length: int
    classes: tuple[int, ...]
    gamma: tuple[int, ...]
    partial_sums: tuple[int, ...]

    @property
    def k(self) -> int:
        return max(self.k0, self.k1)

    @property
    def num_classes(self) -> int:
        return self.k0 + self.k1


def class_profile(source: WordSource, a: int, n: int) -> ClassProfile:
    """Class data for the window ``[a, a+n)``.

    Every class must be inhabited; a window too short to meet all classes
    (shorter than the word's recurrence bound for length-k factors) raises
    ``ClassMissing``.
    """
    if a < 0 or n < 1:
        raise DomainError("window start must be >= 0 and length >= 1")
    bounds = _bounds_covering(source, a + n)
    _, (classes,), (gamma,) = _window_rows(source, bounds, np.array([a]), n)
    missing = np.flatnonzero(gamma == 0).tolist()
    if missing:
        more = f" and {len(missing) - 10} more" if len(missing) > 10 else ""
        raise ClassMissing(
            f"window [{a}, {a + n}) of {source.spec_string()} lacks run "
            f"class(es) {missing[:10]}{more}"
        )
    return ClassProfile(
        k0=bounds.k0,
        k1=bounds.k1,
        start=a,
        length=n,
        classes=tuple(classes.tolist()),
        gamma=tuple(gamma.tolist()),
        partial_sums=tuple(np.cumsum(gamma).tolist()),
    )


@dataclass(frozen=True)
class DeltaResult:
    """Doubled-window pattern assembled from base-word data alone."""

    start: int
    half_length: int
    base: Perm          # pattern of [a, a + n + k)
    core: Perm          # its k-fold left restriction, the pattern of [a, a + n)
    profile: ClassProfile
    image: Perm         # pattern of the doubled window [2a, 2a + 2n)


def delta(
    source: WordSource,
    a: int,
    n: int,
    max_horizon: int = DEFAULT_MAX_HORIZON,
) -> DeltaResult:
    """Image of the window ``[a, a+n)`` under letter doubling.

    The result's ``image`` equals the doubled word's pattern at
    ``[2a, 2a+2n)`` but is computed without ever ranking doubled shifts.
    The source keeps the last result, so the trimmed maps at the same
    window reuse it.
    """
    key = ("delta", a, n, max_horizon)
    if source._last_transfer[0] == key:
        return source._last_transfer[1]
    profile = class_profile(source, a, n)
    base = subpermutation(source, a, n + profile.k, max_horizon)
    core = restrict_rows(np.array([base]), 0, profile.k)
    classes, gamma = np.array([profile.classes]), np.array([profile.gamma])
    letters = source.letters(a + n)[None, a:]
    image = tuple(_images(core, classes, gamma, letters)[0].tolist())
    if not is_permutation(image):
        raise AssertionError(
            f"doubling image of window [{a}, {a + n}) is not a permutation; "
            "this is a bug"
        )
    result = DeltaResult(
        start=a,
        half_length=n,
        base=base,
        core=tuple(core[0].tolist()),
        profile=profile,
        image=image,
    )
    source._last_transfer = (key, result)
    return result


def delta_left(
    source: WordSource, a: int, n: int, max_horizon: int = DEFAULT_MAX_HORIZON
) -> Perm:
    """Doubled pattern with its last position dropped: window ``[2a, 2a+2n-1)``."""
    return _restrict(delta(source, a, n, max_horizon).image, *MAPS["delta-l"])


def delta_right(
    source: WordSource, a: int, n: int, max_horizon: int = DEFAULT_MAX_HORIZON
) -> Perm:
    """Doubled pattern with its first position dropped: window ``[2a+1, 2a+2n)``."""
    return _restrict(delta(source, a, n, max_horizon).image, *MAPS["delta-r"])


def delta_middle(
    source: WordSource, a: int, n: int, max_horizon: int = DEFAULT_MAX_HORIZON
) -> Perm:
    """Doubled pattern with both end positions dropped: ``[2a+1, 2a+2n-1)``."""
    return _restrict(delta(source, a, n, max_horizon).image, *MAPS["delta-m"])


@dataclass(frozen=True)
class OrderCase:
    """How the two doubled copies of two ordered shifts interleave."""

    label: str                          # one of 'a'..'e'
    chain: tuple[int, int, int, int]    # doubled positions in ascending shift order
    holds: bool                         # chain confirmed by direct comparison


def doubling_order_case(
    source: WordSource, a: int, b: int, max_horizon: int = DEFAULT_MAX_HORIZON
) -> OrderCase:
    """Interleaving pattern of the doubled shifts of ``a`` and ``b``.

    Requires the shift at ``a`` to precede the shift at ``b``.  The five
    possible chains are determined by the letters at the two positions and,
    when the letters agree, by whether their run classes agree:

    ========  ============================  =========================================
    letters   classes                       ascending chain
    ========  ============================  =========================================
    0, 0      class(a) < class(b)           2a < 2a+1 < 2b < 2b+1
    0, 0      class(a) = class(b)           2a < 2b   < 2a+1 < 2b+1
    0, 1      (any)                         2a < 2a+1 < 2b+1 < 2b
    1, 1      class(a) < class(b)           2a+1 < 2a < 2b+1 < 2b
    1, 1      class(a) = class(b)           2a+1 < 2b+1 < 2a < 2b
    ========  ============================  =========================================
    """
    ordering, _ = compare_shifts(source, a, b, max_horizon)
    if ordering != LESS:
        raise DomainError("the shift at a must precede the shift at b")
    bounds = _bounds_covering(source, max(a, b) + 1)
    letters, classes, gamma = _window_rows(source, bounds, np.array([a, b]), 1)
    letter_a, letter_b = letters[:, 0].tolist()
    class_a, class_b = classes[:, 0].tolist()
    if (letter_a, class_a) > (letter_b, class_b):
        raise AssertionError(
            "class ladder out of order for lexicographically ordered shifts; "
            "this is a bug"
        )
    # The pair is a window with core (1, 2); the formula ranks its copies.
    image = _images(np.array([[1, 2]]), classes.T, gamma.sum(axis=0)[None], letters.T)
    copies = (2 * a, 2 * a + 1, 2 * b, 2 * b + 1)
    chain = tuple(x for _, x in sorted(zip(image[0].tolist(), copies)))
    # Doubled shifts agree on twice as many letters as the base shifts they
    # copy, so the direct check needs twice the base lookahead.
    doubled = _doubled_view(source)
    holds = all(
        compare_shifts(doubled, x, y, 2 * max_horizon)[0] == LESS
        for x, y in zip(chain, chain[1:])
    )
    label = "abcde"[letter_a + 2 * letter_b + (class_a == class_b)]
    return OrderCase(label=label, chain=chain, holds=holds)


# -- bulk path ---------------------------------------------------------------------


@dataclass(frozen=True)
class _BulkWindows:
    """Per-factor data for the starts of a scan: patterns, last classes, and
    the doubled windows, ranked directly and equal to the formula's images.

    Row i stands for the scan starts that share the base factor of
    ``starts[i]``, their first; every per-window value below is a function
    of that factor (see ``_bulk_windows``), and ``class_complete_windows``
    counts starts, not rows.  ``images`` keeps the ranked rows in the dtype
    ``ranking.window_patterns`` gives them (uint8 up to 2n = 255, uint16
    above), so the audits group and restrict them with no widening copy;
    ``map_groups`` keeps a map's grouping, not its rows.
    """

    n: int
    bounds: RunBounds
    starts: np.ndarray          # (F,) first start of each distinct factor, ascending
    base_patterns: np.ndarray   # (F, n+k)
    last_class: np.ndarray      # (F,) class of position n-1, narrowest unsigned dtype
    class_complete: np.ndarray  # (F,) every class inhabited
    class_complete_windows: int  # scan starts whose window meets every class
    images: np.ndarray          # (F, 2n) ranked directly, equal to the formula's
    # map name -> (index, bounds) of ``map_groups``, filled on first read.
    _groups: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @cached_property
    def reps(self) -> np.ndarray:
        """First row, and so first start, of each distinct domain pattern,
        ascending, read-only.

        The image must depend on the pattern alone: every row's image, in the
        grouped order, is asserted to be that of its pattern's first row.  A
        trimmed image restricts the untrimmed one, so this covers every map.
        """
        index, bounds = _row_groups(self.base_patterns)
        first = index[bounds[:-1]]
        pattern_first = np.repeat(first, np.diff(bounds))
        if not np.array_equal(self.images[index], self.images[pattern_first]):
            raise AssertionError(
                "one domain pattern produced two different images; this is a bug"
            )
        reps = np.sort(first)
        reps.setflags(write=False)
        return reps

    def map_groups(self, map_name: str) -> tuple[np.ndarray, np.ndarray]:
        """``(index, bounds)``: the ``perms._row_groups`` of the images of
        the domain under ``map_name``, one row per ``reps`` entry.  Grouped
        once per scan and map; the scan audit and every ``audit_map`` over
        this scan read the same grouping."""
        if map_name not in self._groups:
            rows = restrict_rows(self.images[self.reps], *MAPS[map_name])
            self._groups[map_name] = _row_groups(rows)
        return self._groups[map_name]

    @cached_property
    def audit(self) -> MappingProxyType:
        """The ``AuditReport`` fields that read only this scan's untrimmed
        rows, read-only and made once for every map audited over it."""
        # Structural checks on the distinct full doubling images.  Restriction
        # maps images to images, so a restriction is faithful exactly when its
        # map has as many distinct images as the full doubling.
        index, bounds = self.map_groups("delta")
        full = self.images[self.reps[index[bounds[:-1]]]]
        left_faithful = self.map_groups("delta-l")[1].size == bounds.size
        right_faithful = self.map_groups("delta-r")[1].size == bounds.size
        # The type-1 partner of a permutation is itself with its end entries
        # swapped, when those differ by one.  Past two entries the swap keeps
        # the form, as no entry lies between the two; a two-entry row's
        # partner has the other form, so it never makes a same-form pair.
        # The swapped rows are distinct, so a repeat is a partner in ``full``.
        # The rows are unsigned, so the end difference is taken in int64.
        adjacent_ends = np.abs(full[:, 0].astype(np.int64) - full[:, -1]) == 1
        swaps = full[adjacent_ends & (full.shape[1] > 2)]
        swaps[:, [0, -1]] = swaps[:, [-1, 0]]
        with_swaps = np.vstack([full, swaps])
        no_type1 = len(_distinct_rows(with_swaps)) == len(with_swaps)

        # Same-core windows whose final positions sit in different classes: the
        # classes must be adjacent and the last two image entries must differ.
        # Rows are (core, class of the last position, last two image entries).
        n, complete = self.n, self.class_complete
        core = restrict_rows(self.base_patterns[complete], 0, self.bounds.k)
        ends = self.last_class[complete, None], self.images[complete, 2 * n - 2 :]
        tails = _distinct_rows(np.hstack([core, *ends]))
        gap_checked = 0
        gap_violations = 0
        for group in _multi_groups(*_row_groups(tails[:, :n])):
            for (c1, x1, y1), (c2, x2, y2) in combinations(tails[group, n:].tolist(), 2):
                if c1 != c2:
                    gap_checked += 1
                    gap_violations += abs(c1 - c2) != 1 or x1 == x2 or y1 == y2

        return MappingProxyType(dict(
            left_restriction_faithful=left_faithful,
            right_restriction_faithful=right_faithful,
            no_type1_image_pairs=no_type1,
            gap_pairs_checked=gap_checked,
            gap_violations=gap_violations,
            class_complete_windows=self.class_complete_windows,
        ))


def _bulk_windows(
    source: WordSource,
    n: int,
    scan_window: int,
    max_horizon: int = DEFAULT_MAX_HORIZON,
) -> _BulkWindows:
    """Group the scan starts by base factor and evaluate the formula and the
    direct ranking once per group.

    The rows are ``perms._pattern_rows`` of the base windows ``[a, a+n+k)``,
    one per factor ``w[a, a+n+k+H(n+k))``, H the separation depth; that
    factor fixes everything a row holds.  It fixes the base pattern, and with
    it the core.  Classes and letters of ``[a, a+n)`` read runs of at most k
    letters, inside the same factor.  Two shifts of the doubled window
    ``[2a, 2a+2n)`` agree on at most max(2H(n)+1, 2k-1) letters: an even and
    an even copy on twice the agreement of the base pair, an odd and an odd
    one on one more than twice that of the next base pair, and copies of
    mixed parity only inside one run.  So the copies of
    ``w[a, a+n+max(H(n)+1, k))``, a prefix of the row's factor, fix the
    doubled window's pattern, ranked on the doubled word at that depth and
    asserted equal to the image; a trimmed window's pattern restricts it.

    The source keeps the last scan, its arrays read-only, so every map
    audited at the same ``(n, scan_window)`` reuses it, and the audit checks
    and map groupings kept with it.
    """
    key = ("bulk", n, scan_window, max_horizon)
    if source._last_transfer[0] == key:
        return source._last_transfer[1]
    if n < 1:
        raise DomainError("half-length must be at least 1")
    if scan_window < 1:
        raise DomainError("scan window must be at least 1")
    bounds = _bounds_covering(source, scan_window + n)
    k = bounds.k
    starts, weights, base_patterns = _pattern_rows(
        source, n + k, scan_window, None, max_horizon
    )
    depth = separation_depth(source, n, scan_window + n, max_horizon)
    core_patterns = restrict_rows(base_patterns, 0, k)
    window_letters, classes, gamma = _window_rows(source, bounds, starts, n)
    images = window_patterns(
        _doubled_view(source), 2 * starts, 2 * n, max(2 * depth + 1, 2 * k - 1)
    )
    # The int64 formula values are compared with the narrow ranked rows, so
    # a formula value out of the rows' range never wraps into agreement.
    formula = _images(core_patterns, classes, gamma, window_letters)
    if not np.array_equal(formula, images):
        raise AssertionError(
            "doubling image formula disagrees with directly ranked doubled "
            "windows; this is a bug"
        )
    class_complete = (gamma > 0).all(axis=1)
    bulk = _BulkWindows(
        n=n,
        bounds=bounds,
        starts=starts,
        base_patterns=base_patterns,
        last_class=classes[:, -1].astype(np.min_scalar_type(bounds.num_classes)),
        class_complete=class_complete,
        class_complete_windows=int(weights[class_complete].sum()),
        images=images,
    )
    kept = starts, base_patterns, images, bulk.last_class, class_complete
    for array in kept:
        array.setflags(write=False)
    source._last_transfer = (key, bulk)
    return bulk


@dataclass(frozen=True)
class ImageFormulaCheck:
    """Outcome of comparing the class formula against direct ranking for all
    four maps over the ``windows`` starts of a scan."""

    source_spec: str
    half_length: int
    windows: int
    mismatches: dict[str, int]

    @property
    def ok(self) -> bool:
        return all(v == 0 for v in self.mismatches.values())


def verify_image_formulas(
    source: WordSource,
    n: int,
    scan_window: int,
    max_horizon: int = DEFAULT_MAX_HORIZON,
) -> ImageFormulaCheck:
    """Compare formula images (and their three restrictions) with patterns
    ranked directly on the doubled word, for every window start in
    ``[0, scan_window)``.

    The comparison is made when the scan is built (or kept): ``_bulk_windows``
    ranks the doubled windows and raises unless they equal the images, and a
    trimmed window's pattern restricts its window's, so no map mismatches.
    """
    _bulk_windows(source, n, scan_window, max_horizon)
    return ImageFormulaCheck(
        source_spec=source.spec_string(),
        half_length=n,
        windows=scan_window,
        mismatches=dict.fromkeys(MAPS, 0),
    )


@dataclass(frozen=True)
class CollisionRecord:
    """Two window starts whose distinct domain patterns map to one image."""

    start_a: int
    start_b: int
    pair_type: int | None       # complementary-pair type of the domain patterns
    equal_factors: bool         # length-n letter blocks agree
    equal_forms: bool           # full (n+k-1)-letter forms agree


@dataclass(frozen=True)
class AuditReport:
    """Injectivity/surjectivity audit of one transfer map at one half-length.

    The domain is the set of distinct ``(n+k)``-patterns seen in the scan.
    Per map: ``image_length``, ``image_size``, ``collisions`` and
    ``surjective``.  ``surjective`` holds by construction: the doubled
    windows at the scan starts restrict the rows ``_bulk_windows`` ranked
    directly and asserted equal to the formula images, and
    ``_BulkWindows.audit`` asserts that each domain pattern has one image,
    so every doubled window is the image of its start's domain pattern.

    Per scan, the same for every map audited over one ``(n, scan_window)``:
    ``domain_size`` and the structural fields.  They check, on the full
    doubling images, that the left and right restrictions stay faithful
    (``delta-l`` and ``delta-r`` have as many distinct images as ``delta``:
    a restriction maps images to images, so it is one-to-one on them exactly
    then), that no two images form a complementary pair of type 1, and that
    same-core windows whose final positions sit in different classes have
    adjacent classes and gapped final image entries.  The type-1 partner of
    an image is the image with its end entries swapped, when those differ by
    one; the swap keeps the form of an image of three or more entries, and
    gives a two-entry image the other form, so at ``n = 1`` no pair counts.
    ``class_complete_windows`` counts scan windows that meet every run class,
    one per start, not one per distinct factor.
    """

    source_spec: str
    map_name: str
    half_length: int
    image_length: int
    k0: int
    k1: int
    scan_window: int
    domain_size: int
    image_size: int
    collisions: tuple[CollisionRecord, ...]
    surjective: bool
    left_restriction_faithful: bool
    right_restriction_faithful: bool
    no_type1_image_pairs: bool
    gap_pairs_checked: int
    gap_violations: int
    class_complete_windows: int

    @property
    def injective(self) -> bool:
        return not self.collisions

    def to_dict(self) -> dict:
        data = asdict(self)
        data["collisions"] = [asdict(c) for c in self.collisions]
        data["injective"] = self.injective
        return data


def _collision(bulk: _BulkWindows, i: int, j: int) -> CollisionRecord:
    """The record of rows ``i`` and ``j`` of the scan.  A binary window's
    pattern spells its factor (``perms.form_of``): the descents of a base
    pattern are the letters ``w[a, a+n+k-1)``."""
    p, q = bulk.base_patterns[i], bulk.base_patterns[j]
    form_a, form_b = p[:-1] > p[1:], q[:-1] > q[1:]
    return CollisionRecord(
        start_a=int(bulk.starts[i]),
        start_b=int(bulk.starts[j]),
        pair_type=complementary_pair(tuple(p.tolist()), tuple(q.tolist())),
        equal_factors=bool(np.array_equal(form_a[: bulk.n], form_b[: bulk.n])),
        equal_forms=bool(np.array_equal(form_a, form_b)),
    )


def _multi_groups(index: np.ndarray, bounds: np.ndarray) -> list[np.ndarray]:
    """The groups of ``perms._row_groups`` that hold two rows or more."""
    edges = bounds.tolist()
    return [index[a:b] for a, b in zip(edges, edges[1:]) if b - a > 1]


def audit_map(
    source: WordSource,
    map_name: str,
    n: int,
    scan_window: int = DEFAULT_SCAN_WINDOW,
    max_horizon: int = DEFAULT_MAX_HORIZON,
) -> AuditReport:
    """Collision and surjectivity audit of one transfer map at half-length ``n``.

    The checks that read only the untrimmed scan are made on the scan's
    first audit and kept with it (``_BulkWindows.audit``); the map's images
    and their groups are the scan's ``map_groups``, made once per map.
    """
    if map_name not in MAPS:
        raise DomainError(f"unknown map {map_name!r}; expected one of {MAP_NAMES}")
    lead, trail = MAPS[map_name]
    if 2 * n - lead - trail < 1:
        raise DomainError(f"map {map_name} has an empty image at half-length n={n}")
    bulk = _bulk_windows(source, n, scan_window, max_horizon)
    index, bounds = bulk.map_groups(map_name)
    collisions = [
        _collision(bulk, i, j)
        for group in _multi_groups(index, bounds)
        for i, j in combinations(bulk.reps[group].tolist(), 2)
    ]
    collisions.sort(key=lambda c: (c.start_a, c.start_b))

    return AuditReport(
        source_spec=source.spec_string(),
        map_name=map_name,
        half_length=n,
        image_length=2 * n - lead - trail,
        k0=bulk.bounds.k0,
        k1=bulk.bounds.k1,
        scan_window=scan_window,
        domain_size=bulk.reps.size,
        image_size=bounds.size - 1,
        collisions=tuple(collisions),
        surjective=True,
        **bulk.audit,
    )


@dataclass(frozen=True)
class BoundsReport:
    """Saturated pattern counts versus the two-sided doubling bounds:
    the doubled word's counts at lengths 2n-1 and 2n never exceed
    2*tau(n+k) and tau(n+k) + tau(n+k+1) respectively."""

    source_spec: str
    n: int
    k: int
    tau_base: int           # tau(n + k)
    tau_base_next: int      # tau(n + k + 1)
    tau_doubled_odd: int    # tau of the doubled word at 2n - 1
    tau_doubled_even: int   # tau of the doubled word at 2n
    odd_ok: bool
    even_ok: bool
    odd_tight: bool
    even_tight: bool


def check_bounds(
    source: WordSource,
    n: int,
    scan_window: int = DEFAULT_SCAN_WINDOW,
    max_horizon: int = DEFAULT_MAX_HORIZON,
) -> BoundsReport:
    """Verify the doubling count bounds at half-length ``n`` with saturated
    enumeration on both the base word and its doubling.

    ``n`` must be at least the word's recurrence bound for length-k factors
    (every window of length ``n`` must contain all of them).
    """
    bounds = _bounds_covering(source, scan_window + n)
    threshold = recurrence_bound(source, bounds.k)
    if n < threshold:
        raise DomainError(
            f"bounds need n >= {threshold} (recurrence bound of "
            f"{source.spec_string()} for length-{bounds.k} factors), got {n}"
        )
    k = bounds.k
    doubled = _doubled_view(source)
    sets = [
        perm_set(word, length, scan_window, saturate=True, max_horizon=max_horizon)
        for word, length in [
            (source, n + k),
            (source, n + k + 1),
            (doubled, 2 * n - 1),
            (doubled, 2 * n),
        ]
    ]
    stale = [s for s in sets if not s.saturated]
    if stale:
        raise Unsaturated(
            f"enumeration did not saturate for lengths "
            f"{[s.n for s in stale]} of {source.spec_string()}"
        )
    tau_base, tau_base_next, tau_odd, tau_even = (s.count for s in sets)
    odd_bound = 2 * tau_base
    even_bound = tau_base + tau_base_next
    return BoundsReport(
        source_spec=source.spec_string(),
        n=n,
        k=k,
        tau_base=tau_base,
        tau_base_next=tau_base_next,
        tau_doubled_odd=tau_odd,
        tau_doubled_even=tau_even,
        odd_ok=tau_odd <= odd_bound,
        even_ok=tau_even <= even_bound,
        odd_tight=tau_odd == odd_bound,
        even_tight=tau_even == even_bound,
    )
