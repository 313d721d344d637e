"""The three workloads: seeded op lists, how each op calls permlex, and the
checks of every op's output against the independent oracle.

Ops call permlex through module attributes (``perms.perm_set``, not a name
imported once), so the traced run's wrappers see every call.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from permlex import doubling, formulas, perms, words
from permlex.errors import PermlexError

import oracle

#: A finite word whose rows the program should report unsaturated (or refuse).
FINITE_SPEC = "explicit:" + "0110" * 8 + "0"
FINITE_FAULT = (
    "finite word reported saturated=True: shift_ranks pads truncated tails "
    "with -1, so the finite word gets an invented full order (ROADMAP item 3)"
)

#: Thue-Morse lengths at which the doubling map delta collides.
TM_COLLIDING = frozenset({7, 8, 15, 16, 31, 32})

#: Doubled-word window of each map: (offset from 2a, length from half-length n).
MAP_WINDOWS = {
    "delta": (0, lambda n: 2 * n),
    "delta-l": (0, lambda n: 2 * n - 1),
    "delta-r": (1, lambda n: 2 * n - 1),
    "delta-m": (1, lambda n: 2 * n - 2),
}

#: Scalar words with the recurrence bound of their run-length factors; every
#: window at least this long meets every run class, so delta is defined on it.
SCALAR_WORDS = (("thue-morse", 9), ("fibonacci", 6), ("sturmian:2", 12))
SCALAR_MAPS = {"delta_left": "delta-l", "delta_right": "delta-r", "delta_middle": "delta-m"}
SCALAR_KINDS = ("delta", *SCALAR_MAPS, "subpermutation")
DEEP_LIMIT = 1 << 17


@dataclass(frozen=True)
class Op:
    kind: str
    spec: str
    args: tuple


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    ops: tuple[Op, ...]
    #: op indices whose full outputs the oracle recomputes
    spot: frozenset[int]

    @property
    def specs(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(op.spec for op in self.ops))


def _one_per_block(rng: random.Random, lo: int, hi: int, block: int) -> list[int]:
    """One seeded value from each block of ``block`` consecutive values in
    ``[lo, hi]``.  Within every ``block`` consecutive blocks the offsets are a
    permutation of ``0..block-1``, so every seed covers the whole range at
    nearly the same cost."""
    starts = range(lo, hi + 1, block)
    offsets: list[int] = []
    while len(offsets) < len(starts):
        offsets += rng.sample(range(block), block)
    return [min(start + off, hi) for start, off in zip(starts, offsets)]


def _enumerate_ops(rng: random.Random) -> list[Op]:
    ops = []
    for spec, top in (("double(thue-morse)", 129), ("double(fibonacci)", 65)):
        ops += [Op("row", spec, (n,)) for n in _one_per_block(rng, 2, top, 4)]
    ops += [Op("finite_row", FINITE_SPEC, (n, 4)) for n in (2, 3, 4, 5)]
    return ops


def _transfer_ops(rng: random.Random) -> list[Op]:
    # delta at one length of each pair, and all four maps at one of every
    # three of those, so each pass still rebuilds the bulk windows per map.
    ops = []
    for spec in ("thue-morse", "fibonacci"):
        lengths = _one_per_block(rng, 5, 40, 2)
        all_maps = {lengths[i + rng.randrange(3)] for i in range(0, len(lengths), 3)}
        for n in lengths:
            maps = MAP_WINDOWS if n in all_maps else ("delta",)
            ops += [Op("audit", spec, (m, n)) for m in maps]
        ops += [Op("image_check", spec, (n, 2001)) for n in _one_per_block(rng, 12, 67, 4)]
    return ops


def _scalar_ops(rng: random.Random) -> list[Op]:
    # Stratified draws: every seed spreads starts, lengths and pair gaps over
    # the same ranges, so a pass costs about the same on every seed.
    ops = []
    for spec, bound in SCALAR_WORDS:
        shallow = _one_per_block(rng, 0, 4095, 256)
        deep = _one_per_block(rng, 4096, DEEP_LIMIT - 1, (DEEP_LIMIT - 4096) // 16)
        lengths = [bound + 2 + i * 24 // 32 for i in range(32)]
        gaps = _one_per_block(rng, 1, 320, 10)
        rng.shuffle(lengths)
        rng.shuffle(gaps)
        starts = [a for pair in zip(shallow, deep) for a in pair]
        for a, n, gap in zip(starts, lengths, gaps):
            ops += [Op(kind, spec, (a, n)) for kind in SCALAR_KINDS]
            ops.append(Op("order_case", spec, (a, a + gap)))
    return ops


OP_LISTS = {"enumerate": _enumerate_ops, "transfer": _transfer_ops, "scalar": _scalar_ops}


def build(name: str, seed: int) -> Workload:
    rng = random.Random(f"{name}:{seed}")
    ops = tuple(OP_LISTS[name](rng))
    spot_kinds = {"enumerate": "row", "transfer": "audit"}.get(name)
    candidates = [i for i, op in enumerate(ops) if op.kind == spot_kinds]
    spot = frozenset(rng.sample(candidates, min(4, len(candidates))))
    return Workload(name, seed, ops, spot)


def fresh_sources(workload: Workload) -> dict:
    return {spec: words.parse_word_spec(spec) for spec in workload.specs}


def run_op(op: Op, sources: dict):
    src = sources[op.spec]
    if op.kind == "row":
        (n,) = op.args
        return perms.perm_set(src, n, saturate=True), formulas.formula_for(src, n)
    if op.kind == "finite_row":
        n, scan = op.args
        return perms.perm_set(src, n, scan, saturate=True)
    if op.kind == "audit":
        map_name, n = op.args
        return doubling.audit_map(src, map_name, n)
    if op.kind == "image_check":
        n, scan = op.args
        return doubling.verify_image_formulas(src, n, scan)
    if op.kind == "subpermutation":
        return perms.subpermutation(src, *op.args)
    if op.kind == "order_case":
        a, b = op.args
        ordering, _ = perms.compare_shifts(src, a, b)
        lo, hi = (a, b) if ordering < 0 else (b, a)
        return doubling.doubling_order_case(src, lo, hi)
    return getattr(doubling, op.kind)(src, *op.args)


def summarize(op: Op, result, keep: bool):
    """Small comparable record of an op's output (an exception's class name
    when it raised); ``keep`` retains full pattern sets for the oracle."""
    if isinstance(result, Exception):
        return ("raised" if isinstance(result, PermlexError) else "crashed",
                type(result).__name__)
    if op.kind == "row":
        ps, formula = result
        return (ps.count, ps.saturated, ps.scan_window, formula, ps.members if keep else None)
    if op.kind == "finite_row":
        return ("saturated", result.saturated)
    if op.kind == "audit":
        return (
            tuple(
                (c.start_a, c.start_b, c.pair_type, c.equal_forms, c.equal_factors)
                for c in result.collisions
            ),
            result.surjective,
            result.left_restriction_faithful,
            result.right_restriction_faithful,
            result.no_type1_image_pairs,
            result.gap_violations,
            result.domain_size,
            result.image_size,
            result.k0,
            result.k1,
            result.scan_window,
        )
    if op.kind == "image_check":
        return (result.ok, result.windows, tuple(sorted(result.mismatches.items())))
    if op.kind == "delta":
        return (result.base, result.core, result.image)
    if op.kind == "order_case":
        return (result.chain, result.holds)
    return result


def failed(op: Op, summary) -> bool:
    """A finite-word row passes when it is unsaturated or refused with a
    PermlexError; any other op fails when it raises."""
    if op.kind == "finite_row":
        return summary[0] not in ("raised", "saturated") or summary[1] is True
    return summary[:1] in (("raised",), ("crashed",))


def fault_of(kind: str) -> str | None:
    """The known program fault that failures of an op kind stand for, if any."""
    return FINITE_FAULT if kind == "finite_row" else None


# -- checks against the oracle -------------------------------------------------


def check(workload: Workload, outputs: list) -> list[str]:
    """Problems found in one pass's outputs (empty when all are correct).
    Ops that failed are counted elsewhere and not checked here."""
    checker = {"enumerate": _check_enumerate, "transfer": _check_transfer,
               "scalar": _check_scalar}[workload.name]
    problems = []
    texts: dict = {}
    for i, (op, out) in enumerate(zip(workload.ops, outputs)):
        if failed(op, out) or op.kind == "finite_row":
            continue
        try:
            problems += [f"{op}: {p}" for p in checker(op, out, i in workload.spot, texts)]
        except ValueError as exc:
            problems.append(f"{op}: oracle could not decide: {exc}")
    return problems


def _text(texts: dict, spec: str, n: int) -> str:
    if spec not in texts:
        texts[spec] = oracle.word(spec, n)
    return texts[spec]


def _check_enumerate(op, out, spot, texts) -> list[str]:
    (n,) = op.args
    count, saturated, window, formula, members = out
    text = _text(texts, op.spec, 1 << 16)
    problems = []
    if not saturated:
        problems.append("row not saturated")
    expected = oracle.closed_form(op.spec, n)
    # formula_for may start later than the closed form's onset, never earlier
    if formula is not None and formula != expected:
        problems.append(f"formula_for gave {formula}, closed form is {expected}")
    if expected is None:
        expected = len(oracle.pattern_set(text, n, range(2 * window)))
    if count != expected:
        problems.append(f"count {count}, oracle {expected}")
    lower = oracle.factor_count(text[:16384], n - 1)
    if not lower <= count <= math.factorial(n):
        problems.append(f"count {count} outside [{lower}, {n}!]")
    if spot and members != oracle.pattern_set(text, n, range(window)):
        problems.append("pattern set differs from the oracle's")
    return problems


def _check_transfer(op, out, spot, texts) -> list[str]:
    if op.kind == "image_check":
        ok, windows, mismatches = out
        n, scan = op.args
        if not ok or windows != scan:
            return [f"image formula mismatches {mismatches} over {windows} windows"]
        return []
    map_name, n = op.args
    (collisions, surjective, left, right, no_type1, gaps,
     domain, image, k0, k1, scan) = out
    text = _text(texts, op.spec, 1 << 15)
    dtext = _text(texts, f"double({op.spec})", 1 << 16)
    problems = []
    if (k0, k1) != oracle.longest_runs(text):
        problems.append(f"run bounds ({k0}, {k1}) differ from the word's")
    flags = {"surjective": surjective, "no_type1_image_pairs": no_type1,
             "gap_violations == 0": gaps == 0}
    # Left faithfulness genuinely fails on thue-morse below n = 7.
    if op.spec != "thue-morse" or n >= 7:
        flags.update(left_restriction_faithful=left, right_restriction_faithful=right)
    problems += [f"{name} does not hold" for name, ok in flags.items() if not ok]
    if map_name == "delta":
        collide = op.spec == "thue-morse" and n in TM_COLLIDING
        if bool(collisions) != collide:
            problems.append(f"collisions {'missing' if collide else 'unexpected'}")
    k = max(k0, k1)
    offset, length = MAP_WINDOWS[map_name]
    for a, b, pair_type, equal_forms, equal_factors in collisions:
        pa, pb = oracle.pattern(text, a, n + k), oracle.pattern(text, b, n + k)
        if pa == pb:
            problems.append(f"collision ({a}, {b}) has equal domain patterns")
        if oracle.pattern(dtext, 2 * a + offset, length(n)) != oracle.pattern(
            dtext, 2 * b + offset, length(n)
        ):
            problems.append(f"collision ({a}, {b}) has distinct images")
        if n >= 7:
            same_form = text[a : a + n + k - 1] == text[b : b + n + k - 1]
            naive_type = oracle.complementary_type(pa, pb)
            if not (same_form and equal_forms and equal_factors):
                problems.append(f"collision ({a}, {b}) is not same-form")
            if naive_type is None or naive_type != pair_type:
                problems.append(
                    f"collision ({a}, {b}) type {pair_type}, oracle {naive_type}"
                )
    if spot:
        naive_domain = len(oracle.pattern_set(text, n + k, range(scan)))
        naive_image = len(
            oracle.pattern_set(dtext, length(n), [2 * a + offset for a in range(scan)])
        )
        if (domain, image) != (naive_domain, naive_image):
            problems.append(
                f"domain/image sizes ({domain}, {image}), oracle "
                f"({naive_domain}, {naive_image})"
            )
    return problems


def _check_scalar(op, out, spot, texts) -> list[str]:
    text = _text(texts, op.spec, DEEP_LIMIT + 8192)
    dtext = _text(texts, f"double({op.spec})", 2 * DEEP_LIMIT + 16384)
    if op.kind == "order_case":
        chain, holds = out
        a, b = op.args
        lo, hi = (a, b) if oracle.compare(text, a, b) < 0 else (b, a)
        ordered = all(oracle.compare(dtext, x, y) < 0 for x, y in zip(chain, chain[1:]))
        if not holds or not ordered or set(chain) != {2 * lo, 2 * lo + 1, 2 * hi, 2 * hi + 1}:
            return [f"order chain {chain} (holds={holds}) fails naive comparison"]
        return []
    a, n = op.args
    if op.kind == "subpermutation":
        got, want = out, oracle.pattern(text, a, n)
    elif op.kind == "delta":
        k = max(oracle.longest_runs(text))
        got = out
        want = (oracle.pattern(text, a, n + k), oracle.pattern(text, a, n),
                oracle.pattern(dtext, 2 * a, 2 * n))
    else:
        offset, length = MAP_WINDOWS[SCALAR_MAPS[op.kind]]
        got, want = out, oracle.pattern(dtext, 2 * a + offset, length(n))
    return [] if got == want else [f"pattern {got}, oracle {want}"]
