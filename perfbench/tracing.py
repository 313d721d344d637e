"""Per-layer tracing from outside the package.

Each traced function is replaced, in every permlex module that holds it (and
on the class, for ``WordSource.letters``), by a wrapper that records a span
(name, start, end, parent) and the layer's work counters.  Spans stay in
memory until the run ends.  Untraced runs never install the wrappers.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from time import perf_counter

from permlex import words


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_letters(counts, args, kwargs, result, parent):
    counts["letters_max"] = max(counts["letters_max"], _arg(args, kwargs, 1, "n"))


def _count_run_bounds(counts, args, kwargs, result, parent):
    counts["run_bounds_letters"] += result.certified_over


def _count_shift_ranks(counts, args, kwargs, result, parent):
    counts["positions_ranked"] += _arg(args, kwargs, 1, "positions")


def _count_windows(counts, args, kwargs, result, parent):
    windows = len(_arg(args, kwargs, 1, "starts"))
    counts["pattern_cells"] += windows * _arg(args, kwargs, 2, "n")
    if parent in ("perms.perm_set", "perms.perm_set_parity"):
        # one window-doubling round of an enumeration
        counts["scan_rounds"] += 1
        counts["windows_scanned"] += windows


def _count_patterns(counts, args, kwargs, result, parent):
    counts["patterns_distinct"] += result.count


# (module, attribute, counter): a counter sees the call's arguments, its
# result and the parent span's name after the call returns.
TARGETS = (
    ("words", "WordSource.letters", _count_letters),
    ("words", "run_bounds", _count_run_bounds),
    ("words", "recurrence_bound", None),
    ("ranking", "shift_ranks", _count_shift_ranks),
    ("ranking", "window_patterns", _count_windows),
    ("perms", "perm_set", _count_patterns),
    ("perms", "perm_set_parity", _count_patterns),
    ("perms", "compare_shifts", None),
    ("perms", "subpermutation", None),
    ("doubling", "audit_map", None),
    ("doubling", "verify_image_formulas", None),
    ("doubling", "delta", None),
    ("doubling", "doubling_order_case", None),
    ("pairs", "complementary_pair", None),
    ("formulas", "formula_for", None),
)
NAMES = tuple(f"{mod}.{attr.split('.')[-1]}" for mod, attr, _ in TARGETS)


class Tracer:
    def __init__(self):
        self._restore: list[tuple[object, str, object]] = []
        self._stack: list[int] = []
        self.passes: list[tuple[array, array, array, array]] = []
        self.begin_pass()

    def begin_pass(self):
        self.name_ids = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.counts = Counter(letters_max=0)

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "permlex" or name.startswith("permlex.")]
        for name_id, (mod, attr, counter) in enumerate(TARGETS):
            if attr == "WordSource.letters":
                self._replace(words.WordSource, "letters", name_id, counter)
                continue
            original = getattr(sys.modules[f"permlex.{mod}"], attr)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, key, name_id, counter)

    def _replace(self, owner, key, name_id, counter):
        original = getattr(owner, key)
        self._restore.append((owner, key, original))
        setattr(owner, key, self._wrap(original, name_id, counter))

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def _wrap(self, fn, name_id, counter):
        stack = self._stack

        def wrapper(*args, **kwargs):
            idx = len(self.starts)
            parent = stack[-1] if stack else -1
            self.name_ids.append(name_id)
            self.parents.append(parent)
            self.ends.append(0.0)
            stack.append(idx)
            self.starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[idx] = perf_counter()
                stack.pop()
            if counter is not None:
                counter(self.counts, args, kwargs, result,
                        NAMES[self.name_ids[parent]] if parent >= 0 else None)
            return result

        return wrapper

    def end_pass(self, wall: float) -> dict:
        """Per-layer metrics of the pass just traced, given its wall time.
        The pass's spans are kept for :meth:`write_spans`."""
        n = len(self.starts)
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if self.parents[i] >= 0:
                child[self.parents[i]] += dur[i]
        self_s = Counter()
        calls = Counter()
        for i in range(n):
            name = NAMES[self.name_ids[i]]
            self_s[name] += dur[i] - child[i]
            calls[name] += 1
        c = self.counts
        m = {f"{name}.self_s": (float(self_s[name]), "s") for name in NAMES}
        m.update({f"{name}.calls": (calls[name], "count") for name in NAMES})
        m.update({
            "words.letters_max": (c["letters_max"], "letters"),
            "words.run_bounds.letters_scanned": (c["run_bounds_letters"], "letters"),
            "ranking.positions_ranked": (c["positions_ranked"], "positions"),
            "ranking.pattern_cells": (c["pattern_cells"], "cells"),
            "perms.scan_rounds": (c["scan_rounds"], "count"),
            "perms.windows_scanned": (c["windows_scanned"], "windows"),
            "perms.patterns_distinct": (c["patterns_distinct"], "patterns"),
            "perms.distinct_per_window": (
                c["patterns_distinct"] / c["windows_scanned"] if c["windows_scanned"] else 0.0,
                "ratio"),
            "trace.wall_s": (wall, "s"),
            "trace.unwrapped_s": (wall - sum(self_s.values()), "s"),
            "trace.spans": (n, "count"),
        })
        self.passes.append((self.name_ids, self.starts, self.ends, self.parents))
        self.begin_pass()
        return m

    def write_spans(self, path, pass_index: int):
        """Spans of one traced pass as tab-separated name, start, end, parent."""
        name_ids, starts, ends, parents = self.passes[pass_index]
        base = starts[0] if len(starts) else 0.0
        with open(path, "w", encoding="ascii") as out:
            out.write("index\tname\tstart_s\tend_s\tparent\n")
            for i in range(len(starts)):
                out.write(f"{i}\t{NAMES[name_ids[i]]}\t{starts[i] - base:.9f}\t"
                          f"{ends[i] - base:.9f}\t{parents[i]}\n")
