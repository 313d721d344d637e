"""The benchmark's tracer finds the functions it wraps in permlex by name."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_target_resolves_in_permlex():
    # ``perfbench/run.py --trace 1`` looks each target up by name, so a
    # function renamed or deleted from the package would break only the
    # traced benchmark run; this test reads the list and edits nothing.
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for module, attribute, _ in tracing.TARGETS:
        target = importlib.import_module(f"permlex.{module}")
        for part in attribute.split("."):
            target = getattr(target, part)
        assert callable(target), f"permlex.{module}.{attribute}"


def test_traced_calls_fill_the_work_counters():
    # ``perfbench/run.py --trace 1`` reads the counters off the wrapped
    # functions' arguments; a renamed argument or a layer no longer called
    # would leave one at 0.  The tracer is installed in this process and
    # removed again.
    import permlex

    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tm = permlex.thue_morse_source()
        permlex.perm_set(tm, 6, scan_window=64)
        permlex.subpermutation(tm, 10, 9)
        permlex.compare_shifts(tm, 3, 17)
        permlex.run_bounds(tm)
        metrics = tracer.end_pass(1.0)
    finally:
        tracer.uninstall()
    for name in ("ranking.positions_ranked", "ranking.pattern_cells",
                 "words.letters_max"):
        assert metrics[name][0] > 0, name
    assert permlex.perm_set is importlib.import_module("permlex.perms").perm_set
