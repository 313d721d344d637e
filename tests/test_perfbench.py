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
