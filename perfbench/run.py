"""Benchmark permlex end to end and per layer.

    python3 perfbench/run.py --workload enumerate --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports ``src/permlex`` from it.
One run is a fresh process with one closed-loop caller: it repeats whole
passes over the workload's seeded op list (fresh word sources per pass), at
least three and then while the next pass is expected to end within
``--seconds``.  Op times are scaled by a calibration loop timed next to them
(see README.md).  Afterwards it checks the first pass's outputs against the
independent oracle in ``oracle.py`` and later passes against the first.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.
``--workload all`` runs the three workloads one after another, each in its own
process, and prints them side by side.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = ("enumerate", "transfer", "scalar")
SETUP_PROBES = 7
#: Every op's time is its median over at least this many passes.
MIN_PASSES = 3
#: Best time of each calibration loop on the reference host (a shared 2-vCPU
#: VM, Python 3.11.7, numpy 2.4.6) when quiet; times are scaled to that speed.
REFERENCE_CALIBRATION_S = {"numpy": 0.0014, "python": 0.0010, "interpreter": 0.0011}
#: The loop whose work is most like the workload's hot path.
CALIBRATION_LOOP = {"enumerate": "numpy", "transfer": "numpy", "scalar": "python"}
#: The loop runs before an op once this long has passed since it last ran.
CALIBRATE_EVERY_S = 0.05
#: At most this many traced passes per run; spans are kept for each.
MAX_TRACED_PASSES = 3
#: Candidate percentiles for op_tail_ms, highest first.
TAIL_LADDER = (99.0, 98.0, 95.0, 90.0, 80.0, 75.0)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def tail_percentile(samples: int) -> float:
    """Highest ladder percentile with at least ten samples beyond it."""
    return next(p for p in TAIL_LADDER if samples * (100 - p) / 100 >= 10)


def percentile(values, p: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def setup(workload: str, seed: int):
    """Import permlex and build the workload's inputs and word sources."""
    sys.path.insert(0, str(SRC))
    import permlex
    import workloads

    if Path(permlex.__file__).resolve().parent != SRC / "permlex":
        raise SystemExit(f"imported permlex from {permlex.__file__}, not {SRC}")
    wl = workloads.build(workload, seed)
    workloads.fresh_sources(wl)
    return workloads, wl


def interpreter_speed() -> float:
    """Reference time over the best of three runs of a pure-Python loop,
    for a fresh process that has not imported numpy yet."""
    times = []
    for _ in range(3):
        t0 = perf_counter()
        x = 0
        for j in range(20000):
            x += j % 7
        times.append(perf_counter() - t0)
    return REFERENCE_CALIBRATION_S["interpreter"] / min(times)


def probe_setup_seconds(args) -> float:
    """Median calibrated set-up time over fresh processes, each timing its
    own set-up."""
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


class Calibration:
    """Fixed work that shares no code with permlex, timed next to the ops.

    Other tenants of a shared host slow everything down by up to half, in
    stretches of seconds to minutes; the loop's time tells how fast the host
    runs at that moment.  The numpy loop sorts and dedupes small arrays like
    the bulk paths do; the Python loop makes many small numpy calls from
    Python like the single-window paths do.
    """

    def __init__(self, loop: str):
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self._reference = REFERENCE_CALIBRATION_S[loop]
        self._loop = {"numpy": self._numpy_loop, "python": self._python_loop}[loop]
        self._keys = rng.integers(0, 1 << 20, size=6000)
        self._rows = rng.integers(0, 1000, size=(200, 40))
        self._letters = rng.integers(0, 2, size=4096).astype(np.int8)

    def _numpy_loop(self):
        np = self._np
        np.lexsort((self._keys[::-1], self._keys))
        np.argsort(self._rows, axis=1, kind="stable")
        np.unique(self._rows, axis=0)

    def _python_loop(self):
        np, w = self._np, self._letters
        found = 0
        for j in range(400):
            diff = np.flatnonzero(w[j : j + 64] != w[j + 1 : j + 65])
            found += int(diff[0]) if diff.size else 0

    def speed(self) -> float:
        """Reference time over the loop's best of two runs now."""
        times = []
        for _ in range(2):
            t0 = perf_counter()
            self._loop()
            times.append(perf_counter() - t0)
        return self._reference / min(times)


class Runner:
    """Runs whole passes and keeps what the report needs."""

    def __init__(self, workloads, wl):
        self.workloads, self.wl = workloads, wl
        self.reference: list | None = None
        self.mismatched_passes = 0
        self.crashed = False
        self.attempted = Counter()
        self.failed = Counter()
        self.calibration = Calibration(CALIBRATION_LOOP[wl.name])
        self.pass_op_times: list[list[float]] = []
        self.walls: list[float] = []

    def one_pass(self) -> float:
        wk, wl = self.workloads, self.wl
        outputs, times = [], []
        t_pass = perf_counter()
        sources = wk.fresh_sources(wl)
        calibrated_at = -math.inf
        for i, op in enumerate(wl.ops):
            if perf_counter() - calibrated_at >= CALIBRATE_EVERY_S:
                speed = self.calibration.speed()
                calibrated_at = perf_counter()
            t0 = perf_counter()
            try:
                result = wk.run_op(op, sources)
            except Exception as exc:  # counted as a failed op, and reported
                result = exc
                if not isinstance(exc, wk.PermlexError) and not self.crashed:
                    traceback.print_exc()
                    self.crashed = True
            times.append((perf_counter() - t0) * speed)
            summary = wk.summarize(op, result, keep=i in wl.spot)
            self.attempted[op.kind] += 1
            self.failed[op.kind] += wk.failed(op, summary)
            outputs.append(summary)
            del result
        wall = perf_counter() - t_pass
        # Sources sit in reference cycles (their rank and doubled-word caches
        # point back at them), so free each pass's before the next begins.
        del sources
        gc.collect()
        self.walls.append(wall)
        self.pass_op_times.append(times)
        if self.reference is None:
            self.reference = outputs
        elif outputs != self.reference:
            self.mismatched_passes += 1
        return wall

    def run_for(self, budget: float, min_passes: int = 1, max_passes: int | None = None,
                on_pass=None):
        """At least ``min_passes`` whole passes, then more while the next is
        expected to end within ``budget`` seconds."""
        start = perf_counter()
        done = 0
        while True:
            wall = self.one_pass()
            done += 1
            if on_pass:
                on_pass(wall)
            over = perf_counter() - start + wall > budget
            if (over and done >= min_passes) or done == max_passes:
                return

    def op_times(self) -> list[float]:
        """Each op's calibrated time, as its median over the passes."""
        return [statistics.median(times) for times in zip(*self.pass_op_times)]


def run_workload(args) -> int:
    setup_s = None if args.trace else probe_setup_seconds(args)
    workloads, wl = setup(args.workload, args.seed)
    runner = Runner(workloads, wl)
    layer_passes = []
    if args.trace:
        import tracing

        runner.run_for(args.seconds / 2, min_passes=2)
        untraced_wall = min(runner.walls)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            runner.run_for(args.seconds / 2, min_passes=2, max_passes=MAX_TRACED_PASSES,
                           on_pass=lambda wall: layer_passes.append(tracer.end_pass(wall)))
        finally:
            tracer.uninstall()
    else:
        runner.run_for(args.seconds, min_passes=MIN_PASSES)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    problems = workloads.check(wl, runner.reference)
    if runner.mismatched_passes:
        problems.append(f"{runner.mismatched_passes} later pass(es) gave other outputs")
    problems += [f"op kind {kind} failed {n} time(s)" for kind, n in runner.failed.items()
                 if n and workloads.fault_of(kind) is None]
    for p in problems[:20]:
        print(f"CHECK FAILED: {p}", file=sys.stderr)

    typical = runner.op_times()
    tail_p = tail_percentile(len(typical))
    print(f"workload={wl.name} seed={wl.seed} passes={len(runner.walls)} ops/pass={len(typical)} "
          f"op_tail_ms=p{tail_p:g} of {len(typical)} calibrated op times")
    print("pass walls (s): " + " ".join(f"{w:.3f}" for w in runner.walls))
    print(f"{'op kind':<16}{'attempted':>10}{'failed':>8}")
    for kind in runner.attempted:
        fault = workloads.fault_of(kind)
        note = f"  fault: {fault}" if fault and runner.failed[kind] else ""
        print(f"{kind:<16}{runner.attempted[kind]:>10}{runner.failed[kind]:>8}{note}")

    if args.trace:
        chosen = min(range(len(layer_passes)), key=lambda i: layer_passes[i]["trace.wall_s"][0])
        metrics = dict(layer_passes[chosen])
        metrics["trace.overhead_s"] = (metrics["trace.wall_s"][0] - untraced_wall, "s")
        out_dir = HERE / "traces"
        out_dir.mkdir(exist_ok=True)
        tracer.write_spans(out_dir / f"{wl.name}-seed{wl.seed}.tsv", chosen)
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (sum(typical), "s"),
            "op_p50_ms": (statistics.median(typical) * 1000, "ms"),
            "op_tail_ms": (percentile(typical, tail_p) * 1000, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    for name, (value, unit) in metrics.items():
        print(f"{name:<40}{value:>16.6g} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(runner.attempted.values()),
        "failed": sum(runner.failed.values()),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    results = {}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            print(f"workload {name} exited with {done.returncode}", file=sys.stderr)
            return done.returncode
        print(done.stdout, end="")
        results[name] = json.loads(done.stdout.splitlines()[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "permlex" / "__init__.py").is_file():
        print(f"no permlex sources at {SRC}; run from a permlex checkout", file=sys.stderr)
        return 2
    if args.setup_probe:
        speed = interpreter_speed()
        t0 = perf_counter()
        setup(args.workload, args.seed)
        print((perf_counter() - t0) * speed)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
