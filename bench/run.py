#!/usr/bin/env python3
"""Benchmark for rodtopo.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
Workloads are ``exact-corpus``, ``long-runs`` and ``tension-verify`` (see
bench/README.md).  Inputs are built from the seed before any timing.  Each
operation's output is checked against the goldens in ``bench/goldens``.

``--trace 0`` measures the end-to-end metrics with no wrapper and no
tracemalloc active.  ``--trace 1`` alternates untraced and traced passes
over a fixed slice of the inputs and reports the per-layer metrics and the
tracing overhead.  Human-readable lines come first; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

Exit codes: 0 measured (``correct`` says whether every output matched),
2 no package to benchmark, 3 the tension verifier passed its negative
control, 4 the inputs or the benchmark itself are inconsistent.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import hostspeed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
MIN_PASSES = 3
OUT_DIR = ROOT / ".bench-out"


def nproc():
    return len(os.sched_getaffinity(0))


def prepare_environment():
    """Pin this process, and every child it starts, to one CPU; cap the
    BLAS pools at nproc (now 1) and put src/ on the import path.  Must run
    before numpy loads.  Returns the CPU.

    The workloads run on one thread, and the host-speed probe must sample
    the CPU they run on (see hostspeed.py)."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(nproc())
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    sys.path.insert(0, str(SRC))
    return cpu


def fresh_imports(count):
    """Wall intervals (start, end) of ``count`` fresh interpreters
    importing rodtopo.cli."""
    cmd = [sys.executable, "-c", "import rodtopo.cli"]
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        # no timeout: with one, the wait polls in steps of up to 50 ms
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append((t0, time.perf_counter()))
    return times


def negative_control():
    """Run the verifier's negative control in a child process (so its grids
    do not count toward this process's peak memory); True when the
    corrupted map failed verification as required."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "negative_control.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    sys.stderr.write(proc.stdout + proc.stderr)
    return proc.returncode == 0


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reported = False

    def run(self, wl, item, census=True):
        """Time one operation, then check and census it; returns the wall
        interval (start, end) of each of its parts (one part unless the
        workload times the parts of an item on their own)."""
        t0 = time.perf_counter()
        try:
            out = wl.run(item)
        except Exception:  # an unexpected error fails this operation only
            parts = ((t0, time.perf_counter()),)
            if not self.reported:
                traceback.print_exc()
                self.reported = True
            ok = False
        else:
            t1 = time.perf_counter()
            parts = wl.part_times(out) if hasattr(wl, "part_times") else ((t0, t1),)
            ok = wl.check(item, out)
            if ok and census:
                wl.note(item, out)
        self.attempted += 1
        self.failed += not ok
        return parts


def warm_up(wl):
    tally = Tally()
    for item in wl.warmup_items:
        tally.run(wl, item, census=False)


def end_to_end(wl, seconds, tally, cpu):
    """Time every item pass after pass, for about ``seconds`` and at least
    MIN_PASSES passes, with the host-speed probe sampling ``cpu``.

    Every timed interval is corrected to reference speed (hostspeed.py).
    The bounded metrics use each part's median over its repeats; an item's
    time is the sum of its parts' (the chains of a long-runs item are timed
    one by one).  The fresh-interpreter imports for ``setup_s`` are spread
    over the run, one before each pass.  The figures under the
    per-workload names use every sample's wall time, uncorrected."""
    fresh_imports(1)  # may write bytecode caches; not counted
    warm_up(wl)
    setup = []
    times = [[] for _ in wl.items]
    with hostspeed.Probe(cpu) as probe:
        start = time.perf_counter()
        # start no pass that would end past ``seconds``: the run's length
        # stays within its budget however long a pass is
        elapsed = 0.0
        while len(setup) < MIN_PASSES or elapsed * (len(setup) + 1) / len(setup) < seconds:
            setup += fresh_imports(1)
            for k, item in enumerate(wl.items):
                times[k].append(tally.run(wl, item))
            elapsed = time.perf_counter() - start

    def median_s(intervals):
        return statistics.median(probe.corrected(a, b) for a, b in intervals)

    item_s = [sum(map(median_s, zip(*t))) for t in times]
    metrics = {
        "setup_s": (median_s(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ops_per_s": (len(item_s) / sum(item_s), "1/s"),
        "op_p50_ms": (1e3 * statistics.median(item_s), "ms"),
    }
    detail = dict(wl.report([sum(b - a for a, b in parts) for t in times for parts in t]))
    detail["host_speed"] = (probe.mean_speed(), "ratio")
    detail["items"] = (len(wl.items), "count")
    detail["passes"] = (len(setup), "count")
    return metrics, detail


def traced(wl, seconds, tally):
    """Alternate untraced and traced passes over the first ``trace_ops``
    items for about ``seconds``; counts must repeat in every traced pass,
    times are medians over the passes."""
    import spans

    items = wl.items[: wl.trace_ops]

    def run_pass():
        t0 = time.perf_counter()
        for item in items:
            tally.run(wl, item)
        return time.perf_counter() - t0

    tracer = spans.Tracer()
    warm_up(wl)
    walls = {False: [], True: []}
    passes = []
    start = time.perf_counter()
    elapsed = 0.0
    while not passes or elapsed * (len(passes) + 1) / len(passes) < seconds:
        for on in (False, True) if len(passes) % 2 == 0 else (True, False):
            if not on:
                walls[False].append(run_pass())
                continue
            tracer.reset()
            with tracer.active():
                walls[True].append(run_pass())
            passes.append(tracer.layer_metrics())
        elapsed = time.perf_counter() - start
    for m in passes[1:]:
        for name, (value, unit) in m.items():
            if unit != "s" and value != passes[0][name][0]:
                raise RuntimeError(f"{name} differs between traced passes of the same inputs")

    metrics = {
        name: (value if unit != "s" else statistics.median(p[name][0] for p in passes), unit)
        for name, (value, unit) in passes[0].items()
    }
    peak = 0.0
    if metrics["modelmap.grid_points"][0]:
        peak = spans.field_peak_mb(run_pass)
    metrics["modelmap.field_peak_mb"] = (peak, "MB")
    # paired differences: each traced pass against the untraced pass beside it
    plain = statistics.median(walls[False])
    overhead = statistics.median(t - u for t, u in zip(walls[True], walls[False]))
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_share"] = (overhead / plain, "ratio")

    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{wl.name}-seed{wl.seed}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for rec in tracer.span_records():
            fh.write(json.dumps(rec) + "\n")
    detail = {"passes": (len(passes), "count"), "pass_ops": (len(items), "count"),
              "untraced_pass_s": (plain, "s")}
    return metrics, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind: the probe is stopped and waited for, and the
    # temporary directory removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "rodtopo" / "__init__.py").is_file():
        print(f"error: no package to benchmark at {SRC / 'rodtopo'}", file=sys.stderr)
        return 2
    cpus = os.cpu_count()
    cpu = prepare_environment()
    import numpy
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    if not negative_control():
        print("error: the tension verifier passed the corrupted-transition map", file=sys.stderr)
        return 3

    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench-tmp-") as tmp:
        try:
            wl = workloads.WORKLOADS[args.workload](args.seed, args.seconds, tmp)
        except workloads.InputDrift as e:
            print(f"error: {e}; re-record with bench/record_goldens.py", file=sys.stderr)
            return 4
        tally = Tally()
        try:
            if args.trace:
                metrics, detail = traced(wl, args.seconds, tally)
            else:
                metrics, detail = end_to_end(wl, args.seconds, tally, cpu)
        except RuntimeError as e:
            print(f"error: {e}", file=sys.stderr)
            return 4

    print(f"workload {wl.name}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print(f"python {platform.python_version()}  numpy {numpy.__version__}  cpus {cpus}  "
          f"pinned to cpu {cpu}  blas threads {os.environ['OPENBLAS_NUM_THREADS']}")
    print(f"  failed_ratio = {tally.failed / tally.attempted:.6g} ratio "
          f"({tally.failed} of {tally.attempted})")
    for name, (value, unit) in {**metrics, **detail}.items():
        print(f"  {name} = {value:.6g} {unit}")
    print("census " + json.dumps(wl.census_lines(), sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
