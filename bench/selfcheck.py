"""Self-check of the benchmark.

    python3 bench/selfcheck.py

Run from the repository root.  A tiny run of every workload, untraced and
traced, must finish with no failed operation and print exactly the metrics
BENCHMARK.json declares; and a run against goldens with one entry
corrupted must count a failure, so a benchmark that silently stopped
checking outputs cannot pass.  Exits 0 when every check holds.
"""

import copy
import json
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

import run  # noqa: E402


def tiny_runs(workloads):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for name in workloads.WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", "1",
                 "--seconds", "1", "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            label = f"{name} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr.strip()}")
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            want = {m["name"] for m in declared[kind]}
            if result["failed"] or not result["correct"]:
                problems.append(f"{label}: {result['failed']} of {result['attempted']} failed")
            if set(result["metrics"]) != want:
                problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(result['metrics']) ^ want)}")
            if "failed_ratio = 0 " not in proc.stdout:
                problems.append(f"{label}: no failed_ratio line")
            print(f"{label}: {result['failed']} of {result['attempted']} operations failed")
    return problems


def _corrupt_exact(golden, wl):
    golden["files"][next(iter(golden["files"]))]["digest"] = "0" * 16


def _corrupt_long(golden, wl):
    L, i = wl.items[0][0]
    golden["digests"][str(L)][i] = "0" * 16


def _corrupt_tension(golden, wl):
    golden["figures"]["mean_slope"] *= 1 + 1e-6


CORRUPTIONS = {
    "exact-corpus": _corrupt_exact,
    "long-runs": _corrupt_long,
    "tension-verify": _corrupt_tension,
}


def corrupted_goldens(workloads):
    """One corrupted golden entry, on the first operation a run makes, must
    be counted as a failure."""
    problems = []
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench-tmp-") as tmp:
        for name, corrupt in CORRUPTIONS.items():
            cls = workloads.WORKLOADS[name]
            golden = workloads.load_golden(name)
            bad = copy.deepcopy(golden)
            corrupt(bad, cls(1, 1, tmp, golden=golden))
            wl = cls(1, 1, tmp, golden=bad)
            tally = run.Tally()
            tally.run(wl, wl.items[0])
            print(f"corrupted {name} golden: {tally.failed} of {tally.attempted} failed")
            if not tally.failed:
                problems.append(f"{name}: a corrupted golden entry went unnoticed")
    return problems


def main():
    run.prepare_environment()
    import workloads

    problems = corrupted_goldens(workloads) + tiny_runs(workloads)
    for p in problems:
        print(f"FAIL {p}")
    print("selfcheck:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
