"""Host-speed probe: how much of its CPU the shared host gives the benchmark.

The benchmark runs on a few virtual CPUs of a shared host, and a virtual
CPU's speed changes by up to 2x for seconds to minutes at a time, as other
tenants load the physical core under it.  A run's wall times then follow
the host, not the program: the same ``model-verify`` takes 2.2 s in one
minute and 4.5 s in the next.

``Probe`` starts this file as a child process pinned to the benchmark's own
CPU.  The child times a fixed kernel, numpy's inverse of a batch of
PROBE_BATCH small matrices, every PROBE_INTERVAL_S seconds, until its
standard input closes, and then writes its samples (start, duration) to
standard output.  Of the kernels tried (a pure-Python integer loop, this
inverse, a batched matrix product and an elementwise pass over 2.4 MB),
this one's speed followed the speed of both the exact layers and the
tension verifier most closely.
``Probe.corrected(a, b)`` turns the wall interval of an operation into its
time at reference speed:

- the kernels that ran inside the interval took that CPU time from the
  operation, so it is subtracted;
- the rest is multiplied by the mean relative speed REFERENCE_KERNEL_S /
  kernel time of the samples inside the interval (or of the sample nearest
  to it, for an operation shorter than the interval between samples).

REFERENCE_KERNEL_S is the kernel's time on an uncontended CPU of the machine
the benchmark was tuned on (an Intel Xeon virtual machine, Python 3.11), so
a corrected time reads as seconds on that machine.  The kernel runs at the
same speed next to any operation (measured next to ``model-verify`` and
next to plumbing round trips), so the correction does not depend on the
program being measured.

Both processes read ``time.perf_counter``, which on Linux is the
system-wide CLOCK_MONOTONIC.
"""

from __future__ import annotations

import bisect
import os
import select
import statistics
import struct
import subprocess
import sys
import time
from pathlib import Path

PROBE_BATCH = 300
PROBE_INTERVAL_S = 0.02
REFERENCE_KERNEL_S = 0.3e-3
_SAMPLE = struct.Struct("<dd")


def main():
    """Child process: sample until standard input closes, which it also
    does when the parent dies."""
    import numpy as np

    batch = np.random.default_rng(0).standard_normal((PROBE_BATCH, 4, 4)) + 4 * np.eye(4)
    np.linalg.inv(batch)
    sys.stdout.buffer.write(b"r")  # ready: numpy is loaded
    sys.stdout.buffer.flush()
    samples = []
    while True:
        t0 = time.perf_counter()
        np.linalg.inv(batch)
        samples.append(_SAMPLE.pack(t0, time.perf_counter() - t0))
        if select.select([sys.stdin], [], [], PROBE_INTERVAL_S)[0]:
            break  # EOF: the parent is done
    sys.stdout.buffer.write(b"".join(samples))
    return 0


class Probe:
    """Runs the sampling child on ``cpu`` while the benchmark times work.

    Use as a context manager; the samples are available after it exits."""

    def __init__(self, cpu):
        self.cpu = cpu
        self.starts = []
        self.durations = []
        self._proc = None

    def __enter__(self):
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            preexec_fn=lambda: os.sched_setaffinity(0, {self.cpu}),
        )
        if self._proc.stdout.read(1) != b"r":
            self._proc.wait()
            raise RuntimeError("the host-speed probe did not start")
        return self

    def __exit__(self, *exc):
        try:
            out, _ = self._proc.communicate(timeout=30)
        finally:
            if self._proc.poll() is None:
                self._proc.kill()
                self._proc.wait()
        for t0, dt in _SAMPLE.iter_unpack(out):
            self.starts.append(t0)
            self.durations.append(dt)
        if exc[0] is None and (self._proc.returncode != 0 or not self.starts):
            raise RuntimeError("the host-speed probe returned no samples")
        return False

    def corrected(self, a, b):
        """Seconds at reference speed for the wall interval [a, b]."""
        lo = bisect.bisect_left(self.starts, a)
        hi = lo
        busy = 0.0
        while hi < len(self.starts) and self.starts[hi] + self.durations[hi] <= b:
            busy += self.durations[hi]
            hi += 1
        if hi > lo:
            inside = self.durations[lo:hi]
        else:  # no whole sample inside: take the one nearest to the middle
            mid = (a + b) / 2
            k = bisect.bisect_left(self.starts, mid)
            k = min((j for j in (k - 1, k) if 0 <= j < len(self.starts)),
                    key=lambda j: abs(self.starts[j] - mid))
            inside = [self.durations[k]]
        speed = statistics.fmean(REFERENCE_KERNEL_S / d for d in inside)
        return (b - a - busy) * speed

    def mean_speed(self):
        return statistics.fmean(REFERENCE_KERNEL_S / d for d in self.durations)


if __name__ == "__main__":
    sys.exit(main())
