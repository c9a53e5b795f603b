"""How fast the host is running right now, sampled while the work runs.

The reference host is a small virtual machine whose neighbours slow a
core by up to 1.7x, for a fraction of a second or for minutes, one core
at a time. No statistic taken over wall-clock times inside a run removes
that: two runs of one commit, one after the other, differed by 70 % in
every latency. What does remove it is to measure the host next to the
work. A child process pinned to the same core wakes every ``PERIOD``
seconds, runs a fixed pure-Python kernel (dict, list and integer work,
like the program's own) and appends ``timestamp cpu_ms`` to a file; the
kernel's *thread CPU time* does not count the time it waited for the
core, but does grow when the host slows the core (the guest sees no
steal time). ``SpeedGauge.factor(t0, t1)`` is the mean kernel time over
an interval as a share of ``REFERENCE_KERNEL_MS``: 1.0 on a quiet
reference host, 1.6 when a neighbour is busy. Every timing the benchmark
reports is the wall-clock time divided by the factor over that same
interval — milliseconds as the quiet reference host would have taken
them. The span file of a traced run keeps the clock readings as taken,
and every ``--out`` record the run's mean factor.

Cost: the kernel takes about 2 % of the core (2 ms in every 100), on
every run alike.
"""

from __future__ import annotations

import bisect
import os
import subprocess
import sys
import time
from itertools import accumulate
from typing import List

#: seconds between two samples
PERIOD = 0.1
KERNEL_STEPS = 15000
#: thread CPU milliseconds of the kernel on the quiet reference host,
#: sampled beside a running workload
REFERENCE_KERNEL_MS = 2.0


def kernel() -> None:
    table = {}
    for i in range(KERNEL_STEPS):
        table[i % 997] = table.get(i % 991, 0) + i
    sorted(table.values())


def kernel_ms(samples: int = 9) -> float:
    """Median thread CPU milliseconds of the kernel, measured here and
    now (what ``run.py`` picks the faster core with)."""
    times = []
    for _ in range(samples):
        c0 = time.thread_time()
        kernel()
        times.append(time.thread_time() - c0)
    return sorted(times)[len(times) // 2] * 1000.0


def _monitor(path: str) -> None:
    """The child: sample until killed, or until the parent is gone."""
    parent = os.getppid()
    with open(path, "a", buffering=1, encoding="ascii") as fh:
        while os.getppid() == parent:
            time.sleep(PERIOD)
            c0 = time.thread_time()
            kernel()
            cpu = time.thread_time() - c0
            # perf_counter is CLOCK_MONOTONIC: one clock for every process
            fh.write(f"{time.perf_counter():.6f} {cpu * 1000.0:.6f}\n")


class SpeedGauge:
    """Owns the sampling child; answers ``factor(t0, t1)`` for intervals
    of ``time.perf_counter()``."""

    def __init__(self, work_dir: str) -> None:
        self.path = os.path.join(work_dir, "hostspeed.txt")
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), self.path],
            stdout=subprocess.DEVNULL,
        )
        self._offset = 0
        self.times: List[float] = []
        self.kernel_ms: List[float] = []
        self._sums: List[float] = [0.0]

    def _read_more(self) -> None:
        try:
            with open(self.path, encoding="ascii") as fh:
                fh.seek(self._offset)
                chunk = fh.read()
        except FileNotFoundError:
            return
        complete = chunk.rfind("\n") + 1
        self._offset += complete
        for line in chunk[:complete].splitlines():
            stamp, cpu = line.split()
            self.times.append(float(stamp))
            self.kernel_ms.append(float(cpu))
        self._sums = [0.0] + list(accumulate(self.kernel_ms))

    def _wait_until(self, t: float) -> None:
        """Block until a sample taken at or after ``t`` has arrived."""
        deadline = time.perf_counter() + 50 * PERIOD
        while not self.times or self.times[-1] < t:
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                raise RuntimeError("the host-speed monitor stopped sampling")
            time.sleep(PERIOD / 4)
            self._read_more()

    def factor(self, t0: float, t1: float) -> float:
        """Mean host slowdown over ``[t0, t1]``, from the samples taken
        in it and one sampling period to either side."""
        self._wait_until(t1)
        lo = bisect.bisect_left(self.times, t0 - PERIOD)
        hi = bisect.bisect_right(self.times, t1 + PERIOD)
        if hi <= lo:  # before the first sample: the first one stands in
            lo, hi = 0, 1
        mean = (self._sums[hi] - self._sums[lo]) / (hi - lo)
        return mean / REFERENCE_KERNEL_MS

    def quiet_seconds(self, t0: float, t1: float) -> float:
        """``t1 - t0`` as the quiet reference host would have taken it."""
        return (t1 - t0) / self.factor(t0, t1)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


if __name__ == "__main__":
    _monitor(sys.argv[1])
