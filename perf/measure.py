"""Statistics and environment helpers shared by every workload."""

from __future__ import annotations

import math
import os
import platform
import statistics
import sys
from typing import Dict, Iterable, Sequence


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest value with at least ``p``
    percent of the sample at or below it (no interpolation, so the
    answer is always a latency that was actually observed)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < p <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {p}")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values: Iterable[float]) -> float:
    return statistics.median(values)


def median_ms(seconds: Iterable[float]) -> float:
    return statistics.median(seconds) * 1000.0


def median_of_segments(segments: Sequence[Sequence[float]], p: float) -> float:
    """Median over segments of each segment's ``p``-th percentile.

    The first segment of a phase is its warm-up and is discarded by the
    caller; what is passed here are the timed segments only.
    """
    if not segments:
        raise ValueError("no timed segments")
    return median(percentile(seg, p) for seg in segments)


def relative_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median — the spread the
    driver computes over ten runs (``statistics.quantiles(n=4)``)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = median(values)
    return (q3 - q1) / abs(mid) if mid else 0.0


def cpu_seconds(pid: int) -> float:
    """User plus system CPU time a live process has used so far."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def peak_rss_mb(pid: "int | str" = "self") -> float:
    """``VmHWM`` of a live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def fingerprint(root: str) -> Dict[str, object]:
    """What a result file needs to be compared like with like."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "numpy": numpy_version,
        "commit": _git_commit(root),
    }


def _git_commit(root: str) -> "str | None":
    """The checked-out commit, read from ``.git`` without running git
    (the driver's checkout is not a repository: then ``None``)."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head, encoding="ascii") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(root, ".git", ref[5:]), encoding="ascii") as fh:
            return fh.read().strip()
    except OSError:
        return None
