"""In-memory span recorder for the ``--trace 1`` runs.

The benchmark records spans itself, around its direct calls into each
layer's public functions; the program under test carries no spans yet.
A span is ``(name, start, end, parent, trace)``: ``parent`` is the index
of the enclosing span (``None`` for a root) and ``trace`` is one id per
request, build or update. Spans stay in memory and are written out once,
at the end of the run, with the clock readings as they were taken; the
durations the analysis returns are divided by the host's slowdown over
each span (``perf/hostspeed.py``), like every other timing.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Dict, List, Optional

from perf.hostspeed import SpeedGauge


class _Span:
    __slots__ = ("tracer", "index")

    def __init__(self, tracer: "Tracer", index: int) -> None:
        self.tracer = tracer
        self.index = index

    def __enter__(self) -> "_Span":
        return self

    def __exit__(self, *exc) -> None:
        tracer = self.tracer
        tracer.spans[self.index][2] = time.perf_counter()
        tracer._stack.pop()


class _NullSpan:
    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None


_NULL = _NullSpan()


class Tracer:
    """Single-threaded span stack. ``Tracer(enabled=False)`` records
    nothing, which is what the tracing-overhead comparison runs."""

    def __init__(
        self, gauge: Optional[SpeedGauge] = None, enabled: bool = True
    ) -> None:
        self.gauge = gauge
        self.enabled = enabled
        #: ``[name, start, end, parent index, trace id]`` per span
        self.spans: List[list] = []
        self._stack: List[int] = []

    def span(self, name: str, trace: int):
        if not self.enabled:
            return _NULL
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, trace])
        self._stack.append(index)
        return _Span(self, index)

    # -- analysis --------------------------------------------------------
    def _seconds(self, start: float, end: float) -> float:
        if self.gauge is None:
            return end - start
        return self.gauge.quiet_seconds(start, end)

    def durations(self) -> Dict[str, List[float]]:
        out: Dict[str, List[float]] = defaultdict(list)
        for name, start, end, _, _ in self.spans:
            out[name].append(self._seconds(start, end))
        return dict(out)

    def by_trace(self, *names: str) -> Dict[int, float]:
        """Per trace id, the summed duration of the named spans."""
        out: Dict[int, float] = defaultdict(float)
        for name, start, end, _, trace in self.spans:
            if name in names:
                out[trace] += self._seconds(start, end)
        return dict(out)

    def unattributed_share(self) -> Dict[str, float]:
        """Per name of a span that has children: the share of its total
        duration that no child accounts for. The acceptance bar is
        that children sum to within 10 % of their parent."""
        has_children = {parent for _, _, _, parent, _ in self.spans if parent is not None}
        covered: Dict[int, float] = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        total: Dict[str, float] = defaultdict(float)
        loose: Dict[str, float] = defaultdict(float)
        for i in has_children:
            name, start, end, _, _ = self.spans[i]
            total[name] += end - start
            loose[name] += end - start - covered[i]
        return {name: loose[name] / total[name] for name in total if total[name] > 0}

    def write(self, path: str, extra: Optional[dict] = None) -> None:
        payload = {
            "columns": ["name", "start", "end", "parent", "trace"],
            "spans": self.spans,
        }
        if extra:
            payload.update(extra)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
