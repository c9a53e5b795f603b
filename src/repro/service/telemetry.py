"""Ops-grade telemetry for the serving tier (the ``/v1/metrics`` feed).

One :class:`Telemetry` instance rides along with the HTTP front end
and aggregates everything an operator watches during an incident:

* **counters** — monotone event counts (requests by endpoint and
  status class, shed requests, timeouts);
* **per-endpoint latency histograms** — a sliding window of recent
  request latencies per endpoint, summarised as p50/p95/p99 (nearest
  rank over the window, the same arithmetic the bench harness uses);
* **gauges** — point-in-time readings evaluated at snapshot time
  (queue depth, in-flight requests). Gauges are registered as
  zero-argument callables so the snapshot always reports the *current*
  value, not the value at registration.

Everything is guarded by one lock and every operation is O(1) (the
histograms are bounded deques; percentiles sort only at snapshot
time), so instrumentation stays cheap enough for the request hot
path. The module is transport-neutral: the front end's admission
control and :class:`repro.service.api.ServiceAPI` feed the same
instance, and :meth:`Telemetry.snapshot` is the
payload of ``/v1/metrics`` (minus the service-level cache/epoch
fields, which :class:`repro.service.api.ServiceAPI` merges in).
"""

from __future__ import annotations

import math
import threading
from collections import deque
from typing import Any, Callable, Deque, Dict, Sequence, Union

#: latencies kept per endpoint (a sliding window, not all-time)
DEFAULT_WINDOW = 2048


def percentile(sorted_values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending sequence (0 < f <= 1):
    the smallest value with at least ``fraction`` of the sample at or
    below it, the ``ceil(f·n)``-th — ``perf/measure.percentile``'s rule.
    ``0.0`` for an empty sequence."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(fraction * len(sorted_values)))
    return sorted_values[rank - 1]


class EndpointStats:
    """The latency window and status counters of one endpoint."""

    __slots__ = ("latencies", "count", "errors", "shed")

    def __init__(self, window: int) -> None:
        self.latencies: Deque[float] = deque(maxlen=window)
        self.count = 0
        self.errors = 0
        self.shed = 0

    def observe(self, seconds: float, status: int) -> None:
        """Record one completed request."""
        self.count += 1
        self.latencies.append(seconds)
        if status >= 500:
            self.errors += 1
        elif status == 429:
            self.shed += 1

    def summary(self) -> Dict[str, Any]:
        """Count, error/shed totals and window percentiles (ms)."""
        window = sorted(self.latencies)
        return {
            "count": self.count,
            "errors": self.errors,
            "shed": self.shed,
            "window": len(window),
            "p50_ms": percentile(window, 0.50) * 1e3,
            "p95_ms": percentile(window, 0.95) * 1e3,
            "p99_ms": percentile(window, 0.99) * 1e3,
        }


class Telemetry:
    """Thread-safe counters + per-endpoint histograms + live gauges.

    Args:
        window: latencies retained per endpoint for the percentile
            summaries (sliding window; older samples age out).
    """

    def __init__(self, *, window: int = DEFAULT_WINDOW) -> None:
        self._window = window
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}
        self._endpoints: Dict[str, EndpointStats] = {}
        self._gauges: Dict[str, Union[int, float, Callable[[], Any]]] = {}

    # -- recording -------------------------------------------------------
    def counter(self, name: str, n: int = 1) -> None:
        """Increment the monotone counter ``name`` by ``n``."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + n

    def observe(self, endpoint: str, seconds: float, status: int) -> None:
        """Record one completed request against ``endpoint``.

        Feeds both the endpoint's latency window and the coarse
        ``requests`` / ``responses_NNx`` counters.
        """
        with self._lock:
            stats = self._endpoints.get(endpoint)
            if stats is None:
                stats = self._endpoints[endpoint] = EndpointStats(self._window)
            stats.observe(seconds, status)
            self._counters["requests"] = self._counters.get("requests", 0) + 1
            bucket = f"responses_{status // 100}xx"
            self._counters[bucket] = self._counters.get(bucket, 0) + 1

    def set_gauge(
        self, name: str, value: Union[int, float, Callable[[], Any]]
    ) -> None:
        """Register a gauge: a value, or a callable read at snapshot."""
        with self._lock:
            self._gauges[name] = value

    # -- reading ---------------------------------------------------------
    def counters(self) -> Dict[str, int]:
        """A consistent copy of every counter."""
        with self._lock:
            return dict(self._counters)

    def snapshot(self) -> Dict[str, Any]:
        """The ``/v1/metrics`` core payload.

        ``endpoints`` maps endpoint name → count/errors/shed +
        p50/p95/p99 over the latency window; ``gauges`` evaluates every
        registered callable *now* (a gauge that raises reports the
        error string instead of poisoning the endpoint).
        """
        with self._lock:
            counters = dict(self._counters)
            endpoints = {
                name: stats.summary() for name, stats in self._endpoints.items()
            }
            gauges = dict(self._gauges)
        evaluated: Dict[str, Any] = {}
        for name, value in gauges.items():
            if callable(value):
                try:
                    evaluated[name] = value()
                except Exception as exc:  # pragma: no cover - defensive
                    evaluated[name] = f"error: {exc}"
            else:
                evaluated[name] = value
        return {
            "counters": counters,
            "endpoints": endpoints,
            "gauges": evaluated,
            "shed": {
                "queue_full": counters.get("shed_queue_full", 0),
                "client_cap": counters.get("shed_client_cap", 0),
                "timeout": counters.get("shed_timeout", 0),
                "total": counters.get("shed_queue_full", 0)
                + counters.get("shed_client_cap", 0)
                + counters.get("shed_timeout", 0),
            },
        }
