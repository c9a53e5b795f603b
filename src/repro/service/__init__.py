"""The query-serving tier: concurrent reads, caching, zero-downtime swap.

HOPI exists to answer connection queries fast enough to sit inside an
interactive XML search engine, and the paper pairs the index with
incremental maintenance so it stays online while the collection
changes. This package is the missing serving layer on top of the core
index:

* :class:`repro.service.service.QueryService` — one published
  :class:`~repro.core.hopi.HopiIndex` serving many reader threads, with
  a parsed-plan cache, an LRU result cache keyed by ``(path, epoch)``,
  and in-flight coalescing of identical descendant probes;
* :mod:`repro.service.epoch` — the RCU-style epoch protocol: writers
  mutate a deep-copied *shadow* index while readers keep answering on
  the published epoch; an atomic reference swap publishes the shadow
  with zero reader downtime and no torn answers;
* :mod:`repro.service.api` — the transport-neutral ``/v1`` endpoint
  core (routing, handlers, error mapping; the endpoint table lives in
  its docstring), callable without a socket;
* :mod:`repro.service.asyncio_http` — the HTTP front end, wired into
  the CLI as ``repro serve``: one event loop, a bounded worker pool and
  admission control (structured 429/503 shedding, per-endpoint
  deadlines);
* :mod:`repro.service.telemetry` — counters, per-endpoint latency
  histograms and live gauges behind ``/v1/metrics``.

The ``read-cold``, ``read-hot`` and ``write-mixed`` workloads of
``perf/`` (see ``BENCHMARK.json``) measure this tier over real HTTP.
"""

from repro.service.api import ServiceAPI, error_payload
from repro.service.asyncio_http import (
    AsyncServerHandle,
    AsyncServiceServer,
    start_in_thread,
)
from repro.service.cache import LRUCache
from repro.service.coalesce import CoalescingCache
from repro.service.epoch import EpochHolder, EpochState
from repro.service.telemetry import Telemetry
from repro.service.service import QueryResponse, QueryService, UpdateError

__all__ = [
    "AsyncServerHandle",
    "AsyncServiceServer",
    "LRUCache",
    "CoalescingCache",
    "EpochHolder",
    "EpochState",
    "ServiceAPI",
    "Telemetry",
    "error_payload",
    "start_in_thread",
    "QueryService",
    "QueryResponse",
    "UpdateError",
]
