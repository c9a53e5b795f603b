"""A small thread-safe LRU cache with hit/miss accounting.

Used three times by the serving tier: for parsed query plans (path
string → :class:`~repro.query.pathexpr.PathExpression`), composed with
the in-flight coalescer for ranked results keyed by ``(path, epoch)``,
and by :class:`~repro.service.api.ServiceAPI` for the pre-rendered JSON
rows of those results.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, Hashable, Optional, Tuple

_MISSING = object()


class _InFlight:
    """One in-flight ``get_or_create`` factory: event plus outcome."""

    __slots__ = ("event", "value", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.value: Any = _MISSING
        self.error: Optional[BaseException] = None


class LRUCache:
    """Bounded mapping with least-recently-used eviction.

    All operations take an internal lock, so the cache is safe to share
    between reader threads; ``hits``/``misses``/``evictions`` are
    monotone counters for the ``/stats`` endpoint.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()
        # in-flight get_or_create factories, keyed like the cache
        self._flight_lock = threading.Lock()
        self._inflight: Dict[Hashable, "_InFlight"] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: Hashable, default: Any = None) -> Any:
        """The cached value (refreshing its recency), or ``default``."""
        return self._get(key, default, count_miss=True)

    def lookup(self, key: Hashable, default: Any = None) -> Any:
        """Like :meth:`get`, but a miss leaves no trace: only a hit is
        counted — for callers that fall back to :meth:`get` on a miss."""
        return self._get(key, default, count_miss=False)

    def _get(self, key: Hashable, default: Any, count_miss: bool) -> Any:
        with self._lock:
            value = self._data.get(key, _MISSING)
            if value is _MISSING:
                if count_miss:
                    self.misses += 1
                return default
            self._data.move_to_end(key)
            self.hits += 1
            return value

    def peek(self, key: Hashable, default: Any = None) -> Any:
        """Like :meth:`get` but without touching recency or counters."""
        with self._lock:
            value = self._data.get(key, _MISSING)
            return default if value is _MISSING else value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert/refresh ``key``, evicting LRU entries over capacity."""
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
            self._data[key] = value
            while len(self._data) > self.capacity:
                self._data.popitem(last=False)
                self.evictions += 1

    def get_or_create(self, key: Hashable, factory: Callable[[], Any]) -> Any:
        """Cached value, or ``factory()`` computed once and returned.

        The factory runs outside the main lock (it may be slow), but
        concurrent callers that miss on the same key elect a single
        leader: only the leader runs ``factory()``, the rest block on
        its completion and share the value (or its exception) — the
        same single-flight semantics as
        :meth:`repro.service.coalesce.CoalescingCache.get_or_compute`,
        without the source/counter bookkeeping. Two threads can
        therefore never race their ``put``\\ s for one key.
        """
        value = self.get(key, _MISSING)
        if value is not _MISSING:
            return value

        with self._flight_lock:
            # re-check: the leader caches before releasing its waiters,
            # so a hit here is final
            value = self.peek(key, _MISSING)
            if value is not _MISSING:
                return value
            pending = self._inflight.get(key)
            if pending is None:
                pending = _InFlight()
                self._inflight[key] = pending
                leader = True
            else:
                leader = False

        if not leader:
            pending.event.wait()
            if pending.error is not None:
                raise pending.error
            return pending.value

        try:
            value = factory()
        except BaseException as exc:
            pending.error = exc
            raise
        else:
            pending.value = value
            self.put(key, value)
            return value
        finally:
            with self._flight_lock:
                self._inflight.pop(key, None)
            pending.event.set()

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._data

    @property
    def hit_rate(self) -> Optional[float]:
        """Hits / lookups, or None before the first lookup."""
        total = self.hits + self.misses
        return self.hits / total if total else None

    def stats(self) -> Dict[str, object]:
        """Occupancy and hit/miss/eviction counters for ``/stats``."""
        return {
            "size": len(self),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }
