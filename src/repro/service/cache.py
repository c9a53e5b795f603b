"""A small thread-safe LRU cache with single-flight computation.

The serving tier's one cache class. It holds the parsed query plans
(path string → :class:`~repro.query.planner.PreparedQuery`), the ranked
results keyed by ``(kind, plan key, epoch)`` and (in
:class:`~repro.service.api.ServiceAPI`) the pre-rendered JSON rows of
cached results. Descendant-probe answers are not kept here: each
epoch's :class:`~repro.query.engine.QueryEngine` holds them.

When many clients ask for the same cold key at the same moment,
computing it once and handing the answer to every waiter beats
computing it N times — under the GIL the duplicates would not even
overlap, they would serialise. :meth:`LRUCache.get_or_compute` is that
"singleflight": the first caller computes, later callers with the same
key wait and receive the same value (or the same exception).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from concurrent.futures import Future
from typing import Any, Callable, Dict, Hashable, Optional, Tuple

_MISSING = object()


class LRUCache:
    """Bounded mapping with least-recently-used eviction.

    All operations take an internal lock, so the cache is safe to share
    between reader threads; ``hits``/``misses``/``evictions`` and
    ``coalesced`` (lookups answered by waiting on another thread's
    computation) are monotone counters for the ``/stats`` endpoint.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()
        # in-flight get_or_compute leaders, keyed like the cache
        self._flight_lock = threading.Lock()
        self._inflight: Dict[Hashable, Future] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.coalesced = 0

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

    def get_or_compute(
        self, key: Hashable, compute: Callable[[], Any]
    ) -> Tuple[Any, str]:
        """The cached value for ``key``, computing it at most once.

        ``compute()`` runs outside the main lock (it may be slow), but
        concurrent callers that miss on the same key elect one leader to
        run it; the rest block and share its result (or its exception,
        which is not cached). Returns ``(value, source)`` with
        ``source`` one of ``"hit"`` (already cached), ``"computed"``
        (this thread ran ``compute``) or ``"coalesced"`` (another thread
        was already running it).
        """
        value = self.get(key, _MISSING)
        if value is not _MISSING:
            return value, "hit"

        with self._flight_lock:
            # re-check: the leader caches before releasing its waiters,
            # so a hit here is final
            value = self.peek(key, _MISSING)
            if value is not _MISSING:
                return value, "hit"
            pending = self._inflight.get(key)
            leader = pending is None
            if leader:
                pending = self._inflight[key] = Future()
            else:
                self.coalesced += 1

        if not leader:
            return pending.result(), "coalesced"

        try:
            value = compute()
        except BaseException as exc:
            pending.set_exception(exc)
            raise
        else:
            self.put(key, value)
            pending.set_result(value)
            return value, "computed"
        finally:
            with self._flight_lock:
                self._inflight.pop(key, None)

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
        """Occupancy, hit/miss/eviction and coalesced / in-flight
        counters for ``/stats``."""
        with self._flight_lock:
            inflight = len(self._inflight)
        return {
            "size": len(self),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
            "coalesced": self.coalesced,
            "inflight": inflight,
        }
