"""`QueryService` — many concurrent clients over one HOPI index.

The read path is lock-free: a request pins the current
:class:`~repro.service.epoch.EpochState` with one atomic reference read
and answers entirely from it. Three layers keep repeated work off the
index:

1. a **plan cache** (query text → parsed
   :class:`~repro.query.planner.PreparedQuery`; epoch-independent —
   the physical join order is re-derived per epoch, since cardinality
   estimates move with the tag index);
2. a **result cache** keyed by ``(canonical plan key, epoch)`` with
   single-flight coalescing — concurrent identical cold queries
   evaluate once, and every spelling of a query (whitespace, clause
   order) shares one entry;
3. the epoch's **probe memos** — each epoch's
   :class:`~repro.query.engine.QueryEngine` keeps every descendant-step
   probe answer (``source × candidate-list`` forward,
   ``ancestors``-side backward) it computes, so *different* queries of
   one epoch share them; a new epoch's engine starts with none.

The first two are one class, :class:`~repro.service.cache.LRUCache`,
and ``/v1/stats`` reports the third in the same key set.

:meth:`QueryService.cached_query` / :meth:`QueryService.cached_count`
are the non-blocking face of the first two: they only peek, so the
HTTP front end answers a result-cache hit on its event loop and sends
everything else to :meth:`QueryService.query` / :meth:`QueryService.count`
on a worker.

The one write path, :meth:`QueryService.update`, takes **one writer at
a time** under a blocking lock: it applies the batch to a
:meth:`~repro.core.hopi.HopiIndex.cow_copy` fork of the published index
(sharing unchanged label rows, documents and tag lists instead of
deep-copying them) and publishes the fork as the batch's own epoch. A
batch is all-or-nothing: a failing batch's fork is dropped. Readers
never wait and never observe a half-updated index.

Every write publishes in three steps: **prepare** the new generation
(:meth:`QueryService._make_state`), **log** it — with a
:class:`~repro.storage.wal.DurableIndexStore` attached, the applied
wire-format ops are appended to the update WAL (fsync) — then **flip**
the published reference. A generation that cannot be prepared is never
logged, and a logged one is published, so a crashed server recovers
exactly its latest acknowledged epoch on restart. The snapshot is
checkpointed on an interval after the flip.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.hopi import HopiIndex

# the op vocabulary lives in the core layer so the WAL can replay it;
# UpdateError is re-exported because the HTTP API and callers import it
# from the service package
from repro.core.ops import UpdateError, apply_update_op
from repro.query.engine import QueryEngine, QueryResult
from repro.query.ontology import TagOntology, default_ontology
from repro.query.pathexpr import PathExpression
from repro.query.planner import PreparedQuery
from repro.service.cache import LRUCache
from repro.service.epoch import EpochHolder, EpochState
from repro.service.telemetry import percentile
from repro.xmlmodel.model import ElementId

_MISSING = object()


@dataclass(frozen=True)
class QueryResponse:
    """One answered query, tagged with the epoch that answered it.

    Attributes:
        epoch: the index generation the whole answer came from.
        path: the canonical (normalised) path expression — the plan key.
        results: ranked matches, windowed by the request's
            ``offset``/``limit`` (shared cached list slice — do not
            mutate); from :meth:`QueryService.cached_query`, the whole
            cached list itself.
        source: ``"hit"`` / ``"computed"`` / ``"coalesced"`` — how the
            result cache served this request.
        seconds: service-side latency of this request.
        collection: the *same epoch's* collection — render result
            elements from this, never from ``service.index`` (which may
            have hot-swapped since the query pinned its epoch).
        total: size of the full ranked result list before the request
            window was applied (pagination: ``offset + len(results) <
            total`` means more pages exist).
        offset: the request offset that produced ``results``.
        truncated: True when the ranked list hit the engine's
            ``max_results`` cap, so ``total`` is a lower bound — use
            :meth:`QueryService.count` for the exact match count.
    """

    epoch: int
    path: str
    results: List[QueryResult]
    source: str
    seconds: float
    collection: Any = None
    total: int = 0
    offset: int = 0
    truncated: bool = False

    @property
    def cached(self) -> bool:
        """True when the answer came from a cache (hit or coalesced)."""
        return self.source != "computed"


class QueryService:
    """A thread-safe serving tier over one :class:`HopiIndex`.

    The service takes ownership of ``index``: callers must not mutate
    it afterwards (mutations go through :meth:`update`, which operates
    on forks and hot-swaps). :meth:`query` and :meth:`count` may block
    (evaluate, or wait on a coalesced evaluation);
    :meth:`cached_query` and :meth:`cached_count` never do.

    Args:
        index: the index to publish as epoch 0's generation.
        ontology: tag ontology for ``~tag`` steps.
        similarity_threshold: forwarded to the query engine.
        max_results: ranked-result truncation per query.
        result_cache_size: entries in the ``(path, epoch)`` result LRU.
        plan_cache_size: parsed-path LRU entries.
        durable_store: optional
            :class:`~repro.storage.wal.DurableIndexStore` — when set,
            every committed ``/update`` batch is WAL-logged before its
            epoch publishes, and the snapshot is checkpointed on the
            store's interval.
    """

    def __init__(
        self,
        index: HopiIndex,
        *,
        ontology: Optional[TagOntology] = None,
        similarity_threshold: float = 0.3,
        max_results: int = 1000,
        result_cache_size: int = 4096,
        plan_cache_size: int = 1024,
        durable_store: Optional[Any] = None,
    ) -> None:
        # one ontology object for every epoch's engine, so each can
        # adopt the previous one's ~tag memos
        self._ontology = ontology or default_ontology()
        self._similarity_threshold = similarity_threshold
        self._max_results = max_results
        self._plans = LRUCache(plan_cache_size)
        self._results = LRUCache(result_cache_size)
        self._holder = EpochHolder(self._make_state(index.epoch, index))
        self._write_lock = threading.Lock()
        self._counter_lock = threading.Lock()
        self._counters: Dict[str, int] = {}
        self._durable = durable_store
        self._started = time.time()
        self._published_at = self._started
        # ingestion bookkeeping (fed by repro.ingest.IngestPipeline via
        # record_ingest; surfaced as the /v1/metrics freshness gauge)
        self._ingest_lock = threading.Lock()
        self._ingest_docs = 0
        self._ingest_batches = 0
        self._ingest_last_at: Optional[float] = None
        self._ingest_lags: "deque[float]" = deque(maxlen=512)

    # ------------------------------------------------------------------
    # epoch plumbing
    # ------------------------------------------------------------------
    def _make_state(
        self, epoch: int, index: HopiIndex,
        previous: Optional[EpochState] = None,
    ) -> EpochState:
        """Prepare (but do not publish) the generation ``epoch`` of
        ``index``; raising here leaves the published state untouched.

        With ``previous`` (the generation ``index`` was forked from),
        the new engine adopts its step memos wherever the tag lists
        are unchanged, with the center maps the last engine used, so
        the first reads of the new epoch do not recompute them; its
        probe memos start empty."""
        engine = QueryEngine(
            index,
            ontology=self._ontology,
            similarity_threshold=self._similarity_threshold,
            max_results=self._max_results,
            previous=None if previous is None else previous.engine,
        )
        return EpochState(epoch=epoch, index=index, engine=engine)

    def _count(self, name: str) -> None:
        with self._counter_lock:
            self._counters[name] = self._counters.get(name, 0) + 1

    @property
    def epoch(self) -> int:
        """The currently published epoch."""
        return self._holder.current.epoch

    @property
    def max_results(self) -> int:
        """The ranked-result truncation applied per query."""
        return self._max_results

    @property
    def index(self) -> HopiIndex:
        """The currently published index (treat as read-only)."""
        return self._holder.current.index

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------
    def _prepare(self, path: Union[str, PathExpression]) -> PreparedQuery:
        """Parse once per distinct query text (plan cache)."""
        if isinstance(path, PathExpression):
            return PreparedQuery(path)
        return self._plans.get_or_compute(path, lambda: PreparedQuery(path))[0]

    def query(
        self,
        path: Union[str, PathExpression],
        *,
        limit: Optional[int] = None,
        offset: int = 0,
    ) -> QueryResponse:
        """Evaluate ``path`` against the current epoch, cached.

        ``offset``/``limit`` window the returned (already ranked)
        results; the cache always holds the full ``max_results`` list
        so requests with different windows share one entry, and
        ``QueryResponse.total`` reports the pre-window size for
        pagination.
        """
        if limit is not None and limit < 0:
            raise ValueError(f"limit must be non-negative, got {limit}")
        if offset < 0:
            raise ValueError(f"offset must be non-negative, got {offset}")
        t0 = time.perf_counter()
        state = self._holder.current  # pin one epoch for the request
        prepared = self._prepare(path)
        key = ("query", prepared.key, state.epoch)
        results, source = self._results.get_or_compute(
            key,
            lambda: state.engine.evaluate(prepared),
        )
        total = len(results)
        if offset:
            results = results[offset:]
        if limit is not None:
            results = results[:limit]
        self._count("query")
        return QueryResponse(
            epoch=state.epoch,
            path=prepared.key,
            results=results,
            source=source,
            seconds=time.perf_counter() - t0,
            collection=state.index.collection,
            total=total,
            offset=offset,
            truncated=total >= self._max_results,
        )

    def count(self, path: Union[str, PathExpression]) -> Tuple[int, int]:
        """``(epoch, total match count)`` — unranked, untruncated."""
        state = self._holder.current
        prepared = self._prepare(path)
        key = ("count", prepared.key, state.epoch)
        n, _ = self._results.get_or_compute(
            key,
            lambda: state.engine.count(prepared),
        )
        self._count("count")
        return state.epoch, n

    def cached_query(self, path: str) -> Optional[QueryResponse]:
        """The pinned epoch's cached ranked list for ``path``, or
        ``None``.

        Peeks the plan and result caches and nothing else: it never
        parses, evaluates or waits on an in-flight computation, so the
        HTTP front end may call it on its event loop. A hit counts as
        :meth:`query`'s hit does (one plan hit, one result hit, one
        ``query`` request) and answers the whole list — ``total`` is
        its length, the caller applies the window; a miss counts
        nothing, because the caller falls back to :meth:`query`.
        """
        t0 = time.perf_counter()
        hit = self._peek("query", path)
        if hit is None:
            return None
        state, key, results = hit
        total = len(results)
        return QueryResponse(
            epoch=state.epoch,
            path=key,
            results=results,
            source="hit",
            seconds=time.perf_counter() - t0,
            collection=state.index.collection,
            total=total,
            truncated=total >= self._max_results,
        )

    def cached_count(self, path: str) -> Optional[Tuple[int, int]]:
        """:meth:`count`'s ``(epoch, n)`` if the result cache already
        holds it, else ``None`` — the :meth:`cached_query` contract."""
        hit = self._peek("count", path)
        return None if hit is None else (hit[0].epoch, hit[2])

    def _peek(
        self, kind: str, path: str
    ) -> Optional[Tuple[EpochState, str, Any]]:
        """``(pinned state, plan key, cached value)`` of a result-cache
        hit, counted as the pool path counts one; ``None`` (uncounted)
        otherwise."""
        state = self._holder.current
        prepared = self._plans.peek(path)
        if prepared is None:
            return None
        value = self._results.lookup(
            (kind, prepared.key, state.epoch), _MISSING
        )
        if value is _MISSING:
            return None
        self._plans.lookup(path)
        self._count(kind)
        return state, prepared.key, value

    def explain(
        self, path: Union[str, PathExpression], *, mode: str = "evaluate"
    ) -> Tuple[int, Dict[str, Any]]:
        """``(epoch, plan description)`` for the ``/v1/explain``
        endpoint: the physical plan the current epoch's engine would
        run, as a JSON-safe dict plus its human-readable rendering.

        ``mode`` is the endpoint whose plan the payload describes:
        ``"evaluate"`` or ``"count"`` (the directional plan the counting
        path runs); any other value raises ``ValueError`` (a 400).
        """
        state = self._holder.current
        prepared = self._prepare(path)
        # the window term's sample lands in the epoch engine's probe
        # memo, where the query that follows finds it
        plan = prepared.bind(state.engine, directional=(mode == "count"))
        payload = plan.describe(mode)
        payload["text"] = plan.explain(mode)
        self._count("explain")
        return state.epoch, payload

    def connected(self, u: ElementId, v: ElementId) -> Tuple[int, bool]:
        """``(epoch, u ->* v)``."""
        state = self._holder.current
        self._count("connected")
        return state.epoch, state.index.connected(u, v)

    def distance(self, u: ElementId, v: ElementId) -> Tuple[int, Optional[int]]:
        """``(epoch, shortest link distance or None)``."""
        state = self._holder.current
        self._count("distance")
        return state.epoch, state.index.distance(u, v)

    # ------------------------------------------------------------------
    # write path: one writer at a time over copy-on-write forks
    # ------------------------------------------------------------------
    def _publish(self, state: EpochState) -> None:
        """Flip the published reference to a prepared generation."""
        self._holder.publish(state)
        self._published_at = time.time()

    def update(self, ops: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
        """Apply a batch of maintenance operations, all-or-nothing.

        Each op is a dict with an ``"op"`` discriminator (the ``/update``
        endpoint's wire format):

        * ``{"op": "insert_element", "parent": id, "tag": t}``
        * ``{"op": "insert_edge", "source": u, "target": v}``
        * ``{"op": "delete_edge", "source": u, "target": v}``
        * ``{"op": "delete_document", "doc_id": d}``
        * ``{"op": "insert_document", "doc_id": d, "root_tag": t,
          "children": [{"ref": r, "parent": ref-or-id, "tag": t}, ...],
          "links": [[ref-or-id, ref-or-id], ...]}``
        * ``{"op": "rebuild"}`` (no other keys: the product build)

        Everything runs under the write lock, one batch at a time: fork
        the published index, apply the ops, prepare the new generation,
        log it (with a durable store), publish it, and checkpoint when
        one is due. A failing op raises :class:`UpdateError` and drops
        the fork, so nothing of the batch is published or logged; a
        batch that does publish gets its own epoch.

        Returns:
            ``{"epoch": new epoch, "applied": n, "reports": [...]}``.
        """
        ops = list(ops)
        if not ops:
            return {"epoch": self.epoch, "applied": 0, "reports": []}
        with self._write_lock:
            current = self._holder.current
            # the published index is never mutated, so it can be forked
            shadow = current.index.cow_copy()
            try:
                reports = [apply_update_op(shadow, op) for op in ops]
            except UpdateError:
                raise
            except (KeyError, ValueError, TypeError, AttributeError) as exc:
                # malformed op shapes (wrong types, missing fields,
                # children that are not objects, ...) are a 400
                raise UpdateError(f"update failed: {exc}") from exc
            if shadow.epoch <= current.epoch:
                shadow.epoch = current.epoch + 1
            state = self._make_state(shadow.epoch, shadow, current)
            if self._durable is not None:
                self._durable.log(shadow.epoch, ops)
            self._publish(state)
            self._count("update")
            if self._durable is not None:
                self._durable.fire("published")
                if self._durable.checkpoint_due():
                    self._durable.checkpoint(shadow)
        return {
            "epoch": shadow.epoch, "applied": len(reports), "reports": reports,
        }

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def healthz(self) -> Dict[str, Any]:
        """Liveness/readiness payload for ``/v1/healthz``.

        A single-process service that can read its published epoch is
        both live and ready; ``epoch_age_seconds`` (time since the last
        hot-swap, or since startup) lets a load balancer spot a replica
        whose maintenance feed has stalled.
        """
        state = self._holder.current
        # read before the clock: a publish racing in between would
        # otherwise make the age negative
        published_at = self._published_at
        return {
            "status": "ok",
            "ready": True,
            "epoch": state.epoch,
            "epoch_age_seconds": time.time() - published_at,
            "uptime_seconds": time.time() - self._started,
            "swaps": self._holder.swaps,
        }

    def record_ingest(
        self, docs: int, lag_seconds: Sequence[float]
    ) -> None:
        """Note one acknowledged ingestion batch (pipeline hook).

        ``lag_seconds`` are the batch's per-document freshness lags
        (discovery -> publish); the most recent 512 samples back the
        ``/v1/metrics`` freshness gauge.
        """
        with self._ingest_lock:
            self._ingest_docs += docs
            self._ingest_batches += 1
            self._ingest_last_at = time.time()
            self._ingest_lags.extend(lag_seconds)

    def ingest_stats(self) -> Dict[str, Any]:
        """The ingestion/freshness gauge reported by ``/v1/metrics``."""
        with self._ingest_lock:
            docs = self._ingest_docs
            batches = self._ingest_batches
            last_at = self._ingest_last_at
            lags = sorted(self._ingest_lags)

        def at(fraction: float) -> Optional[float]:
            return percentile(lags, fraction) * 1e3 if lags else None

        return {
            "docs_total": docs,
            "batches_total": batches,
            "last_batch_age_seconds": (
                time.time() - last_at if last_at is not None else None
            ),
            "freshness_p50_ms": at(0.50),
            "freshness_p99_ms": at(0.99),
        }

    def close(self) -> None:
        """Release the durable store's file handles (flush the WAL).

        Graceful shutdown only — crash recovery never needs it (every
        WAL append fsyncs before its epoch publishes).
        """
        if self._durable is not None:
            self._durable.close()

    def stats(self) -> Dict[str, Any]:
        """A point-in-time snapshot for the ``/stats`` endpoint."""
        state = self._holder.current
        with self._counter_lock:
            counters = dict(self._counters)
        return {
            "epoch": state.epoch,
            "uptime_seconds": time.time() - self._started,
            "swaps": self._holder.swaps,
            "distance_aware": state.index.is_distance_aware,
            "documents": state.index.collection.num_documents,
            "elements": state.index.collection.num_elements,
            "links": state.index.collection.num_links,
            "cover_entries": state.index.cover.size,
            "requests": counters,
            "result_cache": self._results.stats(),
            "plan_cache": self._plans.stats(),
            "probe_cache": state.engine.probe_stats(),
        }
