"""`QueryService` — many concurrent clients over one HOPI index.

The read path is lock-free: a request pins the current
:class:`~repro.service.epoch.EpochState` with one atomic reference read
and answers entirely from it. Three layers keep repeated work off the
index:

1. a **plan cache** (query text → parsed-and-lowered
   :class:`~repro.query.planner.PreparedQuery`; epoch-independent —
   the physical join order is re-derived per epoch, since cardinality
   estimates move with the tag index);
2. a **result cache** keyed by ``(canonical plan key, epoch)`` with
   single-flight coalescing — concurrent identical cold queries
   evaluate once, and every spelling of a query (whitespace, clause
   order) shares one entry;
3. a per-epoch **probe cache** — identical descendant-step probes
   (``source × candidate-list``) across *different* queries coalesce
   and are answered once per epoch.

The write path (:meth:`QueryService.update`, :meth:`QueryService.apply`,
:meth:`QueryService.reload_cover`) is a **group-commit loop over
copy-on-write shadows**: concurrent ``/update`` batches queue on a
pending list, one drainer forks the published index with
:meth:`~repro.core.hopi.HopiIndex.cow_copy` (sharing unchanged label
rows and documents instead of deep-copying them), applies every queued
batch to that shadow, and publishes **once**. Each batch stays
all-or-nothing — it runs against its own sub-fork, so a failing batch
rolls back alone while its neighbours commit. Readers never wait and
never observe a half-updated index.

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
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.hopi import HopiIndex

# the op vocabulary lives in the core layer so the WAL can replay it;
# UpdateError is re-exported because the HTTP API and callers import it
# from the service package
from repro.core.ops import UpdateError, apply_update_op
from repro.query.engine import QueryEngine, QueryResult, StepKey
from repro.query.ontology import TagOntology
from repro.query.pathexpr import PathExpression
from repro.query.planner import PreparedQuery
from repro.service.cache import LRUCache
from repro.service.coalesce import CoalescingCache
from repro.service.epoch import EpochHolder, EpochState
from repro.storage.snapshot import load_snapshot
from repro.xmlmodel.model import ElementId

_MISSING = object()


@dataclass
class _PendingBatch:
    """One queued ``/update`` batch awaiting the group-commit drainer.

    The submitting thread blocks on ``done``; the drainer fills either
    ``reports`` (batch committed in the published epoch) or ``error``
    (batch rolled back — its sub-fork was discarded) before setting it.
    """

    ops: List[Dict[str, Any]]
    done: threading.Event = field(default_factory=threading.Event)
    reports: Optional[List[Dict[str, Any]]] = None
    error: Optional[BaseException] = None
    epoch: int = -1


class _EpochProbe:
    """The coalescing descendant-probe of one epoch.

    Callable with the plain :data:`~repro.query.engine.Probe` shape
    (one forward probe per source, single-flight coalesced), plus the
    two optional batch hooks the executor feature-detects:

    * :meth:`many` answers a whole frontier block — cached sources
      straight from the LRU, the misses computed in **one**
      ``index.intersect_many`` round-trip and written back, so a block
      costs one candidate translation instead of one per source.
    * :meth:`backward` caches ``ancestors``-side materialisations under
      ``("bwd", target, step_key)`` in the same per-epoch cache.
      Backward probes used to bypass the probe cache entirely (every
      backward-planned query re-materialised the same ancestor
      intersections); now a second backward-heavy query over the same
      epoch hits.

    Keyed by ``(source, step_key)`` / ``("bwd", target, step_key)`` —
    sound because within an epoch the engine's memoized candidate list
    for a step key is fixed, so identical keys mean identical probes.
    """

    __slots__ = ("_state",)

    def __init__(self, state: EpochState) -> None:
        self._state = state

    def __call__(
        self, source: ElementId, step_key: StepKey,
        cand_elems: Sequence[ElementId],
    ) -> List[int]:
        state = self._state

        def compute() -> List[int]:
            flags = state.index.connected_many(source, cand_elems)
            return [i for i, ok in enumerate(flags) if ok]

        reach, _ = state.probes.get_or_compute((source, step_key), compute)
        return reach

    def many(
        self, sources: Sequence[ElementId], step_key: StepKey,
        cand_elems: Sequence[ElementId],
    ) -> Dict[ElementId, List[int]]:
        state = self._state
        answers: Dict[ElementId, List[int]] = {}
        missing: List[ElementId] = []
        for source in sources:
            cached = state.probes.cache.get((source, step_key), _MISSING)
            if cached is _MISSING:
                missing.append(source)
            else:
                answers[source] = cached
        if missing:
            rows = state.index.intersect_many(missing, cand_elems)
            for source, row in zip(missing, rows):
                state.probes.cache.put((source, step_key), row)
                answers[source] = row
        return answers

    def backward(
        self, target: ElementId, step_key: StepKey,
        compute: Callable[[], List[ElementId]],
    ) -> List[ElementId]:
        value, _ = self._state.probes.get_or_compute(
            ("bwd", target, step_key), compute
        )
        return value


@dataclass(frozen=True)
class QueryResponse:
    """One answered query, tagged with the epoch that answered it.

    Attributes:
        epoch: the index generation the whole answer came from.
        path: the canonical (normalised) path expression — the plan key.
        results: ranked matches, windowed by the request's
            ``offset``/``limit`` (shared cached list slice — do not
            mutate).
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
    it afterwards (mutations go through :meth:`update` / :meth:`apply`,
    which operate on shadows and hot-swap).

    Args:
        index: the index to publish as epoch 0's generation.
        ontology: tag ontology for ``~tag`` steps.
        similarity_threshold: forwarded to the query engine.
        max_results: ranked-result truncation per query.
        result_cache_size: entries in the ``(path, epoch)`` result LRU.
        probe_cache_size: per-epoch descendant-probe LRU entries.
        plan_cache_size: parsed-path LRU entries.
        durable_store: optional
            :class:`~repro.storage.wal.DurableIndexStore` — when set,
            every committed ``/update`` batch is WAL-logged before its
            epoch publishes, and the snapshot is checkpointed on the
            store's interval (or immediately after non-loggable writes
            via :meth:`apply` / :meth:`reload_cover`).
    """

    def __init__(
        self,
        index: HopiIndex,
        *,
        ontology: Optional[TagOntology] = None,
        similarity_threshold: float = 0.3,
        max_results: int = 1000,
        result_cache_size: int = 4096,
        probe_cache_size: int = 8192,
        plan_cache_size: int = 1024,
        durable_store: Optional[Any] = None,
    ) -> None:
        self._ontology = ontology
        self._similarity_threshold = similarity_threshold
        self._max_results = max_results
        self._probe_cache_size = probe_cache_size
        self._plans = LRUCache(plan_cache_size)
        self._results = CoalescingCache(result_cache_size)
        self._holder = EpochHolder(self._make_state(index.epoch, index))
        self._write_lock = threading.Lock()
        self._counter_lock = threading.Lock()
        self._counters: Dict[str, int] = {}
        self._pending: List[_PendingBatch] = []
        self._pending_lock = threading.Lock()
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
    def _make_state(self, epoch: int, index: HopiIndex) -> EpochState:
        """Prepare (but do not publish) the generation ``epoch`` of
        ``index``; raising here leaves the published state untouched."""
        engine = QueryEngine(
            index,
            ontology=self._ontology,
            similarity_threshold=self._similarity_threshold,
            max_results=self._max_results,
        )
        return EpochState(
            epoch=epoch,
            index=index,
            engine=engine,
            probes=CoalescingCache(self._probe_cache_size),
        )

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
        """Parse + lower once per distinct query text (plan cache)."""
        if isinstance(path, PathExpression):
            return PreparedQuery(path)
        return self._plans.get_or_create(path, lambda: PreparedQuery(path))

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
            lambda: state.engine.evaluate(
                prepared, index=state.index, probe=_EpochProbe(state)
            ),
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
            lambda: state.engine.count(
                prepared, index=state.index, probe=_EpochProbe(state)
            ),
        )
        self._count("count")
        return state.epoch, n

    def explain(
        self, path: Union[str, PathExpression], *, mode: str = "evaluate"
    ) -> Tuple[int, Dict[str, Any]]:
        """``(epoch, plan description)`` for the ``/v1/explain``
        endpoint: the physical plan the current epoch's engine would
        run, as a JSON-safe dict plus its human-readable rendering.

        ``mode`` selects which execution profile the payload carries
        (``"evaluate"``, ``"stream"``, ``"count"``, ``"exists"``);
        ``count`` describes the directional plan the counting path
        actually runs.
        """
        state = self._holder.current
        prepared = self._prepare(path)
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
    # write path: group-commit over copy-on-write shadows
    # ------------------------------------------------------------------
    def _publish(self, state: EpochState) -> None:
        """Flip the published reference to a prepared generation."""
        self._holder.publish(state)
        self._published_at = time.time()

    def apply(self, mutator: Callable[[HopiIndex], Any]) -> Tuple[int, Any]:
        """Run an arbitrary maintenance function against a shadow and
        hot-swap it in.

        ``mutator`` receives a copy-on-write fork of the published index
        (unchanged label rows and documents stay shared until first
        write) and may call any of its Section-6 maintenance methods
        (each bumps the shadow's epoch); if it mutates without bumping,
        the epoch is advanced for it. Readers are never blocked; the
        swap is atomic.

        An arbitrary mutator is not expressible as wire-format ops, so
        with a durable store attached this path forces a checkpoint
        (which writes only the rows the mutator changed) instead of a
        WAL append.

        Returns:
            ``(new epoch, mutator's return value)``.
        """
        with self._write_lock:
            current = self._holder.current
            shadow = current.index.cow_copy()
            result = mutator(shadow)
            if shadow.epoch <= current.epoch:
                shadow.epoch = current.epoch + 1
            self._publish(self._make_state(shadow.epoch, shadow))
            self._count("update")
            if self._durable is not None:
                self._durable.fire("published")
                self._durable.checkpoint(shadow)
            epoch = shadow.epoch
        # batches that queued while we held the lock would otherwise
        # strand until the next writer arrives
        self._drain()
        return epoch, result

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
        * ``{"op": "rebuild", ...build kwargs...}``

        Concurrent callers group-commit: their batches queue, one
        drainer applies all of them to a single copy-on-write shadow
        and publishes once. Each batch remains all-or-nothing — a
        failure raises :class:`UpdateError` *for that batch only* and
        discards its sub-fork; sibling batches still commit.

        Returns:
            ``{"epoch": new epoch, "applied": n, "reports": [...]}``.
        """
        ops = list(ops)
        if not ops:
            return {"epoch": self.epoch, "applied": 0, "reports": []}
        batch = _PendingBatch(ops=ops)
        with self._pending_lock:
            self._pending.append(batch)
        self._drain()
        batch.done.wait()
        if batch.error is not None:
            raise batch.error
        return {
            "epoch": batch.epoch,
            "applied": len(batch.reports),
            "reports": batch.reports,
        }

    def _drain(self) -> None:
        """Commit queued batches until the pending list is empty.

        The writer lock is taken non-blocking: if another thread holds
        it, it is mid-:meth:`_commit` and will re-enter this loop after
        releasing, so our batch cannot strand — every path that
        releases the lock re-checks the queue afterwards.
        """
        while True:
            with self._pending_lock:
                if not self._pending:
                    return
            if not self._write_lock.acquire(blocking=False):
                return
            try:
                self._commit()
            finally:
                self._write_lock.release()

    def _commit(self) -> None:
        """Apply every queued batch to one COW shadow and publish once.

        Called with the writer lock held. Each batch runs against its
        own sub-fork of the accumulated shadow: success folds the fork
        in, failure discards it — per-batch rollback without touching
        neighbours. The new generation is prepared first, then (with a
        durable store) its ops are WAL-logged (fsync), then it is
        published: a generation that fails to prepare is never logged,
        and an acknowledged epoch survives a crash.
        """
        with self._pending_lock:
            batches, self._pending = self._pending, []
        if not batches:
            return
        current = self._holder.current
        shadow = current.index.cow_copy()
        committed: List[_PendingBatch] = []
        logged_ops: List[Dict[str, Any]] = []
        for batch in batches:
            trial = shadow.cow_copy()
            try:
                reports = [apply_update_op(trial, op) for op in batch.ops]
            except UpdateError as exc:
                batch.error = exc
            except (KeyError, ValueError, TypeError, AttributeError) as exc:
                # malformed op shapes (wrong types, missing fields,
                # children that are not objects, ...) fail this batch
                # as a 400 — its sub-fork is discarded
                batch.error = UpdateError(f"update failed: {exc}")
                batch.error.__cause__ = exc
            else:
                shadow = trial
                batch.reports = reports
                logged_ops.extend(batch.ops)
                committed.append(batch)
        try:
            if committed:
                if shadow.epoch <= current.epoch:
                    shadow.epoch = current.epoch + 1
                state = self._make_state(shadow.epoch, shadow)
                if self._durable is not None:
                    self._durable.log(shadow.epoch, logged_ops)
                self._publish(state)
                for batch in committed:
                    batch.epoch = shadow.epoch
                    self._count("update")
                if self._durable is not None:
                    self._durable.fire("published")
                    if self._durable.checkpoint_due():
                        self._durable.checkpoint(shadow)
        except BaseException as exc:
            # preparing the generation failed, or a crash hook / store
            # failure fired mid-commit; the batches
            # were not (durably) published — surface the fault
            # to every caller still waiting instead of hanging them
            delivered = False
            for batch in batches:
                if batch.error is None and batch.epoch < 0:
                    batch.error = exc
                    delivered = True
            if not delivered:
                # the epoch already published (e.g. the crash hook fired
                # at the checkpoint boundary) — no waiter can carry the
                # fault, so it surfaces from the drainer itself
                raise
        finally:
            for batch in batches:
                batch.done.set()

    def reload_cover(self, snapshot) -> int:
        """Hot-swap the cover from a CSR snapshot, keeping the
        collection.

        The zero-downtime reload path for offline rebuilds (Section 6:
        "occasional rebuilds of the index may be considered"): a fresh
        cover built elsewhere is loaded into a shadow generation and
        published atomically while readers keep answering on the old
        one. The snapshot must cover the current collection's elements.
        A wholesale cover swap is not expressible as wire-format ops, so
        with a durable store attached this forces a checkpoint; no label
        row is shared with the previous cover, so it rewrites them all.

        Args:
            snapshot: a snapshot file path, or a
                :class:`~repro.storage.snapshot.SnapshotCoverStore`
                (re-read via its ``reload()``, so a polling maintenance
                thread can share one store).

        Returns:
            The new epoch.
        """
        from repro.storage.snapshot import SnapshotCoverStore

        with self._write_lock:
            current = self._holder.current
            if isinstance(snapshot, SnapshotCoverStore):
                cover = snapshot.reload().copy()
            else:
                cover = load_snapshot(snapshot)
            missing = [
                e for e in current.index.collection.elements
                if e not in cover.nodes
            ]
            if missing:
                raise UpdateError(
                    f"snapshot does not cover the collection: "
                    f"{len(missing)} elements missing (e.g. {missing[:3]})"
                )
            fresh = HopiIndex(
                current.index.collection, cover, stats=current.index.stats
            )
            fresh.epoch = current.epoch + 1
            self._publish(self._make_state(fresh.epoch, fresh))
            self._count("reload")
            if self._durable is not None:
                # a wholesale cover swap is not expressible as wire ops
                self._durable.fire("published")
                self._durable.checkpoint(fresh)
            epoch = fresh.epoch
        self._drain()
        return epoch

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
            if not lags:
                return None
            index = min(
                len(lags) - 1,
                max(0, int(round(fraction * (len(lags) - 1)))),
            )
            return lags[index] * 1e3
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

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

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
            "probe_cache": state.probes.stats(),
        }
