"""Horizontally sharded serving: a scatter-gather router over shards.

The ICDE'05 paper's divide-and-conquer build makes 2-hop covers
practical on large collections; this module carries the same idea into
the *serving* tier. A :class:`ShardRouter` partitions the collection's
documents by a stable hash, runs one :class:`ShardService` (a
:class:`~repro.service.service.QueryService` subclass) per shard —
in-process, or inside ``repro build-worker`` daemons speaking the
extended :mod:`repro.core.rpc` protocol — and fans every ``/v1``
request out to the shards, merging the ranked answer streams with a
k-way heap so results, scores, ``total`` and pagination are
**bit-identical** to single-process serving.

Why the answers merge exactly
-----------------------------

* **Ownership partitions the result space.** A result tuple is *owned*
  by the shard that owns the document of its **first** binding
  (:func:`shard_of` over doc ids). Ownership is a function of the
  tuple alone, so the per-shard result sets are disjoint and their
  union is the global result set.
* **A shard's view is forward-closed.** Shard ``s`` serves the
  subcollection induced by the forward *document-closure* of its owned
  documents (every document reachable from them through inter-document
  links). All later bindings of an owned tuple, and every witness of a
  descendant ``[//tag]`` predicate on it, lie inside that closure — so
  a shard computes its owned tuples **exactly**, with no cross-shard
  probes at query time. Cross-shard links are handled by this closure
  materialisation rather than by a separate global-links shard: the
  join-phase cover entries that cross partitions are simply present in
  every view whose closure spans them.
* **Work scales with ownership, not view size.** Closures overlap, so
  views are large; evaluating a whole view and post-filtering would
  duplicate most of the global work on every shard. Instead the shard
  binds its plan with ``order="naive"`` (seed at step position 0) and
  installs an :class:`~repro.query.exec.ExecContext` ``first_filter``
  that admits only owned first bindings — the pipeline never explores
  tuples another shard owns.
* **Scores are order- and vocabulary-independent.** Scores are
  recomputed per shard in the engine's canonical left-to-right
  association from pairwise tag similarities and restricted-cover
  distances (exact for view pairs), so each tuple scores identically
  everywhere. The router merges the per-shard ``(-score, bindings)``
  streams with ``heapq.merge`` — the same total order the engine sorts
  by — and re-derives ``total``/``truncated`` from the shards' full
  owned counts.

Rolling hot-swap without torn reads
-----------------------------------

Updates are MVCC *generations*. The router is a
:class:`~repro.service.service.QueryService` over the authoritative
full index, so it inherits the group-commit write path unchanged; only
*preparing* generation ``g+1`` differs: fresh views are derived and
installed shard by shard (**rolling**: one shard loading a new view
never blocks the others). Shards keep the last two generations; the
router logs and flips its serving pointer only after every shard holds
``g+1``, and every scattered request carries the generation it must
answer from — a request is therefore answered entirely from one
generation by construction: zero torn reads, readers never block.

Failover: a shard that drops its connection (or times out) raises
:class:`ShardUnavailableError`, which the HTTP layer maps to a
structured **503** with a ``degraded`` flag — never a hang.
"""

from __future__ import annotations

import heapq
import itertools
import pickle
import threading
import time
import zlib
from collections import OrderedDict, deque
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Tuple, Union

from repro.core.hopi import HopiIndex
from repro.core.rpc import (
    OP_SHARD,
    RpcWorkerError,
    _WorkerConnection,
)
from repro.query.engine import QueryResult
from repro.query.exec import ExecContext, run_bindings
from repro.query.pathexpr import PathExpression
from repro.query.planner import PreparedQuery, plan_query
from repro.service.epoch import EpochState
from repro.service.service import QueryService
from repro.storage.snapshot import snapshot_from_bytes, snapshot_to_bytes
from repro.xmlmodel.model import Collection, DocId, ElementId


class ShardUnavailableError(RuntimeError):
    """One or more shards could not answer (dead worker, timeout).

    Maps to a structured HTTP 503 with ``degraded: true`` — the
    router's contract is an explicit error, never a hang.
    """

    def __init__(self, shards: Sequence[int], message: str) -> None:
        super().__init__(message)
        self.shards = sorted(shards)


def shard_of(doc_id: DocId, num_shards: int) -> int:
    """Stable document → shard assignment (CRC-32 of the doc id).

    Deterministic across processes and Python versions (unlike
    ``hash``), so the router and every worker agree on ownership
    without shipping an assignment table.
    """
    return zlib.crc32(str(doc_id).encode("utf-8")) % num_shards


def assign_documents(
    collection: Collection, num_shards: int
) -> List[List[DocId]]:
    """Owned documents per shard, in sorted order (deterministic)."""
    owned: List[List[DocId]] = [[] for _ in range(num_shards)]
    for doc_id in sorted(collection.documents):
        owned[shard_of(doc_id, num_shards)].append(doc_id)
    return owned


def restrict_cover(cover, elements):
    """Restrict ``cover`` to rows of ``elements``.

    The restricted cover keeps every label entry whose *node* is a view
    element; label **centers** outside the view stay as inactive
    interned ids (the cover's active universe and the CSR snapshot's
    explicit ``active`` array preserve that distinction), so
    ``connected``/``distance``/``ancestors`` answer exactly for every
    pair of view elements — 2-hop witnesses need no row of their own.
    """
    elements = set(elements)
    return type(cover).from_entries(
        elements, (row for row in cover.entries() if row[1] in elements)
    )


@dataclass(frozen=True)
class ShardView:
    """One shard's slice of a generation: its view index + ownership."""

    shard: int
    owned_docs: FrozenSet[DocId]
    index: HopiIndex


def derive_shard_views(index: HopiIndex, num_shards: int) -> List[ShardView]:
    """Derive every shard's view of ``index`` (one generation).

    A shard's view is the subcollection induced by the forward
    document-closure of its owned documents plus the cover restricted
    to the view's elements. The view index inherits the full index's
    epoch — that number is the generation tag requests pin.
    """
    collection = index.collection
    graph = collection.document_graph()
    views: List[ShardView] = []
    for shard, owned in enumerate(assign_documents(collection, num_shards)):
        closure = set(owned)
        frontier = list(owned)
        while frontier:
            doc = frontier.pop()
            for successor in graph.successors(doc):
                if successor not in closure:
                    closure.add(successor)
                    frontier.append(successor)
        sub = collection.subcollection(closure)
        cover = restrict_cover(index.cover, set(sub.elements))
        view = HopiIndex(sub, cover)
        view.epoch = index.epoch
        views.append(
            ShardView(shard=shard, owned_docs=frozenset(owned), index=view)
        )
    return views


# ---------------------------------------------------------------------------
# per-shard service
# ---------------------------------------------------------------------------


class ShardService(QueryService):
    """One shard's :class:`QueryService` over its view index.

    Inherits the whole per-epoch machinery (plan/result/probe caches,
    RCU state) and adds the shard-local entry points the router
    scatters to. Shard services are immutable per generation — the
    router installs a fresh one instead of hot-swapping in place.
    """

    def __init__(
        self,
        index: HopiIndex,
        *,
        owned_docs: Sequence[DocId],
        shard_id: int = 0,
        **kwargs: Any,
    ) -> None:
        super().__init__(index, **kwargs)
        self.shard_id = shard_id
        self.owned_docs: FrozenSet[DocId] = frozenset(owned_docs)

    # -- owned evaluation ----------------------------------------------
    def _owned_ranked(self, state, prepared: PreparedQuery) -> List[QueryResult]:
        """All result tuples this shard owns, ranked, untruncated.

        The plan is bound ``order="naive"`` — seeded at step position 0
        — so the ``first_filter`` prunes the pipeline at its *source*
        and per-shard work scales with the owned share of the
        collection, not with the (heavily overlapping) view size.
        """
        engine = state.engine
        plan = plan_query(prepared.logical, engine, order="naive")
        elements = state.index.collection.elements
        owned = self.owned_docs
        ctx = ExecContext(
            engine,
            state.index,
            self._probe_for(state),
            first_filter=lambda e: elements[e].doc in owned,
        )
        expr = prepared.logical.expr
        results = [
            QueryResult(binding, engine._score_binding(state.index, expr, binding))
            for binding in run_bindings(plan, ctx)
        ]
        results.sort(key=lambda r: (-r.score, r.bindings))
        return results

    def shard_query(
        self, path: Union[str, PathExpression], *, prefix: Optional[int] = None
    ) -> Dict[str, Any]:
        """The scatter target: this shard's owned slice of one query.

        Returns ``matches`` (the full owned count — the router sums
        these into the global ``total``) and the first ``prefix`` owned
        ``(score, bindings)`` pairs in merge order. The full owned list
        is cached per ``(plan key, epoch)`` so windows share one entry.
        """
        state = self._holder.current
        prepared = self._prepare(path)
        key = ("shardq", prepared.key, state.epoch)
        results, source = self._results.get_or_compute(
            key, lambda: self._owned_ranked(state, prepared)
        )
        if prefix is not None:
            shipped = results[:prefix]
        else:
            shipped = results
        self._count("query")
        return {
            "epoch": state.epoch,
            "matches": len(results),
            "items": [(r.score, r.bindings) for r in shipped],
            "source": source,
        }

    def shard_count(self, path: Union[str, PathExpression]) -> Dict[str, Any]:
        """Owned match count (sums across shards to the global count)."""
        state = self._holder.current
        prepared = self._prepare(path)
        key = ("shardc", prepared.key, state.epoch)

        def compute() -> int:
            engine = state.engine
            plan = plan_query(prepared.logical, engine, order="naive")
            elements = state.index.collection.elements
            owned = self.owned_docs
            ctx = ExecContext(
                engine,
                state.index,
                self._probe_for(state),
                first_filter=lambda e: elements[e].doc in owned,
            )
            return sum(1 for _ in run_bindings(plan, ctx))

        n, _ = self._results.get_or_compute(key, compute)
        self._count("count")
        return {"epoch": state.epoch, "count": n}

    def shard_connected(self, u: ElementId, v: ElementId) -> Dict[str, Any]:
        """Answer ``u ->* v`` iff this shard owns ``u``'s document.

        The owning shard is authoritative: element-level paths project
        to document-level paths, so every element reachable from ``u``
        lies in the owner's forward-closed view — ``v`` outside the
        view means unreachable, exactly as the full index would say.
        """
        state = self._holder.current
        elements = state.index.collection.elements
        info = elements.get(u)
        if info is None or info.doc not in self.owned_docs:
            return {"epoch": state.epoch, "owned": False}
        if v not in elements:
            return {"epoch": state.epoch, "owned": True, "connected": False}
        return {
            "epoch": state.epoch,
            "owned": True,
            "connected": state.index.connected(u, v),
        }

    def shard_distance(self, u: ElementId, v: ElementId) -> Dict[str, Any]:
        """Like :meth:`shard_connected` for link distance."""
        state = self._holder.current
        elements = state.index.collection.elements
        info = elements.get(u)
        if info is None or info.doc not in self.owned_docs:
            return {"epoch": state.epoch, "owned": False}
        if v not in elements:
            return {"epoch": state.epoch, "owned": True, "distance": None}
        return {
            "epoch": state.epoch,
            "owned": True,
            "distance": state.index.distance(u, v),
        }

    # -- introspection --------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        payload = super().stats()
        payload["shard"] = self.shard_id
        payload["owned_documents"] = len(self.owned_docs)
        return payload

    def healthz(self) -> Dict[str, Any]:
        payload = super().healthz()
        payload["shard"] = self.shard_id
        payload["owned_documents"] = len(self.owned_docs)
        return payload


class ShardRegistry:
    """The generation-windowed shard services of one worker process.

    One registry may host several shards (the router maps shard ``i``
    to worker ``i % len(workers)``), each keeping its last
    :data:`KEEP_GENERATIONS` generations so in-flight requests pinned
    to the previous generation keep answering during a rolling swap.
    """

    #: generations retained per shard (current + previous)
    KEEP_GENERATIONS = 2

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._shards: Dict[int, "OrderedDict[int, ShardService]"] = {}

    def _install(self, request: Dict[str, Any]) -> Dict[str, Any]:
        shard = int(request["shard"])
        generation = int(request["generation"])
        if "index" in request:  # in-process install: share the objects
            index = request["index"]
        else:  # wire install: CSR snapshot blob + pickled subcollection
            index = HopiIndex(
                request["collection"], snapshot_from_bytes(request["cover"])
            )
            index.epoch = generation
        service = ShardService(
            index,
            owned_docs=request["owned_docs"],
            shard_id=shard,
            **request.get("service", {}),
        )
        with self._lock:
            generations = self._shards.setdefault(shard, OrderedDict())
            generations[generation] = service
            generations.move_to_end(generation)
            while len(generations) > self.KEEP_GENERATIONS:
                generations.popitem(last=False)
        return {"ok": True, "shard": shard, "generation": generation}

    def _lookup(self, shard: int, generation: Optional[int]) -> ShardService:
        with self._lock:
            generations = self._shards.get(shard)
            if not generations:
                raise LookupError(f"no shard {shard} installed on this worker")
            if generation is None:
                return next(reversed(generations.values()))
            service = generations.get(generation)
            if service is None:
                raise LookupError(
                    f"shard {shard} has no generation {generation} "
                    f"(holds {sorted(generations)})"
                )
            return service

    def execute(self, request: Dict[str, Any]) -> Any:
        """Dispatch one scattered request (the ``S``-frame payload)."""
        op = request.get("op")
        if op == "install":
            return self._install(request)
        shard = int(request["shard"])
        generation = request.get("generation")
        service = self._lookup(shard, generation)
        if op == "query":
            return service.shard_query(
                request["path"], prefix=request.get("prefix")
            )
        if op == "count":
            return service.shard_count(request["path"])
        if op == "connected":
            return service.shard_connected(request["u"], request["v"])
        if op == "distance":
            return service.shard_distance(request["u"], request["v"])
        if op == "stats":
            return service.stats()
        if op == "healthz":
            return service.healthz()
        raise ValueError(f"unknown shard op {op!r}")


# ---------------------------------------------------------------------------
# shard clients (the router's transport seam)
# ---------------------------------------------------------------------------


class LocalShardClient:
    """In-process shard transport: direct calls into a shared registry."""

    address: Optional[str] = None

    def __init__(self, shard_id: int, registry: ShardRegistry) -> None:
        self.shard_id = shard_id
        self._registry = registry

    def install(self, view: ShardView, generation: int,
                service_kwargs: Dict[str, Any]) -> None:
        self._registry.execute({
            "op": "install",
            "shard": self.shard_id,
            "generation": generation,
            "index": view.index,
            "owned_docs": view.owned_docs,
            "service": service_kwargs,
        })

    def request(self, payload: Dict[str, Any]) -> Any:
        return self._registry.execute({**payload, "shard": self.shard_id})

    def close(self) -> None:
        """Nothing to tear down in-process."""


class RpcShardClient:
    """RPC shard transport: ``S`` frames to a ``repro build-worker``.

    Connections are pooled and reused across requests; transport
    failures (refused/reset/timed-out sockets, corrupt replies) raise
    :class:`ShardUnavailableError` so the router can answer degraded
    instead of hanging. Connects retry with bounded backoff — a worker
    that is still binding its listener is transient, not dead.
    """

    def __init__(
        self,
        shard_id: int,
        address: str,
        *,
        connect_attempts: int = 4,
        call_timeout: Optional[float] = 30.0,
    ) -> None:
        self.shard_id = shard_id
        self.address = address
        self._connect_attempts = connect_attempts
        self._call_timeout = call_timeout
        self._pool: List[_WorkerConnection] = []
        self._pool_lock = threading.Lock()

    def _borrow(self) -> _WorkerConnection:
        with self._pool_lock:
            if self._pool:
                return self._pool.pop()
        return _WorkerConnection(
            self.address,
            attempts=self._connect_attempts,
            timeout=self._call_timeout,
        )

    def _unavailable(self, exc: Exception) -> ShardUnavailableError:
        return ShardUnavailableError(
            [self.shard_id],
            f"shard {self.shard_id} at {self.address} unavailable: {exc}",
        )

    def request(self, payload: Dict[str, Any]) -> Any:
        try:
            conn = self._borrow()
        except OSError as exc:
            raise self._unavailable(exc) from exc
        try:
            reply = conn.call(OP_SHARD, {**payload, "shard": self.shard_id})
        except RpcWorkerError:
            # the shard *answered* (with an in-worker failure): the
            # connection is intact, the error is the caller's problem
            self._give_back(conn)
            raise
        except (ConnectionError, OSError, EOFError, pickle.PickleError) as exc:
            conn.close()
            raise self._unavailable(exc) from exc
        self._give_back(conn)
        return reply

    def _give_back(self, conn: _WorkerConnection) -> None:
        with self._pool_lock:
            self._pool.append(conn)

    def install(self, view: ShardView, generation: int,
                service_kwargs: Dict[str, Any]) -> None:
        self.request({
            "op": "install",
            "generation": generation,
            "collection": view.index.collection,
            "cover": snapshot_to_bytes(view.index.cover),
            "owned_docs": view.owned_docs,
            "service": service_kwargs,
        })

    def close(self) -> None:
        with self._pool_lock:
            pool, self._pool = self._pool, []
        for conn in pool:
            conn.close()


# ---------------------------------------------------------------------------
# the router
# ---------------------------------------------------------------------------


class ShardRouter(QueryService):
    """Scatter-gather front end over per-shard :class:`ShardService`\\ s.

    A :class:`QueryService` over the authoritative full index that
    overrides only how a generation is *made* (:meth:`_make_state`
    derives the shard views and installs them on every shard) and how
    it *answers* (:meth:`_evaluate`, :meth:`_count_matches`,
    :meth:`connected` and :meth:`distance` scatter to the shards).
    Caches, the group-commit write path, durability, ``apply`` /
    ``reload_cover`` and the epoch bookkeeping are inherited, so the
    HTTP layer serves a router exactly like a plain service.

    The router never answers result queries from the full index — only
    ``explain`` (pure planning, on the generation's engine) and the
    unknown-element fallback of ``connected``/``distance`` touch it.

    Args:
        index: the full index; the router takes ownership.
        num_shards: how many shards to partition into.
        workers: ``host:port`` worker addresses for the RPC executor;
            ``None`` runs every shard in-process. Shard ``i`` lives on
            worker ``i % len(workers)``.
        fanout_timeout: per-shard answer deadline of one scatter before
            the request degrades (seconds).
        connect_attempts: connect retries of an RPC shard client.
        **kwargs: forwarded to :class:`QueryService` (``ontology``,
            ``similarity_threshold``, ``max_results``, cache sizes,
            ``durable_store``).
    """

    def __init__(
        self,
        index: HopiIndex,
        num_shards: int,
        *,
        workers: Optional[Sequence[str]] = None,
        fanout_timeout: float = 30.0,
        connect_attempts: int = 4,
        **kwargs: Any,
    ) -> None:
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        self.num_shards = num_shards
        self._fanout_timeout = fanout_timeout
        self._fanout_seconds: "deque[float]" = deque(maxlen=512)

        if workers:
            self.executor = "rpc"
            addresses = [a.strip() for a in workers if a.strip()]
            if not addresses:
                raise ValueError("workers must contain at least one host:port")
            self._clients: List[Any] = [
                RpcShardClient(
                    shard,
                    addresses[shard % len(addresses)],
                    connect_attempts=connect_attempts,
                    call_timeout=fanout_timeout,
                )
                for shard in range(num_shards)
            ]
        else:
            self.executor = "local"
            registry = ShardRegistry()
            self._clients = [
                LocalShardClient(shard, registry)
                for shard in range(num_shards)
            ]
        self._pool = ThreadPoolExecutor(
            max_workers=max(4, 2 * num_shards),
            thread_name_prefix="shard-router",
        )
        # prepares generation 0, i.e. installs it on every shard
        super().__init__(index, **kwargs)

    # -- how a generation is made --------------------------------------
    def _make_state(self, epoch: int, index: HopiIndex) -> EpochState:
        """Derive views of ``index`` and install them shard by shard
        (the rolling part of a rolling swap); the returned state's
        engine over the full index answers ``explain``.

        Raises :class:`ShardUnavailableError` if any shard cannot take
        the generation — the caller then neither logs nor publishes it.
        """
        service_kwargs = {
            "ontology": self._ontology,
            "similarity_threshold": self._similarity_threshold,
            "probe_cache_size": self._probe_cache_size,
        }
        for view, client in zip(
            derive_shard_views(index, self.num_shards), self._clients
        ):
            try:
                client.install(view, epoch, service_kwargs)
            except ShardUnavailableError:
                raise
            except (ConnectionError, OSError, EOFError) as exc:
                raise ShardUnavailableError(
                    [client.shard_id],
                    f"shard {client.shard_id} install failed: {exc}",
                ) from exc
        return super()._make_state(epoch, index)

    # -- scatter --------------------------------------------------------
    def _scatter(self, request: Dict[str, Any]) -> List[Any]:
        """Fan one request out to every shard; answers in shard order.

        Raises :class:`ShardUnavailableError` naming every shard that
        failed at the transport level or missed the fan-out deadline.
        """
        t0 = time.perf_counter()
        futures = [
            self._pool.submit(client.request, dict(request))
            for client in self._clients
        ]
        answers: List[Any] = [None] * len(futures)
        down: Dict[int, str] = {}
        for shard, future in enumerate(futures):
            try:
                answers[shard] = future.result(timeout=self._fanout_timeout)
            except ShardUnavailableError as exc:
                down[shard] = str(exc)
            except FutureTimeout:
                down[shard] = (
                    f"shard {shard} missed the {self._fanout_timeout}s "
                    "fan-out deadline"
                )
        self._fanout_seconds.append(time.perf_counter() - t0)
        if down:
            raise ShardUnavailableError(
                sorted(down),
                "; ".join(down[s] for s in sorted(down)),
            )
        return answers

    def _scatter_soft(self, request: Dict[str, Any]) -> List[Any]:
        """Like :meth:`_scatter` but per-shard failures become error
        payloads instead of aborting (stats/health probing)."""
        futures = [
            self._pool.submit(client.request, dict(request))
            for client in self._clients
        ]
        answers: List[Any] = []
        for shard, future in enumerate(futures):
            try:
                answers.append(future.result(timeout=self._fanout_timeout))
            except Exception as exc:
                answers.append({"shard": shard, "reachable": False,
                                "error": str(exc)})
        return answers

    # -- how a generation answers ---------------------------------------
    def _evaluate(
        self, state: EpochState, prepared: PreparedQuery
    ) -> List[QueryResult]:
        """Scatter one query, k-way-merge the owned streams.

        Each shard ships its first ``prefix`` owned pairs — enough to
        cover the expression window plus the engine's ``max_results``
        cap — and its full owned count; the merged prefix reproduces
        the single-process ranked list (same total order, same
        truncation arithmetic) bit for bit.
        """
        window = prepared.logical.window
        if window is not None:
            w_offset = window.offset
            w_limit = window.limit
        else:
            w_offset, w_limit = 0, None
        cap = self._max_results if w_limit is None else min(w_limit, self._max_results)
        prefix = w_offset + cap
        replies = self._scatter({
            "op": "query",
            "generation": state.epoch,
            "path": prepared.key,
            "prefix": prefix,
        })
        total_matches = sum(reply["matches"] for reply in replies)
        out_len = max(0, total_matches - w_offset)
        if w_limit is not None:
            out_len = min(out_len, w_limit)
        out_len = min(out_len, self._max_results)
        merged = heapq.merge(*[
            [(-score, tuple(binding)) for score, binding in reply["items"]]
            for reply in replies
        ])
        windowed = itertools.islice(merged, w_offset, w_offset + out_len)
        return [QueryResult(binding, -neg) for neg, binding in windowed]

    def _count_matches(self, state: EpochState, prepared: PreparedQuery) -> int:
        """The global count: the sum of the shards' owned counts."""
        replies = self._scatter({
            "op": "count",
            "generation": state.epoch,
            "path": prepared.key,
        })
        return sum(reply["count"] for reply in replies)

    def connected(self, u: ElementId, v: ElementId) -> Tuple[int, bool]:
        """Scattered ``u ->* v``: the shard owning ``u``'s document is
        authoritative; unknown elements fall back to the full index so
        error behaviour matches single-process serving exactly."""
        state = self._holder.current
        replies = self._scatter({
            "op": "connected", "generation": state.epoch, "u": u, "v": v,
        })
        self._count("connected")
        for reply in replies:
            if reply.get("owned"):
                return state.epoch, reply["connected"]
        return state.epoch, state.index.connected(u, v)

    def distance(self, u: ElementId, v: ElementId) -> Tuple[int, Optional[int]]:
        """Scattered shortest link distance (see :meth:`connected`)."""
        state = self._holder.current
        replies = self._scatter({
            "op": "distance", "generation": state.epoch, "u": u, "v": v,
        })
        self._count("distance")
        for reply in replies:
            if reply.get("owned"):
                return state.epoch, reply["distance"]
        return state.epoch, state.index.distance(u, v)

    # -- introspection --------------------------------------------------
    def _fanout_stats(self) -> Dict[str, Any]:
        samples = sorted(self._fanout_seconds)
        if not samples:
            return {"scatters": 0}

        def at(q: float) -> float:
            return samples[min(len(samples) - 1, int(q * len(samples)))]

        return {
            "scatters": len(samples),
            "avg_ms": 1e3 * sum(samples) / len(samples),
            "p50_ms": 1e3 * at(0.50),
            "p99_ms": 1e3 * at(0.99),
        }

    def stats(self) -> Dict[str, Any]:
        """Service stats + the sharding layout and one row per shard
        (epoch, hit rate, ...)."""
        payload = super().stats()
        per_shard = self._scatter_soft({
            "op": "stats", "generation": payload["epoch"],
        })
        rows = []
        for shard, (reply, client) in enumerate(zip(per_shard, self._clients)):
            row: Dict[str, Any] = {"shard": shard, "address": client.address}
            if reply.get("reachable") is False:
                row.update(reply)
            else:
                cache = reply.get("result_cache", {})
                row.update({
                    "reachable": True,
                    "epoch": reply.get("epoch"),
                    "owned_documents": reply.get("owned_documents"),
                    "elements": reply.get("elements"),
                    "hit_rate": cache.get("hit_rate"),
                    "requests": reply.get("requests", {}),
                })
            rows.append(row)
        payload.update(
            sharded=True,
            shards=self.num_shards,
            executor=self.executor,
            generation=payload["epoch"],
            fan_out=self._fanout_stats(),
            per_shard=rows,
        )
        return payload

    def healthz(self) -> Dict[str, Any]:
        """Liveness/readiness with live per-shard reachability: any
        unreachable shard makes the router ``degraded`` (HTTP 503)."""
        payload = super().healthz()
        per_shard = self._scatter_soft({
            "op": "healthz", "generation": payload["epoch"],
        })
        shards = []
        down = []
        for shard, (reply, client) in enumerate(zip(per_shard, self._clients)):
            reachable = reply.get("reachable", True) is not False
            if not reachable:
                down.append(shard)
            shards.append({
                "shard": shard,
                "address": client.address,
                "reachable": reachable,
                "epoch": reply.get("epoch"),
            })
        payload.update(
            status="ok" if not down else "degraded",
            ready=not down,
            sharded=True,
            generation=payload["epoch"],
            shards=shards,
            shards_down=down,
        )
        return payload

    def close(self) -> None:
        """Tear down the fan-out pool and every shard connection, then
        release the durable store (:meth:`QueryService.close`)."""
        self._pool.shutdown(wait=False)
        for client in self._clients:
            client.close()
        super().close()
