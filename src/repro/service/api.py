"""Transport-neutral ``/v1`` endpoint core behind the HTTP front end.

The front end (:mod:`repro.service.asyncio_http`) implements no
endpoint itself: it hands ``(url path, query params, decoded JSON
body)`` to one :class:`ServiceAPI` and writes out whatever ``(status,
payload)`` it returns. Everything observable — response fields, error
codes and messages, pagination arithmetic — lives here, once, and is
callable without a socket (the parity suite compares direct
:meth:`ServiceAPI.dispatch` calls against HTTP). The front end owns
only its transport: socket handling, HTTP parsing, concurrency, and
admission control.

:meth:`ServiceAPI.answer_now` gives the front end the finished
``(status, JSON body)`` of every GET whose cost is bounded, so it is
answered on the event loop: a point read or health check
(:data:`POINT_ROUTES` — two label rows, or one read of the epoch
holder), whose handler runs there, error answers included; and a
``/v1/query`` or ``/v1/count`` whose answer is already in the result
cache. The cached rendering takes its fields from the same three
functions as the handlers (``_result_rows``, ``_query_payload``,
``_count_payload``); a cached list's rows are encoded once per
``(plan key, epoch)`` and reused by every window.

The API (all JSON, every response tagged with the ``epoch`` that
answered it):

=============================  ============================================
``GET /v1/query``              ``path`` (required), ``limit`` (≥ 1),
                               ``offset`` (≥ 0) — ranked matches with
                               pagination metadata (``total``,
                               ``next_offset``, and ``truncated`` when
                               the ranked list hit the service's
                               ``max_results`` cap, in which case
                               ``total`` is a lower bound — use
                               ``/v1/count`` for the exact number)
``GET /v1/count``              ``path`` — unranked total match count
``GET /v1/explain``            ``path`` (+ optional ``mode`` —
                               ``evaluate`` or ``count``) — the
                               physical plan that endpoint would run
                               (estimates, join order/directions)
``GET /v1/connected``          ``source``, ``target`` — reachability test
``GET /v1/distance``           ``source``, ``target`` — shortest link
                               distance
``POST /v1/update``            body ``{"ops": [...]}`` — atomic
                               maintenance batch + hot swap (see
                               ``QueryService.update``)
``GET /v1/stats``              service counters, cache stats, epoch
``GET /v1/healthz``            liveness/readiness: epoch, epoch age,
                               uptime and swap count
``GET /v1/metrics``            ops telemetry: per-endpoint latency
                               histograms, request/shed counters, cache
                               hit rates, epoch age, admission gauges
=============================  ============================================

Errors are structured: ``{"error": {"code": "bad_request" |
"not_found" | "internal", "message": "..."}}``; any path outside
``/v1/<name>`` is a ``not_found``.

To add an endpoint, write a ``_handle_<name>(params, body)`` method
returning ``(status, payload)`` and list it in :data:`V1_ROUTES`.

``dispatch`` also feeds the shared
:class:`~repro.service.telemetry.Telemetry` instance (per-endpoint
latency histograms + status counters), which the ``/v1/metrics``
endpoint reports back out together with the service's cache hit rates
and epoch age. :meth:`ServiceAPI.run` and :meth:`ServiceAPI.answer_now`
do not: the front end records what it runs through them itself, once
per request, with the status it answered.
"""

from __future__ import annotations

import json
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.query.engine import QueryResult
from repro.query.pathexpr import PathSyntaxError
from repro.service.cache import LRUCache
from repro.service.service import QueryResponse, QueryService, UpdateError
from repro.service.telemetry import Telemetry

#: endpoints served under ``/v1/<name>``
V1_ROUTES = frozenset(
    {"query", "count", "explain", "connected", "distance", "update",
     "stats", "healthz", "metrics"}
)
#: GET endpoints whose every answer costs a few label rows
#: (``connected`` gallops over two, ``distance`` merges two) or one read
#: of the epoch holder (``healthz``): :meth:`ServiceAPI.answer_now` runs
#: them on the front end's event loop, with no admission or deadline
POINT_ROUTES = frozenset({"connected", "distance", "healthz"})
#: control-plane endpoints: read-only and required to stay responsive
#: under overload, but too dear for the event loop (``metrics`` sorts
#: every latency window) — the front end runs them on a pool of their
#: own that admission control never queues or sheds
CONTROL_ROUTES = frozenset({"metrics"})


def error_payload(code: str, message: str) -> Dict[str, Any]:
    """The structured error body ``{"error": {code, message}}``."""
    return {"error": {"code": code, "message": message}}


def route(path: str) -> Optional[str]:
    """Resolve a URL path to its endpoint name (``None``: not found)."""
    if path.startswith("/v1/"):
        name = path[len("/v1/"):]
        if name in V1_ROUTES:
            return name
    return None


def _result_rows(
    results: Sequence[QueryResult], collection: Any
) -> List[Dict[str, Any]]:
    """Ranked matches as a ``/v1/query`` answer lists them."""
    elements = collection.elements
    rows = []
    for r in results:
        element = elements[r.target]
        rows.append({
            "score": r.score,
            "element": r.target,
            "doc": element.doc,
            "tag": element.tag,
            "text": element.text,
            "bindings": list(r.bindings),
        })
    return rows


def _query_payload(
    response: QueryResponse,
    limit: Optional[int],
    offset: int,
    count: int,
    results: List[Any],
) -> Dict[str, Any]:
    """A ``/v1/query`` answer showing ``count`` rows from ``offset``."""
    consumed = offset + count
    return {
        "epoch": response.epoch,
        "path": response.path,
        "cached": response.cached,
        "seconds": response.seconds,
        "count": count,
        "results": results,
        "total": response.total,
        "limit": limit,
        "offset": offset,
        "next_offset": consumed if consumed < response.total else None,
        "truncated": response.truncated,
    }


def _count_payload(path: str, epoch: int, n: int) -> Dict[str, Any]:
    """A ``/v1/count`` answer; ``path`` is the raw request parameter."""
    return {"epoch": epoch, "path": path, "count": n}


class ServiceAPI:
    """Every ``/v1`` endpoint of one service, as plain method calls.

    ``service`` is a :class:`QueryService`; ``telemetry`` is shared
    with the enclosing front end so admission-control gauges and
    request histograms land in one ``/v1/metrics`` payload.
    :meth:`dispatch` answers any request with a ``(status, payload)``
    pair; :meth:`answer_now` answers a point read, a health check or a
    result-cache hit with finished JSON bytes, the last from rows it
    encodes once per cached entry.
    """

    def __init__(
        self, service: QueryService, *, telemetry: Optional[Telemetry] = None
    ) -> None:
        self.service = service
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        # (plan key, epoch) -> (cached ranked list, its JSON rows or None)
        self._rendered = LRUCache(service._results.capacity)

    # -- parameter plumbing ---------------------------------------------
    def _param(self, params: Dict[str, list], name: str) -> str:
        values = params.get(name)
        if not values:
            raise UpdateError(f"missing query parameter {name!r}")
        return values[0]

    def _int_param(
        self,
        params: Dict[str, list],
        name: str,
        *,
        minimum: Optional[int] = None,
    ) -> int:
        """A validated integer query parameter.

        Non-numeric values and values below ``minimum`` are rejected as
        structured 400s — never 500s (negative/zero ``limit`` used to
        slip through as server errors).
        """
        raw = self._param(params, name)
        try:
            value = int(raw)
        except ValueError:
            raise UpdateError(f"parameter {name!r} must be an integer: {raw!r}")
        if minimum is not None and value < minimum:
            raise UpdateError(
                f"parameter {name!r} must be >= {minimum}, got {value}"
            )
        return value

    def _window(self, params: Dict[str, list]) -> Tuple[Optional[int], int]:
        """The validated ``(limit, offset)`` of a ``/v1/query``."""
        limit = None
        if "limit" in params:
            limit = self._int_param(params, "limit", minimum=1)
        offset = 0
        if "offset" in params:
            offset = self._int_param(params, "offset", minimum=0)
        return limit, offset

    # -- dispatch --------------------------------------------------------
    def dispatch(
        self,
        url_path: str,
        params: Dict[str, list],
        body: Optional[Any],
    ) -> Tuple[int, Dict[str, Any]]:
        """Route one request, run its handler and record it in the
        telemetry.

        Returns ``(status, payload)`` — the complete response in both
        the success and every error case, so the front end only
        serialises.
        Unknown paths map to 404, domain errors to 400, anything
        unexpected to 500.
        """
        name = route(url_path)
        status, payload, seconds = self.run(name, url_path, params, body)
        if name is not None:
            self.telemetry.observe(name, seconds, status)
        return status, payload

    def run(
        self,
        name: Optional[str],
        url_path: str,
        params: Dict[str, list],
        body: Optional[Any],
    ) -> Tuple[int, Dict[str, Any], float]:
        """:meth:`dispatch` without the telemetry, for a path already
        routed to ``name``: ``(status, payload, handler seconds)``. The
        front end's worker pool (and :meth:`answer_now`, on the loop)
        runs this and the front end records the request itself, so a
        request that misses its deadline is recorded once, as the 503 it
        was answered with."""
        if name is None:
            message = f"unknown endpoint {url_path!r}"
            return 404, error_payload("not_found", message), 0.0
        t0 = time.perf_counter()
        try:
            status, payload = getattr(self, f"_handle_{name}")(params, body)
        except (UpdateError, PathSyntaxError, KeyError, TypeError, ValueError) as exc:
            status, payload = 400, error_payload("bad_request", str(exc))
        except Exception as exc:  # pragma: no cover - defensive
            status, payload = 500, error_payload(
                "internal", f"internal error: {exc}"
            )
        return status, payload, time.perf_counter() - t0

    def answer_now(
        self, url_path: str, params: Dict[str, list]
    ) -> Optional[Tuple[int, bytes]]:
        """``(status, JSON body)`` of a GET whose cost is bounded, else
        ``None``, and the request takes the worker pool. The front end
        calls it on its event loop.

        A :data:`POINT_ROUTES` request runs its handler here, so every
        answer, an error too, is ``json.dumps`` of :meth:`dispatch`'s
        payload. A ``/v1/query`` or ``/v1/count`` is answered only if
        the result cache already holds it, with no parse, evaluation or
        wait: byte for byte ``json.dumps`` of the dispatch payload (only
        ``seconds`` differs), assembled from rows each encoded once per
        cached entry. Such a hit counts in the service exactly as a
        dispatched hit does; bad parameters and misses are left to
        :meth:`dispatch`, which owns those answers.
        """
        name = route(url_path)
        if name in POINT_ROUTES:
            status, payload, _ = self.run(name, url_path, params, None)
            return status, json.dumps(payload).encode()
        if name not in ("query", "count"):
            return None
        try:
            path = self._param(params, "path")
            if name == "count":
                hit = self.service.cached_count(path)
                if hit is None:
                    return None
                return 200, json.dumps(_count_payload(path, *hit)).encode()
            limit, offset = self._window(params)
        except UpdateError:
            return None
        response = self.service.cached_query(path)
        if response is None:
            return None
        end = response.total
        if limit is not None:
            end = min(end, offset + limit)
        window = self._rendered_rows(response, offset, end)
        text = json.dumps(
            _query_payload(response, limit, offset, len(window), [])
        ).encode()
        # every field after "results" is a number, a bool or null, so
        # the last '"results": [' is the key itself
        cut = text.rindex(b'"results": [') + len(b'"results": [')
        return 200, b"".join((text[:cut], b", ".join(window), text[cut:]))

    def _rendered_rows(
        self, response: QueryResponse, start: int, end: int
    ) -> List[bytes]:
        """Rows ``start:end`` of a cached ranked list as JSON bytes.

        A row is encoded the first time some window shows it and kept
        with its ``(plan key, epoch)`` entry; the memo holds as many
        entries as the result cache, whatever the windows.
        """
        key = (response.path, response.epoch)
        entry = self._rendered.get(key)
        if entry is None or entry[0] is not response.results:
            entry = (response.results, [None] * response.total)
            self._rendered.put(key, entry)
        results, rows = entry
        missing = [i for i in range(start, end) if rows[i] is None]
        rendered = _result_rows(
            [results[i] for i in missing], response.collection
        )
        for i, row in zip(missing, rendered):
            rows[i] = json.dumps(row).encode()
        return rows[start:end]

    # -- endpoints -------------------------------------------------------
    def _handle_query(self, params, body) -> Tuple[int, Dict[str, Any]]:
        path = self._param(params, "path")
        limit, offset = self._window(params)
        response = self.service.query(path, limit=limit, offset=offset)
        collection = response.collection  # same epoch as the results
        results = _result_rows(response.results, collection)
        return 200, _query_payload(
            response, limit, offset, len(results), results
        )

    def _handle_count(self, params, body) -> Tuple[int, Dict[str, Any]]:
        path = self._param(params, "path")
        return 200, _count_payload(path, *self.service.count(path))

    def _handle_explain(self, params, body) -> Tuple[int, Dict[str, Any]]:
        path = self._param(params, "path")
        mode = params.get("mode", ["evaluate"])[0]
        epoch, plan = self.service.explain(path, mode=mode)
        return 200, {"epoch": epoch, "plan": plan}

    def _handle_connected(self, params, body) -> Tuple[int, Dict[str, Any]]:
        u = self._int_param(params, "source")
        v = self._int_param(params, "target")
        epoch, connected = self.service.connected(u, v)
        return 200, {"epoch": epoch, "source": u, "target": v,
                     "connected": connected}

    def _handle_distance(self, params, body) -> Tuple[int, Dict[str, Any]]:
        u = self._int_param(params, "source")
        v = self._int_param(params, "target")
        epoch, dist = self.service.distance(u, v)
        return 200, {"epoch": epoch, "source": u, "target": v,
                     "distance": dist}

    def _handle_update(self, params, body) -> Tuple[int, Dict[str, Any]]:
        if body is None:
            raise UpdateError("/update requires a POST body")
        if isinstance(body, list):
            ops = body
        elif isinstance(body, dict):
            ops = body.get("ops", [])
        else:
            raise UpdateError(
                "/update body must be a JSON object with an 'ops' list "
                f"or a bare list, got {type(body).__name__}"
            )
        if not isinstance(ops, list):
            raise UpdateError("'ops' must be a list of operations")
        report = self.service.update(ops)
        return 200, report

    def _handle_stats(self, params, body) -> Tuple[int, Dict[str, Any]]:
        return 200, self.service.stats()

    def _handle_healthz(self, params, body) -> Tuple[int, Dict[str, Any]]:
        return 200, self.service.healthz()

    def _handle_metrics(self, params, body) -> Tuple[int, Dict[str, Any]]:
        """Telemetry + cache hit rates + epoch age, in one payload.

        Reads the service's published state directly, so
        ``/v1/metrics`` stays cheap and responsive under overload.
        """
        payload = self.telemetry.snapshot()
        service = self.service
        state = service._holder.current
        # read before the clock: a publish racing in between would
        # otherwise make the age negative
        published_at = service._published_at
        now = time.time()
        payload["epoch"] = state.epoch
        payload["epoch_age_seconds"] = now - published_at
        payload["uptime_seconds"] = now - service._started
        payload["swaps"] = service._holder.swaps
        payload["cache"] = {
            "result": service._results.stats(),
            "plan": service._plans.stats(),
            "probe": state.engine.probe_stats(),
        }
        # the ingestion-freshness gauge (docs ingested, publish-lag
        # percentiles)
        payload["ingest"] = service.ingest_stats()
        return 200, payload
