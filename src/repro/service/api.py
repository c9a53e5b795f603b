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
                               ``evaluate``/``stream``/``count``/
                               ``exists``) — the physical plan that would
                               run (estimates, join order/directions)
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
and epoch age.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Optional, Tuple

from repro.query.pathexpr import PathSyntaxError
from repro.service.service import QueryService, UpdateError
from repro.service.telemetry import Telemetry

#: endpoints served under ``/v1/<name>``
V1_ROUTES = frozenset(
    {"query", "count", "explain", "connected", "distance", "update",
     "stats", "healthz", "metrics"}
)
#: control-plane endpoints: cheap, read-only, and required to stay
#: responsive under overload — the front end's admission control never
#: queues or sheds these
CONTROL_ROUTES = frozenset({"healthz", "metrics"})


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


class ServiceAPI:
    """Every ``/v1`` endpoint of one service, as plain method calls.

    ``service`` is a :class:`QueryService`; ``telemetry`` is shared
    with the enclosing front end so admission-control gauges and
    request histograms land in one ``/v1/metrics`` payload.
    """

    def __init__(
        self, service: QueryService, *, telemetry: Optional[Telemetry] = None
    ) -> None:
        self.service = service
        self.telemetry = telemetry if telemetry is not None else Telemetry()

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

    # -- dispatch --------------------------------------------------------
    def dispatch(
        self,
        url_path: str,
        params: Dict[str, list],
        body: Optional[Any],
    ) -> Tuple[int, Dict[str, Any]]:
        """Route one request and run its handler, mapping errors.

        Returns ``(status, payload)`` — the complete response in both
        the success and every error case, so the front end only
        serialises.
        Unknown paths map to 404, domain errors to 400, anything
        unexpected to 500.
        """
        name = route(url_path)
        if name is None:
            return 404, error_payload(
                "not_found", f"unknown endpoint {url_path!r}"
            )
        t0 = time.perf_counter()
        try:
            status, payload = getattr(self, f"_handle_{name}")(params, body)
        except (UpdateError, PathSyntaxError, KeyError, TypeError, ValueError) as exc:
            status, payload = 400, error_payload("bad_request", str(exc))
        except Exception as exc:  # pragma: no cover - defensive
            status, payload = 500, error_payload(
                "internal", f"internal error: {exc}"
            )
        self.telemetry.observe(name, time.perf_counter() - t0, status)
        return status, payload

    # -- endpoints -------------------------------------------------------
    def _handle_query(self, params, body) -> Tuple[int, Dict[str, Any]]:
        path = self._param(params, "path")
        limit = None
        if "limit" in params:
            limit = self._int_param(params, "limit", minimum=1)
        offset = 0
        if "offset" in params:
            offset = self._int_param(params, "offset", minimum=0)
        response = self.service.query(path, limit=limit, offset=offset)
        collection = response.collection  # same epoch as the results
        results = []
        for r in response.results:
            element = collection.elements[r.target]
            results.append(
                {
                    "score": r.score,
                    "element": r.target,
                    "doc": element.doc,
                    "tag": element.tag,
                    "text": element.text,
                    "bindings": list(r.bindings),
                }
            )
        consumed = offset + len(results)
        return 200, {
            "epoch": response.epoch,
            "path": response.path,
            "cached": response.cached,
            "seconds": response.seconds,
            "count": len(results),
            "results": results,
            "total": response.total,
            "limit": limit,
            "offset": offset,
            "next_offset": consumed if consumed < response.total else None,
            "truncated": response.truncated,
        }

    def _handle_count(self, params, body) -> Tuple[int, Dict[str, Any]]:
        path = self._param(params, "path")
        epoch, n = self.service.count(path)
        return 200, {"epoch": epoch, "path": path, "count": n}

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
            "probe": state.probes.stats(),
        }
        # the ingestion-freshness gauge (docs ingested, publish-lag
        # percentiles)
        payload["ingest"] = service.ingest_stats()
        return 200, payload
