"""The HTTP front end: asyncio, with admission control and backpressure.

A thread per connection convoys on the GIL and the accept queue under
an open-loop burst of cold queries, and tail latency explodes (a
25000x p99/p50 gap was measured on a cold-miss mix). This front end —
the only one; ``repro serve`` runs it — is instead:

* **one event loop** owning every socket — accept, parse and response
  writes never wait on query evaluation;
* **a bounded worker pool** (``max_inflight`` threads) running the
  CPU-bound dispatch — the service's lock-free epoch-pinned read path,
  single-flight coalescing and hot-swap semantics are untouched
  because the pool only calls
  :meth:`~repro.service.api.ServiceAPI.dispatch`;
* **admission control**: at most ``max_inflight`` requests evaluate
  while at most ``queue_depth`` more wait for a pool slot; anything
  beyond that is *shed* immediately with a structured **429**
  ``{"error": {"code": "overloaded"}}`` — the client learns in
  microseconds instead of queueing unboundedly. Every shed response
  (429 and 503) carries a ``Retry-After`` header and a
  ``retry_after_seconds`` field in the error body, sized to the
  current queue backlog;
* **per-client fairness**: requests are attributed to a client key
  (``X-Client-Id`` header, falling back to the peer address) and one
  key may hold at most ``max_client_share`` of the admission window —
  a single flooding client is shed (429, ``shed_client_cap``) while
  well-behaved clients keep being admitted;
* **per-endpoint timeouts**: a request that exceeds its endpoint's
  deadline answers a structured **503** ``{"error": {"code":
  "overloaded"}}`` (the evaluation thread finishes in the background
  and still warms the cache — only the response is given up on);
* **control-plane exemption**: ``/v1/healthz`` and ``/v1/metrics``
  run on a dedicated two-thread pool with no admission gate, so
  operators can always see queue depth, shed counts and epoch age —
  even mid-overload.

Admission-control state machine (one request)::

    arrive ──► inflight < max_inflight + queue_depth? ──no──► SHED (429)
                    │ yes
                    ▼
               ADMITTED (inflight += 1; runs when a pool slot frees —
                    │     waiting requests are the queue, depth =
                    │     max(0, inflight - max_inflight))
                    ▼
               deadline hit? ──yes──► TIMEOUT (503; worker finishes
                    │ no                       in background)
                    ▼
               ANSWERED (inflight -= 1)

The shared :class:`~repro.service.telemetry.Telemetry` instance
records every transition (``shed_queue_full`` / ``shed_timeout``
counters, ``queue_depth`` / ``inflight`` gauges, per-endpoint latency
histograms), all reported by ``/v1/metrics``.

Malformed requests never reach the service: an invalid or negative
``Content-Length``, an oversized body, a body that is not JSON, or a
request line / header line over the stream limit (64 KiB) answers a
structured 400; a truncated request closes the connection.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.service.api import CONTROL_ROUTES, ServiceAPI, error_payload, route
from repro.service.service import QueryService
from repro.service.telemetry import Telemetry

#: default worker threads evaluating queries concurrently
DEFAULT_MAX_INFLIGHT = 8
#: default extra requests allowed to wait for a worker slot
DEFAULT_QUEUE_DEPTH = 64
#: default cap on one client key's share of the admission window
DEFAULT_MAX_CLIENT_SHARE = 0.5

#: per-endpoint deadlines (seconds); ``update`` is generous because an
#: abandoned update still publishes — better to wait than to answer 503
#: for a batch that will land anyway
DEFAULT_TIMEOUTS: Dict[str, float] = {
    "query": 30.0,
    "count": 30.0,
    "explain": 15.0,
    "connected": 15.0,
    "distance": 15.0,
    "update": 120.0,
    "stats": 15.0,
}

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    429: "Too Many Requests",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
}

#: the stream limit: a request line or header line longer than this
#: answers 400
_MAX_HEADER_LINE = 64 * 1024
#: request bodies beyond this are rejected rather than buffered
MAX_BODY_BYTES = 64 * 1024 * 1024


class AsyncServiceServer:
    """The asyncio front end of one :class:`QueryService`.

    Construct, then either ``await start()`` inside a running loop or
    use :func:`start_in_thread` from synchronous code.

    Args:
        service: the service to publish; shared with the endpoint
            core.
        max_inflight: worker threads evaluating requests concurrently.
        queue_depth: additional admitted requests allowed to wait for a
            worker slot before new arrivals are shed with 429.
        max_client_share: fraction of the admission window
            (``max_inflight + queue_depth``) one client key may occupy
            before its requests are shed with 429 — keeps a flooding
            client from starving everyone else.
        timeouts: per-endpoint deadline overrides (seconds; merged over
            :data:`DEFAULT_TIMEOUTS`; ``None`` disables the deadline).
        telemetry: shared telemetry sink (one is created if omitted).
        max_requests: close the server after answering this many
            requests (smoke tests/CI; ``0`` closes at once, ``None``
            serves forever).
    """

    def __init__(
        self,
        service: QueryService,
        *,
        max_inflight: int = DEFAULT_MAX_INFLIGHT,
        queue_depth: int = DEFAULT_QUEUE_DEPTH,
        max_client_share: float = DEFAULT_MAX_CLIENT_SHARE,
        timeouts: Optional[Dict[str, Optional[float]]] = None,
        telemetry: Optional[Telemetry] = None,
        verbose: bool = False,
        max_requests: Optional[int] = None,
    ) -> None:
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        if queue_depth < 0:
            raise ValueError(f"queue_depth must be >= 0, got {queue_depth}")
        if not 0.0 < max_client_share <= 1.0:
            raise ValueError(
                f"max_client_share must be in (0, 1], got {max_client_share}"
            )
        self.service = service
        self.max_inflight = max_inflight
        self.queue_depth = queue_depth
        self.max_client_share = max_client_share
        self.client_cap = max(
            1, int((max_inflight + queue_depth) * max_client_share)
        )
        self.timeouts = dict(DEFAULT_TIMEOUTS)
        if timeouts:
            self.timeouts.update(timeouts)
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.api = ServiceAPI(service, telemetry=self.telemetry)
        self.verbose = verbose
        self.max_requests = max_requests

        self._inflight = 0
        # client key -> admitted requests; only touched on the event
        # loop thread, so no lock is needed
        self._per_client: Dict[str, int] = {}
        self._answered = 0
        self._pool = ThreadPoolExecutor(
            max_workers=max_inflight, thread_name_prefix="repro-async-worker"
        )
        # control plane: tiny, un-gated, so healthz/metrics stay live
        # even when every worker slot and queue slot is busy
        self._control_pool = ThreadPoolExecutor(
            max_workers=2, thread_name_prefix="repro-async-control"
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._done: Optional[asyncio.Event] = None
        self.telemetry.set_gauge("inflight", lambda: self._inflight)
        self.telemetry.set_gauge(
            "queue_depth", lambda: max(0, self._inflight - self.max_inflight)
        )
        self.telemetry.set_gauge("max_inflight", max_inflight)
        self.telemetry.set_gauge("queue_limit", queue_depth)
        self.telemetry.set_gauge("client_cap", self.client_cap)

    # -- lifecycle -------------------------------------------------------
    async def start(self, host: str = "127.0.0.1", port: int = 0) -> Tuple[str, int]:
        """Bind the listening socket; returns ``(host, port)``."""
        self._done = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, host, port, limit=_MAX_HEADER_LINE
        )
        bound = self._server.sockets[0].getsockname()
        self.address = (bound[0], bound[1])
        if self.max_requests is not None and self.max_requests <= 0:
            self.shutdown()
        return self.address

    async def wait_closed(self) -> None:
        """Serve until :meth:`shutdown` (or ``max_requests``) fires."""
        assert self._done is not None, "start() first"
        await self._done.wait()
        await self._teardown()

    def shutdown(self) -> None:
        """Request shutdown (safe to call from the event loop)."""
        if self._done is not None:
            self._done.set()

    async def _teardown(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self._pool.shutdown(wait=False)
        self._control_pool.shutdown(wait=False)

    # -- HTTP transport --------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except ValueError:
                    # readline hit the stream limit: the head cannot be
                    # parsed, so answer and drop the connection
                    self._write_response(
                        writer, 400,
                        error_payload(
                            "bad_request",
                            "request line or header longer than "
                            f"{_MAX_HEADER_LINE} bytes",
                        ),
                        keep_alive=False,
                    )
                    await _drain_quietly(writer)
                    break
                if request is None:
                    break
                keep_alive = await self._answer(reader, writer, *request)
                self._answered += 1
                if self.max_requests is not None and self._answered >= self.max_requests:
                    self.shutdown()
                    break
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-request; nothing to answer
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, Dict[str, str]]]:
        """Parse one request head: ``(method, target, headers)``, or
        ``None`` when the client closed or sent no request line.

        Raises ``ValueError`` (from ``readline``) for a line longer
        than the stream limit.
        """
        try:
            line = await reader.readline()
        except (ConnectionError, OSError):  # pragma: no cover - races
            return None
        parts = line.decode("latin-1").strip().split()
        if len(parts) < 2:
            return None
        method, target = parts[0], parts[1]
        headers: Dict[str, str] = {}
        while True:
            header = await reader.readline()
            if header in (b"\r\n", b"\n", b""):
                break
            key, _, value = header.decode("latin-1").partition(":")
            headers[key.strip().lower()] = value.strip()
        return method, target, headers

    def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Dict[str, Any],
        *,
        keep_alive: bool = True,
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        reason = _REASONS.get(status, "OK")
        lines = [
            f"HTTP/1.1 {status} {reason}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
        ]
        if extra_headers:
            lines.extend(f"{k}: {v}" for k, v in extra_headers.items())
        if not keep_alive:
            lines.append("Connection: close")
        head = "\r\n".join(lines) + "\r\n\r\n"
        writer.write(head.encode("latin-1") + body)

    async def _answer(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        method: str,
        target: str,
        headers: Dict[str, str],
    ) -> bool:
        """Dispatch one request; returns whether to keep the connection."""
        connection = headers.get("connection", "").lower()
        keep_alive = connection != "close"
        try:
            url = urlparse(target)
        except ValueError:  # e.g. "//[" — an unterminated IPv6 netloc
            self._write_response(
                writer, 400,
                error_payload("bad_request",
                              f"malformed request target {target!r}"),
                keep_alive=False,
            )
            return False

        if method not in ("GET", "POST"):
            self._write_response(
                writer, 501,
                error_payload("not_implemented",
                              f"unsupported method {method!r}"),
                keep_alive=False,
            )
            return False

        body: Optional[Any] = None
        if method == "POST":
            declared = headers.get("content-length", "0")
            # digits only: int() would also take "-5", "+5" and "5_0";
            # the body's framing is unknown, so the connection closes
            if not (declared.isascii() and declared.isdigit()):
                self._write_response(
                    writer, 400,
                    error_payload("bad_request",
                                  "invalid Content-Length header"),
                    keep_alive=False,
                )
                return False
            length = int(declared)
            if length > MAX_BODY_BYTES:
                self._write_response(
                    writer, 400,
                    error_payload("bad_request",
                                  f"request body too large ({length} bytes)"),
                    keep_alive=False,
                )
                return False
            raw = b""
            if length > 0:
                try:
                    raw = await reader.readexactly(length)
                except asyncio.IncompleteReadError:
                    return False
            try:
                body = json.loads(raw.decode("utf-8")) if raw else {}
            except (ValueError, RecursionError) as exc:
                self._write_response(
                    writer, 400,
                    error_payload(
                        "bad_request", f"request body is not valid JSON: {exc}"
                    ),
                    keep_alive=keep_alive,
                )
                return keep_alive

        params = parse_qs(url.query)
        client = headers.get("x-client-id")
        if not client:
            peer = writer.get_extra_info("peername")
            client = peer[0] if isinstance(peer, (tuple, list)) and peer else "?"
        status, payload = await self._dispatch(url.path, params, body, client)
        extra_headers = None
        if isinstance(payload, dict):
            hint = payload.get("retry_after_seconds")
            if hint is not None:
                extra_headers = {"Retry-After": str(hint)}
        self._write_response(
            writer, status, payload,
            keep_alive=keep_alive, extra_headers=extra_headers,
        )
        await _drain_quietly(writer)
        if self.verbose:  # pragma: no cover - interactive logging
            print(f"{method} {target} -> {status}", flush=True)
        return keep_alive

    # -- admission control + dispatch ------------------------------------
    def _retry_after(self) -> int:
        """Whole-seconds backoff hint for shed responses.

        Rough time for the current backlog to drain — one queue's worth
        of work per ``max_inflight`` workers, floored at one second so
        clients never busy-spin on the hint.
        """
        queued = max(0, self._inflight - self.max_inflight)
        return max(1, -(-queued // max(1, self.max_inflight)))

    async def _dispatch(
        self,
        url_path: str,
        params: Dict[str, list],
        body: Optional[Any],
        client: str = "?",
    ) -> Tuple[int, Dict[str, Any]]:
        """Admission-control one request, then run the shared core.

        Control-plane endpoints bypass the gate entirely; everything
        else is shed with a structured 429 when the queue (or the
        caller's fair share of it) is full and a structured 503 when
        its endpoint deadline passes. Shed responses carry a
        ``retry_after_seconds`` hint mirrored into the ``Retry-After``
        header by the transport.
        """
        name = route(url_path)
        loop = asyncio.get_running_loop()

        if name in CONTROL_ROUTES:
            return await loop.run_in_executor(
                self._control_pool, self.api.dispatch, url_path, params, body
            )

        if self._inflight >= self.max_inflight + self.queue_depth:
            self.telemetry.counter("shed_queue_full")
            self.telemetry.observe(name or "unknown", 0.0, 429)
            return 429, {
                "error": {
                    "code": "overloaded",
                    "message": (
                        f"request queue full ({self.max_inflight} in flight "
                        f"+ {self.queue_depth} queued); retry later"
                    ),
                },
                "retry": True,
                "retry_after_seconds": self._retry_after(),
            }

        if self._per_client.get(client, 0) >= self.client_cap:
            self.telemetry.counter("shed_client_cap")
            self.telemetry.observe(name or "unknown", 0.0, 429)
            return 429, {
                "error": {
                    "code": "overloaded",
                    "message": (
                        f"client {client!r} holds its full admission share "
                        f"({self.client_cap} requests); retry later"
                    ),
                },
                "retry": True,
                "retry_after_seconds": self._retry_after(),
            }

        timeout = self.timeouts.get(name) if name is not None else 15.0
        self._inflight += 1
        self._per_client[client] = self._per_client.get(client, 0) + 1
        t0 = time.perf_counter()
        try:
            future = loop.run_in_executor(
                self._pool, self.api.dispatch, url_path, params, body
            )
            if timeout is None:
                return await future
            return await asyncio.wait_for(future, timeout)
        except asyncio.TimeoutError:
            self.telemetry.counter("shed_timeout")
            self.telemetry.observe(
                name or "unknown", time.perf_counter() - t0, 503
            )
            return 503, {
                "error": {
                    "code": "overloaded",
                    "message": (
                        f"{url_path} missed its {timeout}s deadline under "
                        "load; retry later"
                    ),
                },
                "retry": True,
                "retry_after_seconds": self._retry_after(),
            }
        finally:
            self._inflight -= 1
            remaining = self._per_client.get(client, 1) - 1
            if remaining <= 0:
                self._per_client.pop(client, None)
            else:
                self._per_client[client] = remaining


async def _drain_quietly(writer: asyncio.StreamWriter) -> None:
    try:
        await writer.drain()
    except (ConnectionError, OSError):  # pragma: no cover - client gone
        pass


class AsyncServerHandle:
    """A running async front end on a background event-loop thread.

    Returned by :func:`start_in_thread`; used by tests and the bench
    harness, which are synchronous. ``base_url`` points at the bound
    ephemeral port; :meth:`close` stops the loop and joins the thread.
    Usable as a context manager.
    """

    def __init__(
        self,
        server: AsyncServiceServer,
        loop: asyncio.AbstractEventLoop,
        thread: threading.Thread,
        address: Tuple[str, int],
    ) -> None:
        self.server = server
        self.loop = loop
        self.thread = thread
        self.address = address
        self.base_url = f"http://{address[0]}:{address[1]}"

    @property
    def telemetry(self) -> Telemetry:
        return self.server.telemetry

    def close(self) -> None:
        """Stop serving and join the event-loop thread."""
        if self.thread.is_alive():
            self.loop.call_soon_threadsafe(self.server.shutdown)
        self.thread.join(timeout=10.0)

    def __enter__(self) -> "AsyncServerHandle":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def start_in_thread(
    service: QueryService,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    **kwargs: Any,
) -> AsyncServerHandle:
    """Run an async front end on a daemon thread; returns its handle.

    The event loop, socket and worker pools all live on the background
    thread; the caller gets ``handle.base_url`` once the socket is
    bound (or the startup exception re-raised, e.g. port in use).
    ``kwargs`` forward to :class:`AsyncServiceServer`.
    """
    server = AsyncServiceServer(service, **kwargs)
    started = threading.Event()
    box: Dict[str, Any] = {}
    loop = asyncio.new_event_loop()

    def _run() -> None:
        asyncio.set_event_loop(loop)

        async def _main() -> None:
            try:
                box["address"] = await server.start(host, port)
            except Exception as exc:  # pragma: no cover - bind races
                box["error"] = exc
                return
            finally:
                started.set()
            await server.wait_closed()

        try:
            loop.run_until_complete(_main())
        finally:
            loop.close()

    thread = threading.Thread(
        target=_run, name="repro-async-server", daemon=True
    )
    thread.start()
    started.wait(timeout=10.0)
    if "error" in box:
        thread.join(timeout=5.0)
        raise box["error"]
    if "address" not in box:
        raise RuntimeError("async server failed to start within 10s")
    return AsyncServerHandle(server, loop, thread, box["address"])

