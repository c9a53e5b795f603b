"""Fault-injection and load generators for serving-tier tests.

Test code reads as ``harness.open_loop_burst(...)``:

* :func:`cold_miss_paths` — deterministic distinct-plan path
  expressions; every request compiles and evaluates a plan the result
  cache has never seen (the convoy that produced the 25000x p99/p50
  gap the asyncio front end attacks);
* :func:`open_loop_burst` — an open-loop load generator: requests fire
  on schedule *regardless of completions* (closed-loop clients
  self-throttle and can never observe queue collapse), every response
  is classified (ok / shed / degraded / unstructured / hung);
* :func:`cold_miss_convoy` — N clients released through a barrier onto
  the same cold path at the same instant, for coalescing checks;
* :func:`closed_loop_clients` — per-client request loops for tail
  latency measurement;
* :func:`run_hot_swap_under_load` — readers at full speed while update
  batches hot-swap the index, every answer checked against an offline
  per-epoch oracle;
* :func:`raw_exchange` — raw bytes in, every response out, for
  requests no HTTP client library will send (malformed heads);
* :func:`stored_tables` / :func:`fresh_tables` — every row of an index
  file, and of a from-scratch ``persist_index`` of a live index: the
  oracle for snapshots maintained in place.

The HTTP generators are stdlib-only and transport-level: they speak
plain HTTP to whatever server is listening.
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import random
import re
import socket
import sqlite3
import threading
import time
from contextlib import closing
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

#: the dblp_like tag vocabulary (see ``repro.xmlmodel.generator``):
#: children of ``article`` usable as existence predicates, and tags
#: reachable as descendants — the raw material for distinct plans
_PREDICATE_TAGS = (
    "title", "year", "pages", "authors", "metadata", "keywords", "citations",
)
_LEAF_TAGS = (
    "author", "keyword", "cite", "booktitle", "publisher", "ee", "url",
    "title", "year", "pages",
)


def stored_tables(path: str) -> Dict[str, list]:
    """Every row of an index file, table by table, in a canonical
    order."""
    with closing(sqlite3.connect(path)) as conn:
        return {
            table: sorted(conn.execute(f"SELECT * FROM {table}"))
            for table in ("META", "DOCUMENTS", "ELEMENTS", "LINKS", "LIN", "LOUT")
        }


def fresh_tables(index, directory: str) -> Dict[str, list]:
    """The rows ``persist_index`` writes for ``index`` into an empty
    file (``fresh.db`` under ``directory``)."""
    from repro.storage.db import persist_index

    path = os.path.join(directory, "fresh.db")
    for suffix in ("", "-wal", "-shm"):
        if os.path.exists(path + suffix):
            os.remove(path + suffix)
    persist_index(index, path).close()
    return stored_tables(path)


def cold_miss_paths(n: int, *, seed: int = 0) -> List[str]:
    """``n`` distinct-plan path expressions over the dblp_like schema.

    Enumerates predicate-decorated descendant combinations
    (``//article[keywords]//cite``, ``//article[title][year]//author``,
    …) so each path compiles to a distinct plan and misses the
    ``(path, epoch)`` result cache. The enumeration is deterministic
    (shuffled by ``seed``), so a workload is reproducible across runs
    and front ends. Raises if ``n`` exceeds the distinct pool — a
    cold-miss workload that silently repeated paths would measure the
    cache, not the misses.
    """
    combos: List[str] = []
    for leaf in _LEAF_TAGS:
        combos.append(f"//article//{leaf}")
    for pred, leaf in itertools.product(_PREDICATE_TAGS, _LEAF_TAGS):
        combos.append(f"//article[{pred}]//{leaf}")
    for (p1, p2), leaf in itertools.product(
        itertools.permutations(_PREDICATE_TAGS, 2), _LEAF_TAGS
    ):
        combos.append(f"//article[{p1}][{p2}]//{leaf}")
    if n > len(combos):
        raise ValueError(
            f"only {len(combos)} distinct cold-miss paths available, "
            f"asked for {n}"
        )
    rng = random.Random(seed)
    rng.shuffle(combos)
    return combos[:n]


# ---------------------------------------------------------------------------
# HTTP load generation
# ---------------------------------------------------------------------------


@dataclass
class RequestOutcome:
    """One request as the client experienced it."""

    status: Optional[int]  #: HTTP status, or None if the request hung
    elapsed: float  #: seconds from send to full response (or give-up)
    structured: bool  #: body parsed as JSON and, on error, carried
    #: the structured ``{"error": ...}`` shape
    error_code: Optional[str] = None  #: ``error.code`` on /v1 errors
    hung: bool = False  #: no complete response within the deadline
    retry_after: Optional[int] = None  #: Retry-After header on sheds


@dataclass
class BurstReport:
    """Classification of every request an :func:`open_loop_burst` sent."""

    outcomes: List[RequestOutcome] = field(default_factory=list)

    @property
    def total(self) -> int:
        return len(self.outcomes)

    def count(self, *statuses: int) -> int:
        return sum(1 for o in self.outcomes if o.status in statuses)

    @property
    def ok(self) -> int:
        return self.count(200)

    @property
    def shed(self) -> int:
        """Requests refused by admission control (429)."""
        return self.count(429)

    @property
    def degraded(self) -> int:
        """Requests answered 503 (deadline missed)."""
        return self.count(503)

    @property
    def hung(self) -> int:
        """Requests with no complete response within the deadline."""
        return sum(1 for o in self.outcomes if o.hung)

    @property
    def unstructured(self) -> int:
        """Non-200 responses missing the structured error body."""
        return sum(
            1
            for o in self.outcomes
            if not o.hung and o.status != 200 and not o.structured
        )

    @property
    def unexpected(self) -> int:
        """Responses outside the overload contract {200, 429, 503}."""
        return sum(
            1
            for o in self.outcomes
            if not o.hung and o.status not in (200, 429, 503)
        )

    def latencies(self, *statuses: int) -> List[float]:
        wanted = statuses or (200,)
        return sorted(
            o.elapsed for o in self.outcomes if o.status in wanted
        )

    def summary(self) -> Dict[str, Any]:
        return {
            "total": self.total,
            "ok": self.ok,
            "shed": self.shed,
            "degraded": self.degraded,
            "hung": self.hung,
            "unstructured": self.unstructured,
            "unexpected": self.unexpected,
        }


#: how long past the request timeout a sender thread is waited for
JOIN_GRACE = 5.0


def _collect(
    threads: List[threading.Thread],
    slots: List[Optional[RequestOutcome]],
    timeout: float,
) -> List[RequestOutcome]:
    """Join the senders and return one outcome per sender: a sender
    still running ``timeout + JOIN_GRACE`` after the last one started
    (a response trickling in under the per-read socket timeout) is
    recorded as hung."""
    deadline = time.monotonic() + timeout + JOIN_GRACE
    for thread in threads:
        thread.join(timeout=max(0.0, deadline - time.monotonic()))
    return [
        outcome if outcome is not None else RequestOutcome(
            status=None, elapsed=timeout + JOIN_GRACE,
            structured=False, hung=True,
        )
        for outcome in slots
    ]


def _one_request(
    host: str,
    port: int,
    path: str,
    *,
    timeout: float,
    method: str = "GET",
    body: Optional[bytes] = None,
    headers: Optional[Dict[str, str]] = None,
) -> RequestOutcome:
    """Send one HTTP request on a fresh connection and classify it."""
    t0 = time.perf_counter()
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        send_headers = dict(headers) if headers else {}
        if body is not None:
            send_headers["Content-Type"] = "application/json"
        conn.request(method, path, body=body, headers=send_headers)
        response = conn.getresponse()
        raw = response.read()
        elapsed = time.perf_counter() - t0
        structured = False
        error_code: Optional[str] = None
        retry_after: Optional[int] = None
        try:
            # a malformed Retry-After breaks the shed contract as surely
            # as a malformed body: the response counts as unstructured
            retry_after_header = response.getheader("Retry-After")
            if retry_after_header is not None:
                retry_after = int(retry_after_header)
            payload = json.loads(raw)
            if response.status == 200:
                structured = True
            else:
                error = payload.get("error")
                if isinstance(error, dict) and "code" in error:
                    structured = True
                    error_code = error["code"]
        except ValueError:
            structured = False
        return RequestOutcome(
            status=response.status,
            elapsed=elapsed,
            structured=structured,
            error_code=error_code,
            retry_after=retry_after,
        )
    except (socket.timeout, TimeoutError):
        return RequestOutcome(
            status=None,
            elapsed=time.perf_counter() - t0,
            structured=False,
            hung=True,
        )
    except (ConnectionError, OSError, http.client.HTTPException):
        # connection refused/reset: the server *answered* the transport
        # layer promptly (a reset is not a hang) but outside the
        # structured contract — classify as unexpected, not hung
        return RequestOutcome(
            status=-1,
            elapsed=time.perf_counter() - t0,
            structured=False,
        )
    finally:
        conn.close()


def raw_exchange(
    host: str, port: int, data: bytes, *, timeout: float = 5.0
) -> List[Tuple[int, Dict[str, Any]]]:
    """Send ``data`` verbatim on a fresh connection, half-close it, and
    read until the server closes.

    Returns every response as ``(status, decoded JSON body)``; ``[]``
    means the server closed (or reset) without answering. A server
    that neither answers nor closes within ``timeout`` raises
    ``socket.timeout`` — a hang; a response that is not
    ``Content-Length``-framed JSON raises too.
    """
    chunks: List[bytes] = []
    with socket.create_connection((host, port), timeout=timeout) as sock:
        try:
            sock.sendall(data)
            sock.shutdown(socket.SHUT_WR)
        except (BrokenPipeError, ConnectionResetError):
            pass  # the server answered and closed first; read what it sent
        while True:
            try:
                chunk = sock.recv(65536)
            except ConnectionResetError:
                break
            if not chunk:
                break
            chunks.append(chunk)
    raw = b"".join(chunks)
    responses = []
    while raw:
        head, _, rest = raw.partition(b"\r\n\r\n")
        status = int(head.split(b" ", 2)[1])
        length = int(
            re.search(rb"(?im)^content-length:\s*(\d+)", head).group(1)
        )
        responses.append((status, json.loads(rest[:length])))
        raw = rest[length:]
    return responses


def open_loop_burst(
    host: str,
    port: int,
    paths: List[str],
    *,
    rate: float,
    duration: float,
    timeout: float = 30.0,
    max_inflight_senders: int = 256,
    headers: Optional[Dict[str, str]] = None,
) -> BurstReport:
    """Open-loop load: fire requests on schedule, never wait for answers.

    One sender thread per scheduled request (bounded by
    ``max_inflight_senders`` — beyond that arrivals are dropped rather
    than silently turning the generator closed-loop). ``paths`` are
    cycled in order; each request gets a fresh connection so shed (429)
    answers cannot slow later arrivals. Blocks until every sender has a
    classified outcome, then returns the :class:`BurstReport`.
    """
    slots: List[Optional[RequestOutcome]] = []
    threads: List[threading.Thread] = []
    live = threading.Semaphore(max_inflight_senders)
    interval = 1.0 / rate
    n_requests = max(1, int(rate * duration))
    path_cycle = itertools.cycle(paths)
    start = time.perf_counter()

    def _fire(slot: int, path: str) -> None:
        try:
            slots[slot] = _one_request(
                host, port, path, timeout=timeout, headers=headers
            )
        finally:
            live.release()

    for i in range(n_requests):
        # open loop: sleep to the schedule, not until the last reply
        target = start + i * interval
        delay = target - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        if not live.acquire(blocking=False):
            continue  # sender budget exhausted; drop, don't throttle
        slots.append(None)
        thread = threading.Thread(
            target=_fire, args=(len(slots) - 1, next(path_cycle)), daemon=True
        )
        thread.start()
        threads.append(thread)

    return BurstReport(outcomes=_collect(threads, slots, timeout))


def cold_miss_convoy(
    host: str,
    port: int,
    path: str,
    *,
    n_clients: int,
    timeout: float = 30.0,
) -> List[RequestOutcome]:
    """Release ``n_clients`` onto the same cold path simultaneously.

    A barrier lines every client up before the first byte is sent, so
    all of them miss the result cache together — the convoy that
    single-flight coalescing exists to absorb (one evaluation, N
    answers).
    """
    barrier = threading.Barrier(n_clients)
    outcomes: List[Optional[RequestOutcome]] = [None] * n_clients

    def _client(slot: int) -> None:
        barrier.wait()
        outcomes[slot] = _one_request(
            host, port, path, timeout=timeout
        )

    threads = [
        threading.Thread(target=_client, args=(i,), daemon=True)
        for i in range(n_clients)
    ]
    for thread in threads:
        thread.start()
    return _collect(threads, outcomes, timeout)


def closed_loop_clients(
    host: str,
    port: int,
    paths: List[str],
    *,
    n_clients: int,
    requests_per_client: int,
    timeout: float = 30.0,
    path_for: Optional[Callable[[int, int], str]] = None,
) -> List[RequestOutcome]:
    """``n_clients`` threads, each sending its requests back to back.

    The workhorse for tail-latency measurement: client ``c`` sends
    request ``r`` as ``paths[(c * requests_per_client + r) % len]``
    (or whatever ``path_for(c, r)`` returns), waiting for each answer
    before the next — so latencies reflect service time plus queueing,
    not generator backlog.
    """
    outcomes: List[RequestOutcome] = []
    lock = threading.Lock()

    def _client(slot: int) -> None:
        for r in range(requests_per_client):
            if path_for is not None:
                path = path_for(slot, r)
            else:
                path = paths[(slot * requests_per_client + r) % len(paths)]
            outcome = _one_request(host, port, path, timeout=timeout)
            with lock:
                outcomes.append(outcome)

    threads = [
        threading.Thread(target=_client, args=(i,), daemon=True)
        for i in range(n_clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=timeout * requests_per_client + 10.0)
    return outcomes


# ---------------------------------------------------------------------------
# hot swap under load (in-process, on a QueryService)
# ---------------------------------------------------------------------------


@dataclass
class HotSwapResult:
    """Outcome of :func:`run_hot_swap_under_load`."""

    updates: int
    errors: int
    torn: int
    epochs_observed: List[int] = field(default_factory=list)


def run_hot_swap_under_load(
    service: Any,
    paths: List[str],
    *,
    threads: int = 4,
    requests_per_thread: int = 400,
    updates: int = 5,
) -> HotSwapResult:
    """Hot-swap ``updates`` maintenance batches while ``threads`` readers
    query at full speed.

    Overlap is guaranteed by construction: the writer waits for the
    first reader request before its first update, every update batch is
    applied (never cancelled), and readers issue at least
    ``requests_per_thread`` requests each *and* keep querying until the
    last batch has swapped in — so every swap lands under live traffic.

    Failure conditions counted (both must be zero):
    * any reader request raising;
    * a *torn* answer — a result set that differs from an **independent
      per-epoch oracle** (the update sequence replayed offline, each
      epoch evaluated with a plain engine). Comparing against the
      oracle, not just across readers, keeps the check meaningful even
      though same-epoch readers share one cached result list.
    """
    from repro.query.engine import QueryEngine

    # ---- the deterministic update sequence, shared with the writer
    roots = sorted(d.root for d in service.index.collection.documents.values())
    base_epoch = service.epoch

    def batch_for(i: int) -> List[Dict[str, object]]:
        return [{"op": "insert_element", "parent": roots[i % len(roots)],
                 "tag": "benchnote"}]

    def sig_of(results) -> Tuple:
        return tuple((r.target, round(r.score, 12)) for r in results)

    # ---- per-epoch oracles via offline replay (no service caches)
    oracle: Dict[int, Dict[str, Tuple]] = {}
    replica = service.index.copy()
    for i in range(updates + 1):
        if i > 0:
            op = batch_for(i - 1)[0]
            replica.insert_element(op["parent"], op["tag"])
        engine = QueryEngine(replica, max_results=service.max_results)
        oracle[base_epoch + i] = {p: sig_of(engine.evaluate(p)) for p in paths}

    observed: Dict[Tuple[str, int], set] = {}
    errors: List[BaseException] = []
    lock = threading.Lock()
    readers_started = threading.Event()
    writer_done = threading.Event()
    applied = 0

    def reader() -> None:
        i = 0
        # run the minimum, then finish full cycles until the writer is
        # done (safety-capped so a stuck writer cannot hang the test)
        try:
            while (
                i < requests_per_thread
                or not writer_done.is_set()
                or i % len(paths) != 0
            ):
                path = paths[i % len(paths)]
                i += 1
                response = service.query(path)
                readers_started.set()
                with lock:
                    observed.setdefault((path, response.epoch), set()).add(
                        sig_of(response.results)
                    )
                if i >= requests_per_thread * 50:
                    break
        except BaseException as exc:  # noqa: BLE001 - recorded, not dropped
            with lock:
                errors.append(exc)

    def writer() -> None:
        nonlocal applied
        readers_started.wait(timeout=30)
        try:
            for i in range(updates):
                service.update(batch_for(i))
                applied += 1
                time.sleep(0.005)
        finally:
            writer_done.set()

    workers = [threading.Thread(target=writer, daemon=True)] + [
        threading.Thread(target=reader, daemon=True)
        for _ in range(threads)
    ]
    for t in workers:
        t.start()
    for t in workers:
        t.join()

    # torn = any observed answer diverging from its epoch's oracle
    torn = 0
    for (path, epoch), sigs in observed.items():
        expected = oracle.get(epoch, {}).get(path)
        if expected is None or sigs != {expected}:
            torn += 1
    return HotSwapResult(
        updates=applied,
        errors=len(errors),
        torn=torn,
        epochs_observed=sorted({epoch for (_, epoch) in observed}),
    )
