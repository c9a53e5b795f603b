"""Set-up and load generation shared by the three serving workloads.

A set-up is everything an operator does before the first request:
generate the corpus, build and persist the index, spawn ``repro serve
--async``, wait for a healthy ``/v1/healthz``, send the warm pass. It is
repeated a few times per run so that ``setup_s`` is a median; the last
server stays up for the timed part.

The load generator is this one process with two closed-loop
connections, one thread each: a connection sends its next request only
after the previous answer has arrived.
"""

from __future__ import annotations

import os
import shutil
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.core.hopi import HopiIndex
from repro.storage import persist_index
from repro.xmlmodel.model import Collection

from perf import corpora
from perf.hostspeed import SpeedGauge
from perf.httpclient import Connection, ServerProcess, query_target

#: ``(request target, POST body or None)``
Request = Tuple[str, Optional[bytes]]
#: ``check(position in lane, raw body) -> answer is right``
Check = Callable[[int, bytes], bool]


@dataclass
class Served:
    """One finished set-up: the corpus, its index, the live server."""

    collection: Collection
    index: HopiIndex
    index_path: str
    store_dir: Optional[str]
    server: ServerProcess
    #: what the ``warm`` callback of :func:`set_up` returned
    warmed: Any = None
    #: per set-up, in seconds of the quiet reference host
    setup_seconds: List[float] = field(default_factory=list)
    #: per set-up, spawn to the first healthy ``/v1/healthz``, likewise
    restart_seconds: List[float] = field(default_factory=list)

    @property
    def labels_per_element(self) -> float:
        return self.index.cover.size / self.collection.num_elements

    @property
    def db_bytes_per_element(self) -> float:
        return os.path.getsize(self.index_path) / self.collection.num_elements

    def respawn(self, src_dir: str, checkpoint_interval: Optional[int]) -> ServerProcess:
        """Start the server again on the same index and store."""
        self.server = ServerProcess(
            src_dir, self.index_path, backend=corpora.BACKEND,
            store=self.store_dir, checkpoint_interval=checkpoint_interval,
        )
        return self.server


def set_up(
    work_dir: str,
    src_dir: str,
    gauge: SpeedGauge,
    n_docs: int,
    repeats: int,
    *,
    warm: Callable[[Served], Any],
    durable: bool = False,
    checkpoint_interval: Optional[int] = None,
) -> Served:
    """Run the whole set-up ``repeats`` times; keep the last one."""
    setups: List[Tuple[float, float]] = []    # (start, end)
    restarts: List[Tuple[float, float]] = []  # (spawn, healthy)
    served: Optional[Served] = None
    for attempt in range(repeats):
        if served is not None:
            served.server.stop()
        directory = os.path.join(work_dir, f"setup-{attempt}")
        shutil.rmtree(directory, ignore_errors=True)
        os.makedirs(directory)
        t0 = time.perf_counter()
        collection = corpora.dblp(n_docs)
        index = corpora.build_served_index(collection)
        index_path = os.path.join(directory, "index.db")
        persist_index(index, index_path).close()
        store_dir = os.path.join(directory, "store") if durable else None
        server = ServerProcess(
            src_dir, index_path, backend=corpora.BACKEND,
            store=store_dir, checkpoint_interval=checkpoint_interval,
        )
        served = Served(collection, index, index_path, store_dir, server)
        try:
            healthy_after, _ = server.wait_healthy()
            served.warmed = warm(served)
        except BaseException:
            server.stop()
            raise
        setups.append((t0, time.perf_counter()))
        restarts.append((server.spawned_at, server.spawned_at + healthy_after))
    served.setup_seconds = [gauge.quiet_seconds(*span) for span in setups]
    served.restart_seconds = [gauge.quiet_seconds(*span) for span in restarts]
    return served


def warm_paths(served: Served, paths: Sequence[str]) -> List[bytes]:
    """Send each path expression once to ``/v1/query``; returns the raw
    answers. Part of set-up: the first timed request must not pay for
    the lazy CSR seal and the tag index."""
    conn = Connection(served.server.port)
    try:
        bodies = []
        for path in paths:
            status, raw = conn.request(query_target(path))
            if status != 200:
                raise RuntimeError(f"warm query {path!r} answered {status}")
            bodies.append(raw)
        return bodies
    finally:
        conn.close()


class LaneResult:
    """What one connection saw: when each right answer was asked for
    and how long it took, in request order, and how many requests
    failed. A non-200 or a wrong answer is a failure and contributes no
    latency."""

    __slots__ = ("starts", "latencies", "failed", "attempted", "error")

    def __init__(self) -> None:
        self.starts: List[float] = []
        self.latencies: List[float] = []
        self.failed = 0
        self.attempted = 0
        self.error: Optional[BaseException] = None

    def quiet_latencies(self, gauge: SpeedGauge) -> List[float]:
        """Each latency divided by the host's slowdown while it ran."""
        return [
            seconds / gauge.factor(start, start + seconds)
            for start, seconds in zip(self.starts, self.latencies)
        ]


def drive(
    conn: Connection,
    requests: Sequence[Request],
    check: Check,
    result: LaneResult,
    stop: Optional[threading.Event] = None,
) -> None:
    """Closed loop over ``requests`` on one connection; with ``stop``,
    cycle through them until the event is set."""
    clock = time.perf_counter
    starts, latencies = result.starts, result.latencies
    position = 0
    total = len(requests)
    while True:
        if stop is None:
            if position >= total:
                return
        elif stop.is_set():
            return
        target, body = requests[position % total]
        t0 = clock()
        status, raw = conn.request(target, body)
        elapsed = clock() - t0
        result.attempted += 1
        if status == 200 and check(position % total, raw):
            starts.append(t0)
            latencies.append(elapsed)
        else:
            result.failed += 1
        position += 1


def run_lanes(
    port: int,
    lanes: Sequence[Sequence[Request]],
    checks: Sequence[Check],
) -> Tuple[float, float, List[LaneResult]]:
    """Drive each lane on a connection of its own, concurrently; returns
    the wall time from the common start to the last answer, when that
    start was, and per-lane results. Connections open before the clock
    starts."""
    results = [LaneResult() for _ in lanes]
    barrier = threading.Barrier(len(lanes) + 1)
    conns = [Connection(port) for _ in lanes]

    def worker(k: int) -> None:
        barrier.wait()
        try:
            drive(conns[k], lanes[k], checks[k], results[k])
        except BaseException as exc:  # surfaced by the caller below
            results[k].error = exc

    threads = [
        threading.Thread(target=worker, args=(k,), daemon=True)
        for k in range(len(lanes))
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    t0 = time.perf_counter()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - t0
    for conn in conns:
        conn.close()
    for result in results:
        if result.error is not None:
            raise result.error
    return wall, t0, results
