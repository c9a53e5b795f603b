"""RPC build workers — the paper's "different machines" scenario.

Section 4 observes that partition covers "can even be [built] on
different machines". The process pool of :mod:`repro.core.pipeline`
realises that on one host; this module realises it across hosts with
the smallest possible moving parts:

* a **worker daemon** (``repro build-worker --listen HOST:PORT``) — a
  ``socketserver.ThreadingTCPServer`` that executes the same two task
  functions the in-process executors run
  (:func:`~repro.core.pipeline._partition_cover_worker` for phase-2
  partition covers, :func:`~repro.core.join._join_shard_worker` for
  parallel-join shards) and streams results back;
* an **executor client** (:class:`RpcExecutor`) — plugged into the
  pipeline's executor seam (``repro build --executor rpc --workers
  host:port,...``), it deals tasks to the configured workers from a
  shared queue so fast workers take more work, and fails over: a
  worker that drops its connection is retired and its in-flight task
  is re-dealt to the survivors (only when *no* worker remains does the
  build fail).

Wire protocol (all little-endian), one frame per message::

    frame  := opcode(1 byte) + length(uint64) + payload
    opcode := C (cover task) | J (join-shard task) | P (ping)
              S (shard serving op) | R (result) | E (error)

``S`` frames carry the serving tier's scattered requests (install a
shard view / query / count / connected / distance / stats / healthz —
see :class:`repro.service.shard.ShardRegistry`), so the same worker
daemon that builds partition covers offline also hosts query shards
online. Malformed input (truncated or oversized frames, junk opcodes,
unpicklable payloads) is answered with a structured ``E`` frame — the
connection may close, but the worker keeps serving.

Task and result payloads are pickled plain-data objects whose bulk is
CSR snapshot blobs (:func:`repro.storage.snapshot.snapshot_to_bytes`)
— the same length-prefixed wire format the process executor ships over
its pipe, so a worker on another machine is indistinguishable from a
local fork. An ``E`` payload carries ``(exception type name, message)``
and is re-raised in the parent as :class:`RpcWorkerError`.

Pickle implies the usual trust boundary: workers execute tasks from
whoever connects, so bind listeners to loopback or a private build
network only — exactly like the paper's build cluster.
"""

from __future__ import annotations

import pickle
import queue
import socket
import socketserver
import struct
import threading
import time
from typing import Any, BinaryIO, List, Optional, Sequence, Tuple

_HEADER = struct.Struct("<cQ")

OP_COVER = b"C"
OP_JOIN = b"J"
OP_PING = b"P"
OP_SHARD = b"S"
OP_RESULT = b"R"
OP_ERROR = b"E"

#: sanity bound on one frame (1 GiB) — a corrupt length prefix should
#: fail loudly instead of attempting a huge allocation
MAX_FRAME = 1 << 30


class RpcWorkerError(RuntimeError):
    """A task failed *inside* a worker (its exception, re-raised here)."""


def send_frame(wfile: BinaryIO, opcode: bytes, payload: bytes) -> None:
    """Write one length-prefixed frame and flush it."""
    wfile.write(_HEADER.pack(opcode, len(payload)))
    wfile.write(payload)
    wfile.flush()


def recv_frame(rfile: BinaryIO) -> Tuple[bytes, bytes]:
    """Read one frame; raises ``EOFError`` on a cleanly closed peer."""
    header = rfile.read(_HEADER.size)
    if not header:
        raise EOFError("connection closed")
    if len(header) != _HEADER.size:
        raise ConnectionError("truncated frame header")
    opcode, length = _HEADER.unpack(header)
    if length > MAX_FRAME:
        raise ConnectionError(f"oversized frame ({length} bytes)")
    payload = rfile.read(length) if length else b""
    if len(payload) != length:
        raise ConnectionError("truncated frame payload")
    return opcode, payload


def parse_address(spec: str) -> Tuple[str, int]:
    """``"host:port"`` → ``(host, port)`` (IPv4/hostname spellings)."""
    host, sep, port = spec.rpartition(":")
    if not sep or not host:
        raise ValueError(f"worker address must be host:port, got {spec!r}")
    return host, int(port)


# ---------------------------------------------------------------------------
# worker daemon
# ---------------------------------------------------------------------------


class _WorkerHandler(socketserver.StreamRequestHandler):
    """One client connection: execute task frames until the peer hangs up."""

    def handle(self) -> None:  # noqa: D102 (socketserver contract)
        while True:
            try:
                opcode, payload = recv_frame(self.rfile)
            except EOFError:  # clean peer hang-up
                return
            except ConnectionError as exc:
                # a malformed frame (truncated header/payload, oversized
                # length prefix): answer with a structured error so the
                # peer learns *why*, then drop the now-unsynchronisable
                # connection — the worker itself keeps serving
                self._send_error("ProtocolError", str(exc))
                return
            try:
                result = self._execute(opcode, payload)
            except Exception as exc:  # ship the failure, keep serving
                self._send_error(type(exc).__name__, str(exc))
            else:
                send_frame(self.wfile, OP_RESULT, pickle.dumps(result))

    def _send_error(self, kind: str, message: str) -> None:
        try:
            send_frame(self.wfile, OP_ERROR, pickle.dumps((kind, message)))
        except (OSError, ValueError):  # peer already gone / file closed
            pass

    def _execute(self, opcode: bytes, payload: bytes) -> Any:
        from repro.core.join import _join_shard_worker
        from repro.core.pipeline import _partition_cover_worker

        if opcode == OP_PING:
            return "pong"
        if opcode == OP_COVER:
            return _partition_cover_worker(pickle.loads(payload))
        if opcode == OP_JOIN:
            return _join_shard_worker(pickle.loads(payload))
        if opcode == OP_SHARD:
            return self.server.shard_registry().execute(pickle.loads(payload))
        raise ValueError(f"unknown opcode {opcode!r}")


class BuildWorkerServer(socketserver.ThreadingTCPServer):
    """The ``repro build-worker`` daemon (one thread per connection)."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address: Tuple[str, int]) -> None:
        super().__init__(address, _WorkerHandler)
        self._shard_registry: Optional[Any] = None
        self._registry_lock = threading.Lock()

    def shard_registry(self):
        """The worker's shard registry, created on first ``S`` frame
        (lazy so the build-only path never imports the serving tier)."""
        with self._registry_lock:
            if self._shard_registry is None:
                from repro.service.shard import ShardRegistry

                self._shard_registry = ShardRegistry()
            return self._shard_registry


def serve_worker(host: str, port: int) -> BuildWorkerServer:
    """Bind a build worker (port 0 → ephemeral; see ``server_address``)."""
    return BuildWorkerServer((host, port))


def start_worker_thread(host: str = "127.0.0.1", port: int = 0):
    """Start a loopback worker in a daemon thread.

    Returns ``(server, "host:port")`` — the in-process flavour used by
    tests, the rpc-loopback benchmark leg and the CI smoke job.
    Shut it down with ``server.shutdown(); server.server_close()``.
    """
    server = serve_worker(host, port)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    bound_host, bound_port = server.server_address[:2]
    return server, f"{bound_host}:{bound_port}"


# ---------------------------------------------------------------------------
# executor client
# ---------------------------------------------------------------------------


class _WorkerConnection:
    """One persistent connection to a build worker.

    Connecting retries with bounded exponential backoff: a refused
    connection is the normal signature of a worker that is *still
    binding its listener* (rolling restarts, CI jobs that launch the
    daemon and the client together), so failing the first refusal
    retired perfectly healthy workers before failover even mattered.
    ``attempts`` caps the retries; a worker that stays unreachable
    through the whole backoff schedule raises the last ``OSError``.
    """

    #: seconds to wait for one TCP connect attempt before giving up on
    #: it — bounded so a black-holed address cannot stall the build for
    #: the kernel's full TCP retry window
    CONNECT_TIMEOUT = 10.0
    #: default connect attempts (with exponential backoff in between)
    CONNECT_ATTEMPTS = 3
    #: first backoff sleep in seconds (doubles per retry)
    CONNECT_BACKOFF = 0.1

    def __init__(
        self,
        address: str,
        *,
        attempts: Optional[int] = None,
        backoff: Optional[float] = None,
        timeout: Optional[float] = None,
    ) -> None:
        self.address = address
        host, port = parse_address(address)
        attempts = self.CONNECT_ATTEMPTS if attempts is None else max(1, attempts)
        delay = self.CONNECT_BACKOFF if backoff is None else backoff
        for attempt in range(attempts):
            try:
                self._sock = socket.create_connection(
                    (host, port), timeout=self.CONNECT_TIMEOUT
                )
                break
            except OSError:
                if attempt + 1 == attempts:
                    raise
                time.sleep(delay)
                delay *= 2
        # ``timeout`` bounds every subsequent send/recv (the serving
        # tier's fan-out deadline); ``None`` keeps the build behaviour —
        # tasks may legitimately run long
        self._sock.settimeout(timeout)
        self._rfile = self._sock.makefile("rb")
        self._wfile = self._sock.makefile("wb")

    def call(self, opcode: bytes, task: Any) -> Any:
        """Ship one task, block for its result; raises
        :class:`RpcWorkerError` for in-worker failures and
        ``ConnectionError``/``OSError`` for transport failures."""
        send_frame(self._wfile, opcode, pickle.dumps(task))
        reply, payload = recv_frame(self._rfile)
        if reply == OP_ERROR:
            kind, message = pickle.loads(payload)
            raise RpcWorkerError(
                f"worker {self.address} failed: {kind}: {message}"
            )
        if reply != OP_RESULT:
            raise ConnectionError(f"unexpected reply opcode {reply!r}")
        return pickle.loads(payload)

    def close(self) -> None:
        for closer in (self._rfile.close, self._wfile.close, self._sock.close):
            try:
                closer()
            except OSError:  # pragma: no cover - best-effort teardown
                pass


class RpcExecutor:
    """Fan build tasks out over remote worker daemons.

    Tasks are dealt from a shared queue — one puller thread per worker,
    so a fast worker simply takes the next task sooner (the natural
    LPT-ish schedule). Transport failures (refused/bounded-timeout
    connects, mid-task disconnects, corrupt replies) retire the worker
    and requeue the task for the survivors; the build only fails when
    every worker is gone (or the task itself raised, which is reported
    verbatim). A worker that *accepts* a task and then neither answers
    nor hangs up is indistinguishable from one running a long task and
    is waited on — per-task deadlines are a future lever.
    """

    name = "rpc"

    def __init__(self, addresses: Sequence[str]) -> None:
        addresses = [a.strip() for a in addresses if a.strip()]
        if not addresses:
            raise ValueError("rpc executor needs at least one host:port worker")
        for a in addresses:
            parse_address(a)  # validate early, fail before building
        self.addresses = list(addresses)

    @property
    def workers(self) -> int:
        """Worker count (mirrors the process executor's attribute)."""
        return len(self.addresses)

    # -- task distribution ----------------------------------------------
    def _map(self, opcode: bytes, tasks: Sequence[Any]) -> List[Any]:
        """Run ``tasks`` across the workers; results in task order."""
        if not tasks:
            return []
        todo: "queue.Queue[Tuple[int, Any]]" = queue.Queue()
        for item in enumerate(tasks):
            todo.put(item)
        results: List[Any] = [None] * len(tasks)
        done = 0
        lock = threading.Lock()
        finished = threading.Event()
        failure: List[BaseException] = []
        alive = len(self.addresses)

        def pull(address: str) -> None:
            nonlocal done, alive
            try:
                conn = _WorkerConnection(address)
            except OSError as exc:
                with lock:
                    alive -= 1
                    if alive == 0 and not failure:
                        failure.append(
                            ConnectionError(
                                f"no rpc workers reachable (last: "
                                f"{address}: {exc})"
                            )
                        )
                        finished.set()
                return
            try:
                while not finished.is_set():
                    try:
                        # block briefly instead of exiting on an empty
                        # queue: a dying peer may yet re-deal its task
                        index, task = todo.get(timeout=0.05)
                    except queue.Empty:
                        continue
                    try:
                        result = conn.call(opcode, task)
                    except RpcWorkerError as exc:
                        with lock:
                            if not failure:
                                failure.append(exc)
                            finished.set()
                        return
                    except (
                        ConnectionError,
                        OSError,
                        EOFError,  # peer closed cleanly mid-task
                        pickle.PickleError,  # corrupt reply payload
                    ) as exc:
                        todo.put((index, task))  # re-deal to survivors
                        with lock:
                            alive -= 1
                            if alive == 0 and not failure:
                                failure.append(
                                    ConnectionError(
                                        f"all rpc workers lost (last: "
                                        f"{address}: {exc})"
                                    )
                                )
                                finished.set()
                        return
                    with lock:
                        results[index] = result
                        done += 1
                        if done == len(tasks):
                            finished.set()
            finally:
                conn.close()

        threads = [
            threading.Thread(target=pull, args=(a,), daemon=True)
            for a in self.addresses
        ]
        for t in threads:
            t.start()
        finished.wait()
        for t in threads:
            # a puller still blocked connecting to a black-holed address
            # is abandoned (daemon; connect is bounded anyway) — results
            # are complete once `finished` is set
            t.join(
                timeout=_WorkerConnection.CONNECT_ATTEMPTS
                * (_WorkerConnection.CONNECT_TIMEOUT + 1.0)
                + 5.0
            )
        if failure:
            raise failure[0]
        return results

    # -- the executor seam (see repro.core.pipeline) ---------------------
    def run(self, tasks) -> List[Any]:
        """Phase 2: build partition covers on the workers (ordered)."""
        from repro.core.pipeline import decode_partition_results

        return decode_partition_results(self._map(OP_COVER, list(tasks)))

    def map_join(self, tasks) -> List[Tuple[int, Tuple, float]]:
        """Phase 3: run join-shard tasks on the workers."""
        return self._map(OP_JOIN, list(tasks))

    def ping(self) -> List[str]:
        """Round-trip every worker once; returns the reachable addresses."""
        reachable = []
        for address in self.addresses:
            try:
                conn = _WorkerConnection(address)
            except OSError:
                continue
            try:
                if conn.call(OP_PING, None) == "pong":
                    reachable.append(address)
            finally:
                conn.close()
        return reachable
