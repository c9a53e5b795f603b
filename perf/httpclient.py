"""A lean HTTP/1.1 client and the ``repro serve`` subprocess it drives.

``http.client`` costs more per request than the server's cached path,
so a load generator built on it measures itself. This client writes the
request line onto a kept-alive socket and parses only what the async
front end sends back: a status line, ``Content-Length``, a JSON body.
"""

from __future__ import annotations

import json
import os
import re
import signal
import socket
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import quote

_LENGTH = re.compile(rb"content-length:\s*(\d+)", re.IGNORECASE)


class Connection:
    """One kept-alive connection; one request in flight at a time."""

    def __init__(self, port: int, timeout: float = 120.0) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buf = b""

    def request(self, target: str, body: Optional[bytes] = None) -> Tuple[int, bytes]:
        """Send one GET (or POST when ``body`` is given); returns
        ``(status, raw body)``."""
        if body is None:
            head = f"GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n".encode("latin-1")
            self.sock.sendall(head)
        else:
            head = (
                f"POST {target} HTTP/1.1\r\nHost: bench\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n"
            ).encode("latin-1")
            self.sock.sendall(head + body)
        buf = self._buf
        while True:
            end = buf.find(b"\r\n\r\n")
            if end >= 0:
                break
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed the connection mid-response")
            buf += chunk
        status = int(buf[9:12])
        match = _LENGTH.search(buf, 0, end)
        if match is None:
            raise ConnectionError("response without Content-Length")
        need = end + 4 + int(match.group(1))
        while len(buf) < need:
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed the connection mid-body")
            buf += chunk
        self._buf = buf[need:]
        return status, buf[end + 4:need]

    def get_json(self, target: str) -> Tuple[int, Dict[str, Any]]:
        status, raw = self.request(target)
        return status, json.loads(raw)

    def close(self) -> None:
        self.sock.close()


def query_target(path: str, endpoint: str = "query") -> str:
    """The request target of a path expression (its window travels
    inside the expression, which is also what keys the result cache)."""
    return f"/v1/{endpoint}?path={quote(path, safe='')}"


class ServerProcess:
    """A ``python -m repro serve … --async --port 0`` child process."""

    def __init__(
        self,
        src_dir: str,
        index_path: str,
        *,
        backend: str,
        store: Optional[str] = None,
        checkpoint_interval: Optional[int] = None,
    ) -> None:
        argv: List[str] = [
            sys.executable, "-m", "repro", "serve", index_path,
            "--port", "0", "--async", "--backend", backend,
        ]
        if store is not None:
            argv += ["--store", store]
        if checkpoint_interval is not None:
            argv += ["--checkpoint-interval", str(checkpoint_interval)]
        env = dict(os.environ, PYTHONPATH=src_dir)
        self.spawned_at = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            env=env, text=True, cwd=os.path.dirname(index_path),
        )
        self.port = self._read_port()

    def _read_port(self) -> int:
        """The bound port, from the ``serving … on http://host:port``
        line (``--store`` prints a recovery line first)."""
        banner: List[str] = []
        for _ in range(4):
            line = self.proc.stdout.readline()
            if not line:
                break
            banner.append(line.strip())
            match = re.search(r"on http://[^:]+:(\d+) ", line)
            if match:
                return int(match.group(1))
        self.kill()
        raise RuntimeError(f"server did not announce a port: {banner}")

    def wait_healthy(self, deadline: float = 60.0) -> Tuple[float, Dict[str, Any]]:
        """Seconds from spawn to the first ``ok`` ``/v1/healthz``."""
        limit = time.perf_counter() + deadline
        while time.perf_counter() < limit:
            try:
                conn = Connection(self.port, timeout=5.0)
            except OSError:
                time.sleep(0.005)
                continue
            try:
                status, payload = conn.get_json("/v1/healthz")
            finally:
                conn.close()
            if status == 200 and payload.get("status") == "ok":
                return time.perf_counter() - self.spawned_at, payload
            time.sleep(0.005)
        self.kill()
        raise RuntimeError("server never became healthy")

    @property
    def pid(self) -> int:
        return self.proc.pid

    def kill(self) -> None:
        """SIGKILL — the crash the durable store must survive. The OS
        page cache outlives the process, so what this proves is
        process-crash durability, not power-loss durability."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGKILL)
        self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()

    stop = kill
