"""Durable update WAL and crash-recoverable index store.

The serving tier publishes epochs atomically in memory, but a process
crash used to lose every update since the last explicit snapshot. This
module closes that gap with the classic write-ahead protocol:

1. before an epoch is published, its wire-format ops (the
   :mod:`repro.core.ops` dialect) are appended to ``updates.wal`` and
   fsynced;
2. every ``checkpoint_interval`` records the full index is rewritten to
   ``index.db`` (temp file + atomic rename + directory fsync) and the
   WAL is reset;
3. on restart, :meth:`DurableIndexStore.recover` loads the snapshot and
   replays only WAL records *newer than the snapshot epoch* — replay is
   idempotent because records carry the epoch they produced.

Record format (binary, little-endian)::

    magic   "HOPIWAL1"                      (file header, 8 bytes)
    record  u32 length | u32 crc32 | length bytes of UTF-8 JSON
    payload {"epoch": E, "ops": [...]}

A crash mid-append leaves a torn tail: a record whose length field,
payload, or CRC is incomplete or corrupt. Replay stops at the first
torn record and truncates the file back to the last good offset, so the
next append continues from a clean boundary. Ops that cannot be
serialised (arbitrary Python mutators via ``QueryService.apply``) are
not loggable — callers must force a checkpoint instead, which this
module supports via :meth:`DurableIndexStore.checkpoint`.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.core.hopi import HopiIndex
from repro.core.ops import apply_update_op
from repro.storage.db import load_index, persist_index

MAGIC = b"HOPIWAL1"
_HEADER = struct.Struct("<II")  # length, crc32

#: records appended since the last checkpoint before the next publish
#: forces one. Keeps replay cost (and WAL size) bounded without paying
#: a full snapshot rewrite on every small update batch.
DEFAULT_CHECKPOINT_INTERVAL = 64


class WALCrash(RuntimeError):
    """Raised by a crash hook to simulate dying at an injection point."""


def _fsync_dir(path: str) -> None:
    """Flush a directory's entries (a completed rename) to disk."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class UpdateWAL:
    """Append-only log of ``(epoch, ops)`` records with fsync durability.

    The file handle stays open in append mode between writes; ``fsync``
    runs after every record so an acknowledged append survives a crash.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._fh = None
        if not os.path.exists(path) or os.path.getsize(path) == 0:
            with open(path, "wb") as fh:
                fh.write(MAGIC)
                fh.flush()
                os.fsync(fh.fileno())

    def _handle(self):
        if self._fh is None:
            self._fh = open(self.path, "ab")
        return self._fh

    def append(self, epoch: int, ops: List[Dict[str, Any]]) -> None:
        """Durably log one update batch that produced ``epoch``."""
        payload = json.dumps(
            {"epoch": epoch, "ops": ops}, separators=(",", ":")
        ).encode("utf-8")
        fh = self._handle()
        fh.write(_HEADER.pack(len(payload), zlib.crc32(payload)))
        fh.write(payload)
        fh.flush()
        os.fsync(fh.fileno())

    def replay(self) -> Iterator[Tuple[int, List[Dict[str, Any]]]]:
        """Yield ``(epoch, ops)`` for every intact record, oldest first.

        Stops at (and truncates) a torn tail — an incomplete or
        CRC-corrupt final record left by a crash mid-append.
        """
        self.close()
        if not os.path.exists(self.path):
            return
        with open(self.path, "rb") as fh:
            if fh.read(len(MAGIC)) != MAGIC:
                raise ValueError(f"{self.path}: not a HOPI update WAL")
            good = fh.tell()
            while True:
                header = fh.read(_HEADER.size)
                if len(header) < _HEADER.size:
                    break
                length, crc = _HEADER.unpack(header)
                payload = fh.read(length)
                if len(payload) < length or zlib.crc32(payload) != crc:
                    break
                try:
                    record = json.loads(payload.decode("utf-8"))
                except ValueError:
                    break
                good = fh.tell()
                yield int(record["epoch"]), record["ops"]
        if os.path.getsize(self.path) > good:
            with open(self.path, "r+b") as fh:
                fh.truncate(good)

    def reset(self) -> None:
        """Drop all records (after a checkpoint made them redundant)."""
        self.close()
        with open(self.path, "wb") as fh:
            fh.write(MAGIC)
            fh.flush()
            os.fsync(fh.fileno())

    def record_count(self) -> int:
        """Number of intact records currently in the log."""
        return sum(1 for _ in self.replay())

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


class DurableIndexStore:
    """A snapshot + WAL pair that recovers the latest published epoch.

    Layout under ``root``::

        index.db      SQLite snapshot (collection + cover + epoch META)
        updates.wal   ops logged since that snapshot

    The serving tier calls :meth:`log` before each publish and
    :meth:`checkpoint` when the interval is exceeded (or when an update
    is not expressible as wire-format ops). ``crash_hook`` is a test
    seam: it is invoked with the injection-point name at each durability
    transition and may raise :class:`WALCrash` to simulate dying there.

    Injection points:

    * ``"appended"``   — ops are in the WAL, epoch not yet published;
    * ``"published"``  — epoch visible to readers, checkpoint pending;
    * ``"checkpointed"`` — snapshot rewritten, WAL about to reset.
    """

    def __init__(
        self,
        root: str,
        *,
        checkpoint_interval: int = DEFAULT_CHECKPOINT_INTERVAL,
        crash_hook: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.root = root
        os.makedirs(root, exist_ok=True)
        self.db_path = os.path.join(root, "index.db")
        self.wal_path = os.path.join(root, "updates.wal")
        self.checkpoint_interval = checkpoint_interval
        self.crash_hook = crash_hook
        self.wal = UpdateWAL(self.wal_path)
        self._since_checkpoint = self.wal.record_count()

    def fire(self, point: str) -> None:
        """Invoke the crash hook (if any) at a named injection point."""
        if self.crash_hook is not None:
            self.crash_hook(point)

    def exists(self) -> bool:
        """Whether a snapshot has been initialised under ``root``."""
        return os.path.exists(self.db_path)

    def initialize(self, index: HopiIndex) -> None:
        """Seed the store from a freshly built (or loaded) index."""
        self.checkpoint(index)

    def log(self, epoch: int, ops: List[Dict[str, Any]]) -> None:
        """Durably append one update batch *before* it is published."""
        self.wal.append(epoch, ops)
        self._since_checkpoint += 1
        self.fire("appended")

    def checkpoint_due(self) -> bool:
        return self._since_checkpoint >= self.checkpoint_interval

    def checkpoint(self, index: HopiIndex) -> None:
        """Atomically rewrite the snapshot, then reset the WAL.

        The snapshot lands via temp-file + ``os.replace`` so a crash
        mid-write leaves the old snapshot intact; a crash *between* the
        rename and the WAL reset is harmless because replay skips
        records at or below the snapshot epoch. The rename is made
        durable by an fsync of the store directory before the reset:
        otherwise a power loss could keep the reset but undo the
        rename, losing every epoch since the old snapshot.
        """
        tmp = self.db_path + ".tmp"
        if os.path.exists(tmp):
            os.remove(tmp)
        store = persist_index(index, tmp)
        store.close()
        os.replace(tmp, self.db_path)
        _fsync_dir(self.root)
        # WAL-journal side files of the temp database are stale now
        for suffix in ("-wal", "-shm"):
            leftover = tmp + suffix
            if os.path.exists(leftover):
                os.remove(leftover)
        self.fire("checkpointed")
        self.wal.reset()
        self._since_checkpoint = 0

    def recover(self, *, backend: Optional[str] = None) -> HopiIndex:
        """Load the snapshot and replay newer WAL records onto it.

        Returns the index at the highest durably-logged epoch. Records
        at or below the snapshot epoch (possible after a crash between
        checkpoint-rename and WAL reset) are skipped — replay is
        idempotent. ``backend`` is accepted and ignored: there is one
        label representation, but ``perf/`` still passes the argument
        and may not be edited in the PR that retired the option.
        """
        index = load_index(self.db_path)
        for epoch, ops in self.wal.replay():
            if epoch <= index.epoch:
                continue
            for op in ops:
                apply_update_op(index, op)
            index.epoch = epoch
        return index

    def close(self) -> None:
        self.wal.close()
