"""Durable update WAL and crash-recoverable index store.

The serving tier publishes epochs atomically in memory, but a process
crash used to lose every update since the last explicit snapshot. This
module closes that gap with the classic write-ahead protocol:

1. before an epoch is published, its wire-format ops (the
   :mod:`repro.core.ops` dialect) are appended to ``updates.wal`` and
   fsynced;
2. every ``checkpoint_interval`` records the collection rows that
   changed since the last checkpoint are written into ``index.db`` in
   place, in one SQLite transaction committed with
   ``synchronous=FULL``. The changed rows are found by copy-on-write
   identity against a fork of the last checkpointed collection (see
   :meth:`~repro.storage.db.SQLiteCoverStore.write_index`). The live
   cover is then written whole to ``cover.snap``, a CSR snapshot
   (:mod:`repro.storage.snapshot`) tagged with the epoch and followed
   by the cover's stored vertex ranks, fsynced and renamed into place;
   only then is the WAL reset;
3. on restart, :meth:`DurableIndexStore.recover` loads the collection
   from ``index.db`` and its cover from ``cover.snap`` when the two
   carry the same epoch, else (a crash between the two writes, or a
   store an older version wrote) by the product build. It then replays
   only WAL records *newer than the snapshot epoch* — replay is
   idempotent because records carry the epoch they produced. A fork of
   the loaded collection becomes the base, so the next checkpoint
   writes only the replayed rows.

``index.db`` alone is a plain index file: :func:`~repro.storage.db.load_index`
rebuilds its cover. ``cover.snap`` keeps the cover maintenance grew, so
a restart serves the very cover the crashed process published, not a
fresh build of the same collection.

Record format (binary, little-endian)::

    magic   "HOPIWAL1"                      (file header, 8 bytes)
    record  u32 length | u32 crc32 | length bytes of UTF-8 JSON
    payload {"epoch": E, "ops": [...]}

A crash mid-append leaves a torn tail: a record whose length field,
payload, or CRC is incomplete or corrupt. Replay stops at the first
torn record and truncates the file back to the last good offset, so the
next append continues from a clean boundary.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.core.hopi import HopiIndex
from repro.core.ops import apply_update_op
from repro.storage.db import Cover, SQLiteCoverStore
from repro.storage.snapshot import dump_ranked_snapshot, read_snapshot
from repro.xmlmodel.model import Collection

MAGIC = b"HOPIWAL1"
_HEADER = struct.Struct("<II")  # length, crc32
_COVER_EPOCH = struct.Struct("<q")  # cover.snap's header

#: records appended since the last checkpoint before the next publish
#: forces one. Keeps replay cost (and WAL size) bounded without paying
#: a snapshot transaction on every small update batch.
DEFAULT_CHECKPOINT_INTERVAL = 64


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

        index.db      SQLite snapshot (collection + epoch META)
        cover.snap    the cover at that epoch (epoch + CSR snapshot)
        updates.wal   ops logged since that snapshot

    The serving tier calls :meth:`log` before each publish and
    :meth:`checkpoint` when the interval is exceeded (or when an update
    is not expressible as wire-format ops). ``crash_hook`` is a test
    seam: it is invoked with the injection-point name at each durability
    transition and may raise to simulate dying there.

    Injection points:

    * ``"appended"``   — ops are in the WAL, epoch not yet published;
    * ``"published"``  — epoch visible to readers, checkpoint pending;
    * ``"checkpointed"`` — snapshot committed, WAL about to reset.

    Checkpoints are serialised by the caller (the service's write lock);
    the snapshot connection may move between threads.
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
        self.cover_path = os.path.join(root, "cover.snap")
        self.checkpoint_interval = checkpoint_interval
        self.crash_hook = crash_hook
        self.wal = UpdateWAL(self.wal_path)
        self._since_checkpoint = self.wal.record_count()
        self._db: Optional[SQLiteCoverStore] = None
        # exactly what index.db holds: a fork of the collection
        # checkpointed (or recovered) last; None until then, so the
        # first checkpoint rewrites every row
        self._base: Optional[Collection] = None

    def fire(self, point: str) -> None:
        """Invoke the crash hook (if any) at a named injection point."""
        if self.crash_hook is not None:
            self.crash_hook(point)

    def exists(self) -> bool:
        """Whether a snapshot has been initialised under ``root``.

        That is, ``index.db`` holds a committed ``epoch``: the first
        checkpoint writes it in the same transaction as the rows, so a
        crash inside that checkpoint leaves a file without one, and the
        store is seeded again rather than recovered as empty.
        """
        if not os.path.exists(self.db_path):
            return False
        with SQLiteCoverStore(self.db_path) as db:
            return db._meta("epoch") is not None

    def initialize(self, index: HopiIndex) -> Dict[str, int]:
        """Seed the store from a freshly built (or loaded) index."""
        return self.checkpoint(index)

    def log(self, epoch: int, ops: List[Dict[str, Any]]) -> None:
        """Durably append one update batch *before* it is published."""
        self.wal.append(epoch, ops)
        self._since_checkpoint += 1
        self.fire("appended")

    def checkpoint_due(self) -> bool:
        return self._since_checkpoint >= self.checkpoint_interval

    def _open(self) -> SQLiteCoverStore:
        """The snapshot connection, opened on first use."""
        if self._db is None:
            self._db = SQLiteCoverStore(self.db_path)
            self._db._conn.execute("PRAGMA synchronous=FULL")
            _fsync_dir(self.root)  # a newly created index.db's entry
        return self._db

    def checkpoint(self, index: HopiIndex) -> Dict[str, int]:
        """Write what changed since the last checkpoint into the
        snapshot, then reset the WAL.

        The collection delta against the base fork commits in one
        SQLite transaction with ``synchronous=FULL``, so it is durable
        before the reset: a crash inside the transaction leaves the old
        snapshot and the WAL intact, and a crash between the commit and
        the reset is harmless because replay skips records at or below
        the snapshot epoch. The base then becomes a fork of ``index``'s
        collection, and the cover is written to ``cover.snap``.

        Returns:
            rows written per table (see
            :meth:`~repro.storage.db.SQLiteCoverStore.write_index`).
        """
        written = self._open().write_index(index, self._base)
        self._base = index.collection.fork()
        self._save_cover(index.cover, index.epoch)
        self.fire("checkpointed")
        self.wal.reset()
        self._since_checkpoint = 0
        return written

    def _save_cover(self, cover: Cover, epoch: int) -> None:
        """Replace ``cover.snap``: written beside it and fsynced first,
        so a crash leaves the old file or the new one, never a torn one."""
        tmp = self.cover_path + ".tmp"
        with open(tmp, "wb") as fh:
            fh.write(_COVER_EPOCH.pack(epoch))
            dump_ranked_snapshot(fh, cover)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.cover_path)

    def _load_cover(self, epoch: int) -> Optional[Cover]:
        """``cover.snap``'s cover if it was written at ``epoch``."""
        try:
            with open(self.cover_path, "rb") as fh:
                header = fh.read(_COVER_EPOCH.size)
                if header != _COVER_EPOCH.pack(epoch):
                    return None
                return read_snapshot(fh, name=self.cover_path)
        except FileNotFoundError:
            return None

    def recover(self, *, backend: Optional[str] = None) -> HopiIndex:
        """Load the snapshot and replay newer WAL records onto it.

        Returns the index at the highest durably-logged epoch: the
        checkpointed collection and cover with the tail replayed
        through :func:`~repro.core.ops.apply_update_op`. Without a
        ``cover.snap`` of the checkpointed epoch the cover is the
        product build of the checkpointed collection. Records at or
        below the snapshot epoch (possible after a crash between the
        checkpoint commit and the WAL reset) are skipped — replay is
        idempotent. A fork of the loaded collection stays behind as the
        base, so the next checkpoint writes only the replayed rows;
        from a file an older version wrote (label tables beside the
        collection) the next checkpoint rewrites every row instead.
        ``backend`` is accepted and ignored: there is one label
        representation, but the benchmark under ``perf/`` still passes
        the argument.

        Raises:
            FileNotFoundError: no snapshot was initialised (see
                :meth:`exists`).
        """
        if not self.exists():
            raise FileNotFoundError(f"no initialised snapshot at {self.db_path}")
        db = self._open()
        index = db.load_index(self._load_cover(int(db._meta("epoch"))))
        base = None if db.stale() else index.collection.fork()
        for epoch, ops in self.wal.replay():
            if epoch <= index.epoch:
                continue
            for op in ops:
                apply_update_op(index, op)
            index.epoch = epoch
        self._base = base
        return index

    def close(self) -> None:
        self.wal.close()
        if self._db is not None:
            self._db.close()
            self._db = None
