"""Compact CSR-style binary snapshots of covers.

The SQLite store keeps one row per label entry — ideal for the paper's
SQL query shapes, but (de)serialising a large cover costs one Python
tuple per row. A snapshot instead writes the cover exactly as it
seals in memory: a node-id table plus CSR blocks
(``indptr`` offsets + one flat, sorted data array) for ``Lin``,
``Lout`` and both backward indexes. Save and load move whole blocks
with ``array.tobytes`` / ``array.frombytes`` — zero per-row Python
work, and the loaded cover needs no index rebuilding.

Layout (all little-endian)::

    magic  b"HOPICSR1"
    flags  uint32 (bit 0: distance-aware)
    then a sequence of length-prefixed sections:
        nodes      int64[]  external element ids, interner order
        active     int32[]  internal ids of the active node universe
        lin_ptr    int64[]  CSR offsets, len = nodes + 1
        lin_dat    int32[]  concatenated sorted Lin center ids
        lout_ptr / lout_dat
        ilin_ptr / ilin_dat    backward index (center -> nodes)
        ilout_ptr / ilout_dat
        lin_dist   int32[]  (distance covers only, aligned with lin_dat)
        lout_dist  int32[]

Snapshots require integer node labels (element ids always are); covers
over exotic hashables belong in the SQLite or memory stores.

Beyond on-disk persistence the same encoding doubles as the **wire
format of the process-pool build** (:mod:`repro.core.pipeline`):
:func:`snapshot_to_bytes` / :func:`snapshot_from_bytes` run the dump
and load against an in-memory buffer, so a ``multiprocessing`` worker
can return its partition cover to the parent as one compact, picklable
``bytes`` blob instead of a deep object graph.
"""

from __future__ import annotations

import io
import struct
import sys
from array import array
from pathlib import Path
from typing import BinaryIO, List, Optional, Set, Union

from repro.core.cover import DistanceTwoHopCover, TwoHopCover
from repro.storage.base import CoverStore

MAGIC = b"HOPICSR1"
_FLAG_DISTANCE = 1

Cover = Union[TwoHopCover, DistanceTwoHopCover]


def _write_array(fh: BinaryIO, arr: array) -> None:
    if sys.byteorder == "big":  # pragma: no cover - exotic hosts
        arr = arr[:]
        arr.byteswap()
    fh.write(struct.pack("<cQ", arr.typecode.encode(), len(arr)))
    fh.write(arr.tobytes())


def _read_array(fh: BinaryIO) -> array:
    header = fh.read(9)
    if len(header) != 9:
        raise ValueError("truncated snapshot: section header missing")
    typecode, length = struct.unpack("<cQ", header)
    arr = array(typecode.decode())
    payload = fh.read(length * arr.itemsize)
    if len(payload) != length * arr.itemsize:
        raise ValueError(
            f"truncated snapshot: expected {length * arr.itemsize} bytes, "
            f"got {len(payload)}"
        )
    arr.frombytes(payload)
    if sys.byteorder == "big":  # pragma: no cover - exotic hosts
        arr.byteswap()
    return arr


def dump_snapshot(fh: BinaryIO, cover: Cover) -> None:
    """Write the CSR encoding of a cover to a stream."""
    if not isinstance(cover, (TwoHopCover, DistanceTwoHopCover)):
        raise TypeError(
            f"snapshots hold repro.core.cover covers, not {type(cover).__name__}"
        )
    payload = cover.to_csr()
    labels = payload["labels"]
    if not all(isinstance(x, int) for x in labels):
        raise TypeError("snapshot node labels must be integers (element ids)")
    flags = _FLAG_DISTANCE if payload["distance"] else 0
    fh.write(MAGIC)
    fh.write(struct.pack("<I", flags))
    _write_array(fh, array("q", labels))
    _write_array(fh, payload["active"])
    for key in ("lin", "lout", "inv_lin", "inv_lout"):
        indptr, data = payload[key]
        _write_array(fh, indptr)
        _write_array(fh, data)
    if flags & _FLAG_DISTANCE:
        _write_array(fh, payload["lin_dist"])
        _write_array(fh, payload["lout_dist"])


def read_snapshot(fh: BinaryIO, *, name: str = "<stream>") -> Cover:
    """Read one CSR encoding from a stream into a cover."""
    magic = fh.read(len(MAGIC))
    if magic != MAGIC:
        raise ValueError(f"{name}: not a HOPI CSR snapshot")
    (flags,) = struct.unpack("<I", fh.read(4))
    labels = list(_read_array(fh))
    active = _read_array(fh)
    blocks = {}
    for key in ("lin", "lout", "inv_lin", "inv_lout"):
        indptr = _read_array(fh)
        data = _read_array(fh)
        blocks[key] = (indptr, data)
    payload = {
        "labels": labels,
        "active": active,
        **blocks,
    }
    if flags & _FLAG_DISTANCE:
        payload["distance"] = True
        payload["lin_dist"] = _read_array(fh)
        payload["lout_dist"] = _read_array(fh)
        return DistanceTwoHopCover.from_csr(payload)
    payload["distance"] = False
    return TwoHopCover.from_csr(payload)


def save_snapshot(path: Union[str, Path], cover: Cover) -> int:
    """Write a cover to ``path``; returns bytes written.

    The encoding is fully serialised *before* the target is opened, so
    a validation error (not a cover, non-integer labels) never truncates
    an existing snapshot file.
    """
    data = snapshot_to_bytes(cover)
    path = Path(path)
    path.write_bytes(data)
    return len(data)


def load_snapshot(path: Union[str, Path]) -> Cover:
    """Load a snapshot back into a cover."""
    with open(path, "rb") as fh:
        return read_snapshot(fh, name=str(path))


def snapshot_to_bytes(cover: Cover) -> bytes:
    """The CSR encoding as one ``bytes`` blob.

    The process-pool build's wire format: workers encode their
    partition cover with this and ship the blob through the process
    pool's pickle channel — one contiguous buffer instead of thousands
    of small array objects.
    """
    buf = io.BytesIO()
    dump_snapshot(buf, cover)
    return buf.getvalue()


def snapshot_from_bytes(data: bytes) -> Cover:
    """Decode a :func:`snapshot_to_bytes` blob back into a cover."""
    return read_snapshot(io.BytesIO(data), name="<bytes>")


def canonical_snapshot_bytes(cover) -> bytes:
    """A byte-deterministic snapshot encoding of any cover.

    Plain snapshots serialise the cover's interner order, which depends
    on construction history (union order, maintenance). Here the cover
    is re-represented with nodes interned in sorted order and entries
    inserted in sorted order, so **any two covers with equal node
    universes and label-entry sets encode to identical bytes** —
    regardless of executor or worker count (and for the test oracle
    too: only ``nodes`` / ``entries()`` are read). The equivalence test
    suite and the CI parallel-build-smoke job rely on this to diff
    whole builds with one byte comparison.
    """
    factory = DistanceTwoHopCover if cover.is_distance_aware else TwoHopCover
    fresh = factory(sorted(cover.nodes))
    if cover.is_distance_aware:
        for kind, node, center, dist in sorted(cover.entries()):
            add = fresh.add_lin if kind == "in" else fresh.add_lout
            add(node, center, dist)
    else:
        for kind, node, center in sorted(cover.entries()):
            add = fresh.add_lin if kind == "in" else fresh.add_lout
            add(node, center)
    return snapshot_to_bytes(fresh)


class SnapshotCoverStore(CoverStore):
    """A :class:`CoverStore` over a CSR snapshot file.

    Queries are answered by the materialised cover (loaded lazily on
    first use); :meth:`save_cover` rewrites the file.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._cover: Optional[Cover] = None
        self._loaded_mtime_ns: Optional[int] = None

    def _loaded(self) -> Cover:
        if self._cover is None:
            # stat *before* reading: if the file is rewritten while we
            # load, the recorded mtime predates the rewrite and the next
            # reload_if_changed() picks the new version up (stale-safe)
            mtime_ns = self.path.stat().st_mtime_ns
            self._cover = load_snapshot(self.path)
            self._loaded_mtime_ns = mtime_ns
        return self._cover

    def reload(self) -> Cover:
        """Drop the cached cover and re-read the file.

        The store half of the service layer's hot-reload path
        (``QueryService.reload_cover`` accepts a store and calls this):
        an index rebuilt offline (e.g. after cover-quality degradation,
        Section 6's "occasional rebuilds") is picked up without
        restarting the process — the service loads the fresh cover into
        a shadow epoch and hot-swaps it under live queries.
        """
        self._cover = None
        return self._loaded()

    def reload_if_changed(self) -> bool:
        """Reload when the file changed since it was last read.

        Returns True when a fresh cover was loaded. Cheap enough to poll
        from a maintenance thread (one ``stat`` per call).
        """
        mtime_ns = self.path.stat().st_mtime_ns
        if self._cover is not None and mtime_ns == self._loaded_mtime_ns:
            return False
        self.reload()
        return True

    def save_cover(self, cover) -> None:
        save_snapshot(self.path, cover)
        # cache a private copy: the caller may keep mutating its live
        # cover, and the store must keep answering from persisted state
        self._cover = cover.copy()
        self._loaded_mtime_ns = self.path.stat().st_mtime_ns

    def load_cover(self) -> Cover:
        return self._loaded()

    def connected(self, u: int, v: int) -> bool:
        return self._loaded().connected(u, v)

    def connected_many(self, u: int, candidates) -> List[bool]:
        return self._loaded().connected_many(u, candidates)

    def distance(self, u: int, v: int) -> Optional[int]:
        cover = self._loaded()
        if not cover.is_distance_aware:
            raise TypeError("store does not hold a distance-aware cover")
        return cover.distance(u, v)

    def descendants(self, u: int) -> Set[int]:
        return self._loaded().descendants(u)

    def ancestors(self, v: int) -> Set[int]:
        return self._loaded().ancestors(v)

    def cover_size(self) -> int:
        return self._loaded().size
