"""Compact CSR-style binary snapshots of covers.

A snapshot writes a cover's tables as packed blocks: a node-id table
plus CSR blocks (``indptr`` offsets + one flat, sorted data array) for
``Lin``, ``Lout`` and both backward indexes. Save and load move whole blocks
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

Snapshots require integer node labels (element ids always are). The
durable store (:mod:`repro.storage.wal`) keeps its cover in one; an
index file holds no labels.
"""

from __future__ import annotations

import io
import struct
import sys
from array import array
from pathlib import Path
from typing import BinaryIO, Union

from repro.core.cover import DistanceTwoHopCover, TwoHopCover

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
    """The CSR encoding as one ``bytes`` blob (what
    :func:`save_snapshot` writes)."""
    buf = io.BytesIO()
    dump_snapshot(buf, cover)
    return buf.getvalue()


def canonical_snapshot_bytes(cover) -> bytes:
    """A byte-deterministic snapshot encoding of any cover.

    Plain snapshots serialise the cover's interner order, which depends
    on construction history (union order, maintenance). Here the cover
    is re-represented with nodes interned in sorted order and entries
    inserted in sorted order, so **any two covers with equal node
    universes and label-entry sets encode to identical bytes** —
    regardless of how they were built (and for the test oracle too:
    only ``nodes`` / ``entries()`` are read). The test suites rely on
    this to diff whole covers with one byte comparison.
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
