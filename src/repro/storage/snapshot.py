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
        nodes      int64[]  the stored ids, strictly ascending: every
                            table slot, 0..n-1, so row p is id p
        active     int32[]  the active ids, ascending
        lin_ptr    int64[]  CSR offsets, len = nodes + 1
        lin_dat    int32[]  concatenated sorted Lin centers (ids)
        lout_ptr / lout_dat
        ilin_ptr / ilin_dat    backward index (center -> nodes)
        ilout_ptr / ilout_dat
        lin_dist   int32[]  (distance covers only, aligned with lin_dat)
        lout_dist  int32[]
    optionally one more section (:func:`dump_ranked_snapshot`):
        rank       int64[]  the stored vertex rank per id, 0 = none; may
                            be shorter than nodes (the rest have none)

A file written before rows sat at their ids lists only the ids that
are active or hold a row in ``nodes``; there a position is the stored
id every later section uses, and loading maps it to its id. A
``nodes`` section that is not strictly ascending and non-negative is
refused with ``ValueError``. The durable store
(:mod:`repro.storage.wal`) keeps its cover in one with the rank
section, so maintenance after a restart labels in the order
it would have used before; :func:`save_snapshot` and
:func:`snapshot_to_bytes` write none (their bytes are the labels
alone), and a snapshot without one loads as a cover that stores no
ranks. An index file holds no labels.
"""

from __future__ import annotations

import io
import struct
import sys
from array import array
from pathlib import Path
from typing import BinaryIO, Optional, Union

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


def _read_array(fh: BinaryIO, *, optional: bool = False) -> Optional[array]:
    """The next section; with ``optional``, None at the end of the
    stream instead of an error."""
    header = fh.read(9)
    if optional and not header:
        return None
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
    _dump_payload(fh, _payload(cover))


def dump_ranked_snapshot(fh: BinaryIO, cover: Cover) -> None:
    """:func:`dump_snapshot` followed by the rank section: the cover
    whole, as the durable store's ``cover.snap`` keeps it."""
    payload = _payload(cover)
    _dump_payload(fh, payload)
    _write_array(fh, payload["rank"])


def _payload(cover: Cover) -> dict:
    """``cover.to_csr()``, checked to be a cover's."""
    if not isinstance(cover, (TwoHopCover, DistanceTwoHopCover)):
        raise TypeError(
            f"snapshots hold repro.core.cover covers, not {type(cover).__name__}"
        )
    return cover.to_csr()


def _dump_payload(fh: BinaryIO, payload: dict) -> None:
    """Write every section of a checked payload but the rank section."""
    flags = _FLAG_DISTANCE if payload["distance"] else 0
    fh.write(MAGIC)
    fh.write(struct.pack("<I", flags))
    _write_array(fh, array("q", payload["nodes"]))
    _write_array(fh, payload["active"])
    for key in ("lin", "lout", "inv_lin", "inv_lout"):
        indptr, data = payload[key]
        _write_array(fh, indptr)
        _write_array(fh, data)
    if flags & _FLAG_DISTANCE:
        _write_array(fh, payload["lin_dist"])
        _write_array(fh, payload["lout_dist"])


def read_snapshot(fh: BinaryIO, *, name: str = "<stream>") -> Cover:
    """Read one CSR encoding from a stream into a cover: the rest of
    the stream, whose last section may be the rank section."""
    magic = fh.read(len(MAGIC))
    if magic != MAGIC:
        raise ValueError(f"{name}: not a HOPI CSR snapshot")
    (flags,) = struct.unpack("<I", fh.read(4))
    nodes = list(_read_array(fh))
    active = _read_array(fh)
    blocks = {}
    for key in ("lin", "lout", "inv_lin", "inv_lout"):
        indptr = _read_array(fh)
        data = _read_array(fh)
        blocks[key] = (indptr, data)
    payload = {"nodes": nodes, "active": active, **blocks}
    payload["distance"] = bool(flags & _FLAG_DISTANCE)
    if payload["distance"]:
        payload["lin_dist"] = _read_array(fh)
        payload["lout_dist"] = _read_array(fh)
    rank = _read_array(fh, optional=True)
    if rank is not None:
        payload["rank"] = rank
    factory = DistanceTwoHopCover if payload["distance"] else TwoHopCover
    return factory.from_csr(payload)


def save_snapshot(path: Union[str, Path], cover: Cover) -> int:
    """Write a cover to ``path``; returns bytes written.

    The encoding is fully serialised *before* the target is opened, so
    a validation error (not a cover) never truncates an existing
    snapshot file.
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

    Plain snapshots write every table slot, and a cover's slots and
    backward rows depend on its construction history (a removed id
    keeps an empty slot). Here the cover is re-represented from its
    universe and its entries alone, inserted in sorted order, so its
    slots run to the largest id they name and **any two covers with equal
    node universes and label-entry sets encode to identical bytes** —
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
