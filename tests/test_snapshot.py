"""Tests for the CSR snapshot format."""

import hashlib
import io
from array import array
from pathlib import Path

import pytest

from cover_oracle import SetTwoHopCover
from repro.core.cover import DistanceTwoHopCover, TwoHopCover
from repro.core.hopi import HopiIndex
from repro.storage import load_snapshot, save_snapshot
from repro.storage.snapshot import (
    MAGIC,
    canonical_snapshot_bytes,
    dump_ranked_snapshot,
    read_snapshot,
    snapshot_to_bytes,
)
from repro.xmlmodel.generator import dblp_like


@pytest.fixture(scope="module")
def small_index():
    return HopiIndex.build(
        dblp_like(20, seed=9),
        strategy="recursive", partitioner="node_weight", partition_limit=40,
    )


def test_roundtrip_reachability(tmp_path, small_index):
    path = tmp_path / "cover.snap"
    written = save_snapshot(path, small_index.cover)
    assert written == path.stat().st_size > 0
    loaded = load_snapshot(path)
    assert isinstance(loaded, TwoHopCover)
    assert loaded.size == small_index.cover.size
    assert set(loaded.nodes) == set(small_index.cover.nodes)
    nodes = sorted(small_index.collection.elements)[:40]
    for u in nodes:
        assert loaded.descendants(u) == small_index.descendants(u)
        assert loaded.ancestors(u) == small_index.ancestors(u)
        assert loaded.connected_many(u, nodes) == small_index.connected_many(u, nodes)


def test_roundtrip_distance(tmp_path):
    index = HopiIndex.build(
        dblp_like(10, seed=9), distance=True,
        strategy="recursive", partitioner="node_weight", partition_limit=40,
    )
    path = tmp_path / "dist.snap"
    save_snapshot(path, index.cover)
    loaded = load_snapshot(path)
    assert isinstance(loaded, DistanceTwoHopCover)
    nodes = sorted(index.collection.elements)[:30]
    for u in nodes:
        for v in nodes:
            assert loaded.distance(u, v) == index.distance(u, v)


def test_snapshot_store_isolated_from_live_mutation(tmp_path):
    """A saved snapshot holds the cover as it was saved, even if the
    caller keeps mutating its live cover."""
    cover = TwoHopCover([1, 2, 5])
    cover.add_lout(1, 2)
    save_snapshot(tmp_path / "live.snap", cover)
    cover.add_lout(1, 9)
    cover.add_lin(5, 9)
    stored = load_snapshot(tmp_path / "live.snap")
    assert not stored.connected(1, 5)
    assert stored.size == 1


def test_save_rejects_set_covers_directly(tmp_path):
    """Snapshots are the serialised form of the one cover class; the
    oracle (or anything else cover-shaped) is refused."""
    with pytest.raises(TypeError):
        save_snapshot(tmp_path / "bad.snap", SetTwoHopCover([1]))
    assert not (tmp_path / "bad.snap").exists()


def test_save_rejects_non_integer_labels(tmp_path):
    """A cover's nodes are non-negative ``int`` element ids, so no
    snapshot can hold another label: every writer refuses ``"a"`` with
    ``TypeError`` and ``-1`` with ``ValueError`` and leaves the cover
    unchanged, and readers answer such a node as one the cover lacks."""
    cover = TwoHopCover([1, 2])
    cover.add_lout(1, 2)
    before = snapshot_to_bytes(cover)
    writers = (
        cover.add_node,
        lambda x: cover.add_nodes([3, x]),
        lambda x: cover.add_lout(1, x),
        lambda x: cover.add_lin(x, 2),
        lambda x: cover.set_lout(1, {2, x}),
        lambda x: cover.ranks([3, x], lambda missing: [1] * len(missing)),
    )
    for bad, error in (("a", TypeError), (-1, ValueError)):
        for write in writers:
            with pytest.raises(error):
                write(bad)
            assert cover.nodes == {1, 2} and len(cover._lin) == 3
            assert snapshot_to_bytes(cover) == before
        assert not cover.connected(bad, 2) and not cover.connected(1, bad)
        assert cover.lin_of(bad) == cover.descendants(bad) == set()
    save_snapshot(tmp_path / "ok.snap", cover)
    assert sorted(load_snapshot(tmp_path / "ok.snap").entries()) == [("out", 1, 2)]


#: A durable store's ``cover.snap`` (epoch, then a ranked snapshot)
#: written before the cover's tables were indexed by element id: a
#: ``dblp`` corpus of 6 documents (``repro generate dblp -n 6 --seed
#: 7``), then 12 ``rw`` update batches (``perf/ops.py``
#: ``UpdateStream(3, ...).rw_batches(12)``: document, element and edge
#: inserts and two document deletes). Its ``nodes`` section lists the
#: deleted documents' ids 120-131 too, with no rows.
RW_STORE_COVER = Path(__file__).parent / "data" / "rw-store-cover.snap"

#: what that writer's own loader read from the file
RW_STORE_CANONICAL_SHA256 = (
    "8d7d4a532eb0b17f29acb434f8c04ed4dd63759d3c73b8eddabbfe43801c48d2"
)
RW_STORE_RANKS = [
    840, 2, 2, 2, 6, 10, 12, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 11520,
    2, 2, 2, 4, 10, 8, 80, 80, 2, 2, 2, 2, 2, 2, 2, 2, 8288, 2, 2, 2, 6,
    10, 12, 222, 148, 80, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 12528, 2, 2,
    2, 4, 10, 8, 464, 148, 80, 232, 2, 2, 2, 2, 2, 2, 2, 2, 616, 2, 2,
    2, 8, 10, 12, 308, 308, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 616, 2,
    2, 2, 4, 10, 12, 616, 308, 80, 148, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2,
    2, 3, 2, 6, 2, 2, 3, 2, 6, 2, 2, 3, 2, 8, 2, 2, 2, 3, 2, 6, 2, 2,
]


def _read_store_cover(blob: bytes):
    fh = io.BytesIO(blob)
    fh.read(8)  # the epoch
    return read_snapshot(fh)


def test_a_store_cover_written_with_removed_ids_still_loads():
    """The stored cover loads with the same entries and ranks its
    writer's loader saw, and survives a save and load, which now list
    only the ids that are active or hold a row (the positions of the
    ids above the removed ones shift, and loading maps them back)."""
    cover = _read_store_cover(RW_STORE_COVER.read_bytes())
    nodes = sorted(cover.nodes)
    assert len(nodes) == 141 and nodes[-1] == 152
    assert set(range(120, 132)).isdisjoint(nodes)
    canonical = canonical_snapshot_bytes(cover)
    assert hashlib.sha256(canonical).hexdigest() == RW_STORE_CANONICAL_SHA256
    assert cover.ranks(nodes) == RW_STORE_RANKS
    buf = io.BytesIO()
    buf.write(bytes(8))
    dump_ranked_snapshot(buf, cover)
    again = _read_store_cover(buf.getvalue())
    assert canonical_snapshot_bytes(again) == canonical
    assert again.ranks(nodes) == RW_STORE_RANKS
    assert [again.connected_many(u, nodes) for u in nodes] == [
        cover.connected_many(u, nodes) for u in nodes
    ]


@pytest.mark.parametrize("nodes", [[1, 0, 2], [0, 2, 2], [-1, 0, 1]])
def test_load_rejects_a_nodes_section_out_of_order(tmp_path, nodes):
    """A ``nodes`` section must be strictly ascending and non-negative:
    a hand-permuted, repeating or negative one is refused."""
    cover = TwoHopCover([0, 1, 2])
    cover.add_lout(0, 1)
    cover.add_lin(2, 1)
    blob = snapshot_to_bytes(cover)
    head = len(MAGIC) + 4 + 9  # magic, flags, the section's header
    assert array("q", blob[head:head + 24]).tolist() == [0, 1, 2]
    path = tmp_path / "permuted.snap"
    path.write_bytes(blob[:head] + array("q", nodes).tobytes() + blob[head + 24:])
    with pytest.raises(ValueError):
        load_snapshot(path)


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "garbage.snap"
    path.write_bytes(b"not a snapshot at all")
    with pytest.raises(ValueError):
        load_snapshot(path)


def test_load_rejects_truncated_snapshot(tmp_path, small_index):
    """A partially written snapshot must fail loudly, not load as a
    silently corrupt cover."""
    path = tmp_path / "trunc.snap"
    save_snapshot(path, small_index.cover)
    blob = path.read_bytes()
    for cut in (4, 9, 17):  # aligned and misaligned truncations
        path.write_bytes(blob[:-cut])
        with pytest.raises(ValueError, match="truncated snapshot"):
            load_snapshot(path)


def test_failed_save_leaves_existing_snapshot_intact(tmp_path):
    """A validation error must not truncate a previously good snapshot."""
    from repro.storage.snapshot import load_snapshot

    path = tmp_path / "cover.snap"
    good = TwoHopCover([1, 2, 3])
    good.add_lout(1, 2)
    good.add_lin(3, 2)
    save_snapshot(path, good)

    with pytest.raises(TypeError):
        save_snapshot(path, SetTwoHopCover([1, 2]))  # not the cover class

    reloaded = load_snapshot(path)
    assert sorted(reloaded.entries()) == sorted(good.entries())


def test_snapshot_bytes_roundtrip_matches_file(tmp_path):
    """snapshot_to_bytes is the same encoding as the file."""
    cover = TwoHopCover([1, 2, 3])
    cover.add_lout(1, 2)
    cover.add_lin(3, 2)
    blob = snapshot_to_bytes(cover)
    path = tmp_path / "cover.snap"
    assert save_snapshot(path, cover) == len(blob)
    assert path.read_bytes() == blob
    assert sorted(load_snapshot(path).entries()) == sorted(cover.entries())
