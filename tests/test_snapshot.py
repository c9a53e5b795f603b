"""Tests for the CSR snapshot format."""

import hashlib
import io
from array import array
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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

#: what the positional loader read from the file: the SHA-256 of
#: ``repr((sorted(cover.nodes), sorted(cover.entries())))``, which no
#: snapshot layout enters
RW_STORE_CONTENT_SHA256 = (
    "c7f489a7314be854e7283d39439394c9b6cb32577f534d81c636c8eeb8f3d720"
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


def _content_sha256(cover) -> str:
    return hashlib.sha256(
        repr((sorted(cover.nodes), sorted(cover.entries()))).encode()
    ).hexdigest()


def test_a_store_cover_written_with_removed_ids_still_loads():
    """The stored cover loads with the same entries and ranks the
    positional loader saw, and survives a save and load, which now
    write a row per slot, the removed ids' empty ones included."""
    cover = _read_store_cover(RW_STORE_COVER.read_bytes())
    nodes = sorted(cover.nodes)
    assert len(nodes) == 141 and nodes[-1] == 152
    assert set(range(120, 132)).isdisjoint(nodes)
    assert _content_sha256(cover) == RW_STORE_CONTENT_SHA256
    canonical = canonical_snapshot_bytes(cover)
    assert cover.ranks(nodes) == RW_STORE_RANKS
    buf = io.BytesIO()
    buf.write(bytes(8))
    dump_ranked_snapshot(buf, cover)
    assert cover.to_csr()["nodes"] == list(range(153))
    again = _read_store_cover(buf.getvalue())
    assert canonical_snapshot_bytes(again) == canonical
    assert _content_sha256(again) == RW_STORE_CONTENT_SHA256
    assert again.ranks(nodes) == RW_STORE_RANKS
    assert [again.connected_many(u, nodes) for u in nodes] == [
        cover.connected_many(u, nodes) for u in nodes
    ]


_GAPPED_BASES = {}


def _gapped_base(distance: bool) -> HopiIndex:
    """A small index, built once per flavour."""
    if distance not in _GAPPED_BASES:
        _GAPPED_BASES[distance] = HopiIndex.build(
            dblp_like(8, seed=5), distance=distance
        )
    return _GAPPED_BASES[distance]


def _positional_payload(cover) -> dict:
    """``cover.to_csr()`` in the layout written before rows sat at their
    ids: ``nodes`` lists only the ids that are active or hold a row,
    and the rows, centers, ``active`` and ``rank`` go by position in
    it (``rank`` stops where the rank table does)."""
    tables = ("lin", "lout", "inv_lin", "inv_lout")
    held = set(cover.nodes)
    for name in tables:
        held.update(x for x, row in enumerate(getattr(cover, f"_{name}")) if row)
    ids = sorted(held)
    pos = {x: p for p, x in enumerate(ids)}

    def pack(table, values):
        indptr, data = array("q", [0]), array("i")
        for x in ids:
            data.extend(map(values, table[x] or ()))
            indptr.append(len(data))
        return indptr, data

    payload = {
        "distance": cover.is_distance_aware,
        "nodes": ids,
        "active": array("i", sorted(map(pos.__getitem__, cover.nodes))),
        "rank": array("q", [cover._rank[x] for x in ids if x < len(cover._rank)]),
    }
    for name in tables:
        payload[name] = pack(getattr(cover, f"_{name}"), pos.__getitem__)
    if cover.is_distance_aware:
        for name in ("lin", "lout"):
            payload[f"{name}_dist"] = pack(getattr(cover, f"_{name}_dist"), int)[1]
    return payload


@pytest.mark.parametrize("distance", [False, True], ids=["reach", "distance"])
@settings(
    max_examples=12, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(picks=st.lists(st.integers(0, 7), min_size=1, max_size=3, unique=True))
def test_a_cover_with_gaps_is_written_in_its_id_space(distance, picks):
    """After document deletes, separating or not, a snapshot writes one
    row per table slot (``nodes`` is ``0..n-1``) and loads to the same
    universe, entries and ranks (a removed id's included), and the same
    cover written in the positional layout of earlier snapshots loads
    to the same universe, entries and active ranks."""
    index = _gapped_base(distance).copy()
    docs = sorted(index.collection.documents)
    for pick in picks:
        index.delete_document(docs[pick])
    cover = index.cover
    slots = range(len(cover._lin))
    payload = cover.to_csr()
    assert payload["nodes"] == list(slots)
    canonical = canonical_snapshot_bytes(cover)
    nodes = sorted(cover.nodes)
    back = type(cover).from_csr(payload)
    old = type(cover).from_csr(_positional_payload(cover))
    for loaded, ranked in ((back, slots), (old, nodes)):
        assert canonical_snapshot_bytes(loaded) == canonical
        assert loaded.nodes == cover.nodes
        assert loaded.ranks(ranked) == cover.ranks(ranked)


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
