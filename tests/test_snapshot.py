"""Tests for the CSR snapshot format."""

import pytest

from cover_oracle import SetTwoHopCover
from repro.core.cover import DistanceTwoHopCover, TwoHopCover
from repro.core.hopi import HopiIndex
from repro.storage import load_snapshot, save_snapshot
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
    cover = TwoHopCover(["a", "b"])
    cover.add_lout("a", "b")
    with pytest.raises(TypeError):
        save_snapshot(tmp_path / "bad.snap", cover)


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
    from repro.storage.snapshot import snapshot_to_bytes

    cover = TwoHopCover([1, 2, 3])
    cover.add_lout(1, 2)
    cover.add_lin(3, 2)
    blob = snapshot_to_bytes(cover)
    path = tmp_path / "cover.snap"
    assert save_snapshot(path, cover) == len(blob)
    assert path.read_bytes() == blob
    assert sorted(load_snapshot(path).entries()) == sorted(cover.entries())
