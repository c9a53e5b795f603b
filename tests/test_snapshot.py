"""Tests for the CSR snapshot format and its CoverStore."""

import pytest

from cover_oracle import SetTwoHopCover
from repro.core.cover import DistanceTwoHopCover, TwoHopCover
from repro.core.hopi import HopiIndex
from repro.storage import SnapshotCoverStore, load_snapshot, save_snapshot
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


def test_snapshot_store_queries(tmp_path, small_index):
    path = tmp_path / "store.snap"
    store = SnapshotCoverStore(path)
    store.save_cover(small_index.cover)
    assert store.cover_size() == small_index.cover.size
    nodes = sorted(small_index.collection.elements)[:20]
    for u in nodes:
        assert store.descendants(u) == small_index.descendants(u)
        for v in nodes:
            assert store.connected(u, v) == small_index.connected(u, v)
    with pytest.raises(TypeError):
        store.distance(nodes[0], nodes[1])


def test_snapshot_store_isolated_from_live_mutation(tmp_path):
    """After save_cover, the store answers from persisted state even if
    the caller keeps mutating its live cover."""
    cover = TwoHopCover([1, 2, 5])
    cover.add_lout(1, 2)
    store = SnapshotCoverStore(tmp_path / "live.snap")
    store.save_cover(cover)
    cover.add_lout(1, 9)
    cover.add_lin(5, 9)
    assert not store.connected(1, 5)
    fresh = SnapshotCoverStore(tmp_path / "live.snap")
    assert store.cover_size() == fresh.cover_size() == 1


def test_save_rejects_set_covers_directly(tmp_path):
    """Snapshots are the serialised form of the one cover class; the
    oracle (or anything else cover-shaped) is refused, by the store too."""
    with pytest.raises(TypeError):
        save_snapshot(tmp_path / "bad.snap", SetTwoHopCover([1]))
    with pytest.raises(TypeError):
        SnapshotCoverStore(tmp_path / "bad.snap").save_cover(SetTwoHopCover([1]))
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


def test_store_reload_picks_up_rewrites(tmp_path, small_index):
    """The hot-reload path: an offline rebuild replaces the file; the
    store re-reads it on reload() and serves the fresh cover."""
    path = tmp_path / "live.snap"
    store = SnapshotCoverStore(path)
    store.save_cover(small_index.cover)
    before = store.cover_size()

    rebuilt = small_index.copy().rebuild(strategy="unpartitioned")
    save_snapshot(path, rebuilt.cover)
    assert store.cover_size() == before  # stale until told to reload
    store.reload()
    assert store.cover_size() == rebuilt.cover.size


def test_store_reload_if_changed(tmp_path, small_index):
    import os

    path = tmp_path / "live.snap"
    store = SnapshotCoverStore(path)
    store.save_cover(small_index.cover)
    assert store.reload_if_changed() is False

    rebuilt = small_index.copy().rebuild(strategy="unpartitioned")
    save_snapshot(path, rebuilt.cover)
    # force a distinct mtime even on coarse-grained filesystems
    stat = path.stat()
    os.utime(path, (stat.st_atime, stat.st_mtime + 1))
    assert store.reload_if_changed() is True
    assert store.cover_size() == rebuilt.cover.size
    assert store.reload_if_changed() is False


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
    """snapshot_to_bytes/from_bytes is the same encoding as the file."""
    from repro.storage.snapshot import snapshot_from_bytes, snapshot_to_bytes

    cover = TwoHopCover([1, 2, 3])
    cover.add_lout(1, 2)
    cover.add_lin(3, 2)
    blob = snapshot_to_bytes(cover)
    path = tmp_path / "cover.snap"
    assert save_snapshot(path, cover) == len(blob)
    assert path.read_bytes() == blob
    assert sorted(snapshot_from_bytes(blob).entries()) == sorted(cover.entries())
