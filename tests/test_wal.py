"""Durable update WAL: crash injection, replay parity, torn tails.

The recovery contract: whatever point the writer dies at, restarting
from the store converges to a well-defined epoch whose canonical
snapshot bytes equal a crash-free reference.

* killed after the WAL **append** (epoch never published): replay
  applies the logged record — redo semantics, the acknowledged-durable
  batch wins;
* killed after **publish** (checkpoint pending): replay lands on the
  exact published epoch;
* killed after **checkpoint** (WAL reset pending): replay skips the
  already-checkpointed records — idempotent;
* a torn tail (partial final record) is truncated, never parsed.
"""

import os
import sqlite3
from stat import S_ISDIR

import pytest

from repro.core.cover import TwoHopCover
from repro.core.hopi import HopiIndex
from repro.core.ops import apply_update_op
from repro.service.service import QueryService, UpdateError
from repro.storage.snapshot import canonical_snapshot_bytes
from repro.storage.wal import DurableIndexStore, UpdateWAL, WALCrash
from repro.xmlmodel.generator import dblp_like


def build_index():
    return HopiIndex.build(
        dblp_like(10, seed=5),
        strategy="recursive", partitioner="node_weight", partition_limit=60,
    )


def make_ops(index, tag):
    root = index.collection.documents[sorted(index.collection.documents)[0]].root
    return [{"op": "insert_element", "parent": root, "tag": tag}]


def snap(index):
    return canonical_snapshot_bytes(index.cover)


@pytest.fixture()
def seeded(tmp_path):
    index = build_index()
    store = DurableIndexStore(str(tmp_path / "store"), checkpoint_interval=100)
    store.initialize(index)
    return index, store


class TestUpdateWAL:
    def test_append_replay_roundtrip(self, tmp_path):
        wal = UpdateWAL(str(tmp_path / "u.wal"))
        wal.append(1, [{"op": "insert_element", "parent": 0, "tag": "a"}])
        wal.append(2, [{"op": "delete_edge", "source": 1, "target": 2}])
        records = list(wal.replay())
        assert records == [
            (1, [{"op": "insert_element", "parent": 0, "tag": "a"}]),
            (2, [{"op": "delete_edge", "source": 1, "target": 2}]),
        ]
        wal.reset()
        assert list(wal.replay()) == []

    def test_torn_tail_is_truncated_not_parsed(self, tmp_path):
        path = str(tmp_path / "u.wal")
        wal = UpdateWAL(path)
        wal.append(1, [{"op": "rebuild"}])
        wal.append(2, [{"op": "rebuild"}])
        wal.close()
        good_size = os.path.getsize(path)
        # simulate dying mid-append: half a header and garbage
        with open(path, "ab") as fh:
            fh.write(b"\x55\x00\x00")
        assert len(list(wal.replay())) == 2
        # the tail was cut back to the last intact record
        assert os.path.getsize(path) == good_size
        # ...and appending after recovery starts on a clean boundary
        wal.append(3, [{"op": "rebuild"}])
        assert [e for e, _ in wal.replay()] == [1, 2, 3]

    def test_corrupt_crc_stops_replay(self, tmp_path):
        path = str(tmp_path / "u.wal")
        wal = UpdateWAL(path)
        wal.append(1, [{"op": "rebuild"}])
        wal.append(2, [{"op": "rebuild"}])
        wal.close()
        with open(path, "r+b") as fh:
            fh.seek(-1, os.SEEK_END)
            last = fh.read(1)
            fh.seek(-1, os.SEEK_END)
            fh.write(bytes([last[0] ^ 0xFF]))
        assert [e for e, _ in wal.replay()] == [1]


class CrashAt:
    def __init__(self, point):
        self.point = point

    def __call__(self, point):
        if point == self.point:
            raise WALCrash(point)


class TestCrashRecovery:
    def reference(self, index, ops):
        ref = index.cow_copy()
        for op in ops:
            apply_update_op(ref, op)
        return ref

    def test_crash_after_append_replays_the_logged_batch(self, seeded):
        index, store = seeded
        service = QueryService(index, durable_store=store)
        service.update(make_ops(index, "landed"))
        ops = make_ops(index, "crashy")
        reference = self.reference(service.index, ops)

        store.crash_hook = CrashAt("appended")
        with pytest.raises(WALCrash):
            service.update(ops)
        # the live service never published the crashed batch
        assert snap(service.index) != snap(reference)

        recovered = DurableIndexStore(store.root).recover()
        # redo semantics: the batch was durably logged, so it wins
        assert snap(recovered) == snap(reference)
        assert recovered.epoch > service.epoch

    def test_crash_after_publish_recovers_the_published_epoch(self, seeded):
        index, store = seeded
        service = QueryService(index, durable_store=store)
        store.crash_hook = CrashAt("published")
        with pytest.raises(WALCrash):
            service.update(make_ops(index, "published-batch"))
        store.crash_hook = None
        live = service.index  # the epoch *did* publish before the crash

        recovered = DurableIndexStore(store.root).recover()
        assert recovered.epoch == service.epoch
        assert snap(recovered) == snap(live)

    def test_crash_after_checkpoint_skips_replayed_records(self, seeded):
        index, store = seeded
        store.checkpoint_interval = 1  # checkpoint on every batch
        service = QueryService(index, durable_store=store)
        store.crash_hook = CrashAt("checkpointed")
        with pytest.raises(WALCrash):
            service.update(make_ops(index, "checkpointed-batch"))
        store.crash_hook = None
        live = service.index

        # the crash hit between snapshot rename and WAL reset: the WAL
        # still holds the record the snapshot already contains
        assert store.wal.record_count() >= 1
        recovered = DurableIndexStore(store.root).recover()
        assert recovered.epoch == service.epoch
        assert snap(recovered) == snap(live)

    def test_multi_batch_recovery_parity(self, seeded):
        """Several batches, a failed one in the middle, then a crash:
        recovery converges to the exact canonical bytes of the live
        published epoch."""
        index, store = seeded
        service = QueryService(index, durable_store=store)
        service.update(make_ops(index, "one"))
        with pytest.raises(UpdateError):
            service.update([{"op": "delete_document", "doc_id": "absent"}])
        service.update(make_ops(index, "two"))
        service.update([
            {
                "op": "insert_document", "doc_id": "wal-doc",
                "root_tag": "article",
                "children": [{"ref": "a", "parent": "root", "tag": "author"}],
            },
        ])
        live = service.index

        recovered = DurableIndexStore(store.root).recover()
        assert recovered.epoch == service.epoch
        assert snap(recovered) == snap(live)
        assert sorted(recovered.collection.documents) == sorted(
            live.collection.documents
        )

    def test_recover_honours_backend_override(self, seeded):
        """The override is honoured by being accepted: snapshots
        written before the ``backend`` option was retired carry a
        ``META.backend`` row (``sets`` for every default build), and
        ``perf/`` still passes ``backend=``. Both are ignored —
        recovery returns the one cover class, bit-identical."""
        index, store = seeded
        service = QueryService(index, durable_store=store)
        service.update(make_ops(index, "converted"))
        store.checkpoint(service.index)
        service.update(make_ops(index, "replayed"))
        with sqlite3.connect(store.db_path) as conn:
            conn.execute(
                "INSERT OR REPLACE INTO META (KEY, VALUE) "
                "VALUES ('backend', 'sets')"
            )
        for kwargs in ({}, {"backend": "sets"}, {"backend": "vector"}):
            recovered = DurableIndexStore(store.root).recover(**kwargs)
            assert type(recovered.cover) is TwoHopCover
            assert recovered.epoch == service.epoch
            assert snap(recovered) == snap(service.index)


class TestCheckpointPolicy:
    def test_interval_checkpoint_resets_the_wal(self, tmp_path):
        index = build_index()
        store = DurableIndexStore(str(tmp_path / "s"), checkpoint_interval=2)
        store.initialize(index)
        service = QueryService(index, durable_store=store)
        service.update(make_ops(index, "a"))
        assert store.wal.record_count() == 1
        service.update(make_ops(index, "b"))  # hits the interval
        assert store.wal.record_count() == 0

    def test_checkpoint_fsyncs_the_directory_between_rename_and_reset(
        self, tmp_path, monkeypatch
    ):
        """Until the store directory is fsynced, a power loss may undo
        the snapshot rename; the WAL reset must not be on disk before
        it, or every epoch since the old snapshot is lost."""
        index = build_index()
        store = DurableIndexStore(str(tmp_path / "s"))
        root_inode = os.stat(store.root).st_ino
        events = []
        real_replace, real_fsync, real_reset = os.replace, os.fsync, UpdateWAL.reset

        def replace(src, dst):
            real_replace(src, dst)
            events.append(("replace", os.path.basename(dst)))

        def fsync(fd):
            real_fsync(fd)
            stat = os.fstat(fd)
            is_root = S_ISDIR(stat.st_mode) and stat.st_ino == root_inode
            events.append(("fsync", "store dir" if is_root else "file"))

        def reset(wal):
            events.append(("reset", None))
            real_reset(wal)

        monkeypatch.setattr(os, "replace", replace)
        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(UpdateWAL, "reset", reset)
        store.checkpoint(index)
        renamed = events.index(("replace", "index.db"))
        reset_at = events.index(("reset", None))
        assert renamed < reset_at
        assert ("fsync", "store dir") in events[renamed:reset_at], events

    def test_apply_forces_a_checkpoint(self, tmp_path):
        """Arbitrary mutators cannot be WAL-logged, so the durable
        store must be checkpointed immediately — recovery equals the
        published epoch with no replayable ops pending."""
        index = build_index()
        store = DurableIndexStore(str(tmp_path / "s"), checkpoint_interval=100)
        store.initialize(index)
        service = QueryService(index, durable_store=store)
        service.update(make_ops(index, "logged"))
        assert store.wal.record_count() == 1

        root = index.collection.documents[sorted(index.collection.documents)[0]].root
        service.apply(lambda shadow: shadow.insert_element(root, "via-apply"))
        assert store.wal.record_count() == 0  # forced checkpoint reset it
        recovered = DurableIndexStore(store.root).recover()
        assert recovered.epoch == service.epoch
        assert snap(recovered) == snap(service.index)
