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
* a checkpoint that fails inside its delta transaction rolls back: the
  old snapshot and the WAL both stay; a failed first checkpoint leaves
  no initialised store;
* without a ``cover.snap`` of the checkpointed epoch (a crash before it
  was replaced) recovery builds the checkpointed collection and replays
  the tail on it;
* a torn tail (partial final record) is truncated, never parsed.
"""

import os
import sqlite3
from contextlib import closing

import pytest
from harness import fresh_tables, stored_tables

from repro.core.cover import TwoHopCover
from repro.core.hopi import HopiIndex
from repro.core.ops import apply_update_op
from repro.service.service import QueryService, UpdateError
from repro.storage import db
from repro.storage.db import load_index
from repro.storage.snapshot import canonical_snapshot_bytes
from repro.storage.wal import DurableIndexStore, UpdateWAL
from repro.xmlmodel.generator import dblp_like


class WALCrash(RuntimeError):
    """Raised by a crash hook to simulate dying at an injection point."""


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

    def test_crash_at_checkpointed_after_a_delta(self, seeded):
        """The first checkpoint rewrites every row; later ones write
        deltas in place. A crash between a delta's commit and the WAL
        reset recovers the live epoch."""
        index, store = seeded
        store.checkpoint_interval = 2
        service = QueryService(index, durable_store=store)
        for tag in ("one", "two", "three"):  # "two" checkpoints a delta
            service.update(make_ops(index, tag))
        store.crash_hook = CrashAt("checkpointed")
        with pytest.raises(WALCrash):
            service.update(make_ops(index, "four"))
        store.crash_hook = None
        assert load_index(store.db_path).epoch == service.epoch
        assert store.wal.record_count() == 2  # the reset never ran

        recovered = DurableIndexStore(store.root).recover()
        assert recovered.epoch == service.epoch
        assert snap(recovered) == snap(service.index)

    def test_failure_inside_the_delta_keeps_snapshot_and_wal(
        self, seeded, monkeypatch
    ):
        """A delta that fails after writing its rows but before the
        commit rolls back: the old snapshot stays intact, the WAL is not
        reset, recovery lands on the live epoch, and the next
        checkpoint still writes a correct delta."""
        index, store = seeded
        store.checkpoint_interval = 2
        service = QueryService(index, durable_store=store)
        for tag in ("one", "two", "three"):
            service.update(make_ops(index, tag))
        before = stored_tables(store.db_path)
        real = db._write_collection_delta

        def failing(cur, new, old):
            written = real(cur, new, old)  # every row statement ran
            raise sqlite3.OperationalError(f"disk I/O error after {written}")

        monkeypatch.setattr(db, "_write_collection_delta", failing)
        with pytest.raises(sqlite3.OperationalError):
            service.update(make_ops(index, "four"))
        monkeypatch.undo()
        assert stored_tables(store.db_path) == before
        assert store.wal.record_count() == 2

        recovered = DurableIndexStore(store.root).recover()
        assert recovered.epoch == service.epoch
        assert snap(recovered) == snap(service.index)
        service.update(make_ops(index, "five"))  # retries the checkpoint
        assert store.wal.record_count() == 0
        assert stored_tables(store.db_path) == fresh_tables(service.index, store.root)

    def test_failure_inside_the_first_checkpoint_leaves_no_store(
        self, tmp_path, monkeypatch
    ):
        """``initialize`` creates ``index.db`` before it writes the seed
        index. If that write fails, the file holds no committed epoch:
        the store does not count as initialised, ``recover`` refuses
        instead of serving an empty collection, and a rerun seeds it."""
        index = build_index()
        root = str(tmp_path / "store")

        def failing(cur, new, old):
            raise sqlite3.OperationalError("disk I/O error")

        monkeypatch.setattr(db, "_write_collection_delta", failing)
        with pytest.raises(sqlite3.OperationalError):
            DurableIndexStore(root).initialize(index)
        monkeypatch.undo()
        store = DurableIndexStore(root)
        assert os.path.exists(store.db_path) and not store.exists()
        with pytest.raises(FileNotFoundError):
            store.recover()

        store.initialize(index)
        assert store.exists()
        assert stored_tables(store.db_path) == fresh_tables(index, root)
        service = QueryService(index, durable_store=store)
        service.update(make_ops(index, "after-seed"))
        recovered = DurableIndexStore(root).recover()
        assert recovered.epoch == service.epoch
        assert snap(recovered) == snap(service.index)

    def test_full_rewrite_after_deltas(self, seeded):
        """A rebuild shares no label row with the base, so its
        checkpoint rewrites every row of a delta-maintained file — here
        the fresh PLL cover is also shaped differently from the greedy
        ``recursive`` base."""
        index, store = seeded
        store.checkpoint_interval = 2
        service = QueryService(index, durable_store=store)
        for tag in ("a", "b", "c", "d", "e"):  # two deltas, one pending
            service.update(make_ops(index, tag))
        service.update([{"op": "rebuild"}])
        assert stored_tables(store.db_path) == fresh_tables(service.index, store.root)
        service.update(make_ops(index, "f"))

        recovered = DurableIndexStore(store.root).recover()
        assert recovered.epoch == service.epoch
        assert snap(recovered) == snap(service.index)

    def test_crash_before_the_cover_snapshot_rebuilds_the_cover(
        self, seeded, monkeypatch
    ):
        """A crash after a checkpoint's collection delta commits but
        before ``cover.snap`` is replaced leaves a cover of an older
        epoch beside it: recovery covers the checkpointed collection by
        the product build instead."""
        index, store = seeded
        store.checkpoint_interval = 2
        service = QueryService(index, durable_store=store)
        service.update(make_ops(index, "one"))

        def crash(cover, epoch):
            raise WALCrash("cover")

        monkeypatch.setattr(store, "_save_cover", crash)
        with pytest.raises(WALCrash):
            service.update(make_ops(index, "two"))  # the checkpoint
        monkeypatch.undo()
        assert load_index(store.db_path).epoch == service.epoch

        recovered = DurableIndexStore(store.root).recover()
        assert recovered.epoch == service.epoch
        assert snap(recovered) == snap(HopiIndex.build(service.index.collection))
        recovered.verify()

    def test_without_a_cover_snapshot_the_tail_replays_on_a_fresh_build(
        self, seeded
    ):
        """No ``cover.snap`` (a store an older version wrote): the
        recovered cover is the product build of the checkpointed
        collection with the WAL tail replayed on it."""
        index, store = seeded
        store.checkpoint_interval = 2
        service = QueryService(index, durable_store=store)
        for tag in ("one", "two"):  # "two" checkpoints
            service.update(make_ops(index, tag))
        checkpointed = service.index
        tail = [make_ops(index, tag) for tag in ("three", "four")]
        for ops in tail:
            service.update(ops)
        os.remove(store.cover_path)

        recovered = DurableIndexStore(store.root).recover()
        reference = HopiIndex.build(checkpointed.collection)
        for ops in tail:
            for op in ops:
                apply_update_op(reference, op)
        assert recovered.epoch == service.epoch
        assert snap(recovered) == snap(reference)
        recovered.verify()

    def test_ids_freed_by_a_checkpointed_delete_are_not_reused(self, seeded):
        """Deleting the document with the highest ids, checkpointing,
        then inserting: the live index allocates past the deleted ids,
        and a logged op naming the new element must find it after
        recovery too."""
        index, store = seeded
        store.checkpoint_interval = 1
        service = QueryService(index, durable_store=store)
        documents = index.collection.documents
        last = max(documents, key=lambda d: documents[d].root)
        service.update([{"op": "delete_document", "doc_id": last}])
        store.checkpoint_interval = 100
        service.update(make_ops(index, "after-delete"))
        new = max(service.index.collection.elements)
        service.update([{"op": "insert_element", "parent": new, "tag": "child"}])

        recovered = DurableIndexStore(store.root).recover()
        assert recovered.epoch == service.epoch
        assert snap(recovered) == snap(service.index)

    def test_rebuild_with_build_options_refuses_to_replay(self, seeded):
        """A logged ``rebuild`` that names build options (older servers
        accepted them) is refused on replay rather than replayed as a
        different build than the one acknowledged."""
        _, store = seeded
        store.wal.append(1, [{"op": "rebuild", "strategy": "recursive"}])
        with pytest.raises(UpdateError, match="takes no options"):
            DurableIndexStore(store.root).recover()

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

    def test_checkpoint_commits_durably_before_the_wal_reset(
        self, tmp_path, monkeypatch
    ):
        """The WAL reset must not reach disk before the snapshot that
        makes it redundant, or every epoch since the old snapshot is
        lost. At reset time the delta is committed — visible to a fresh
        connection — by a connection with ``synchronous=FULL``: in WAL
        mode the store's default ``NORMAL`` does not survive a power
        loss. Nothing replaces ``index.db`` underneath the open
        connection, whose ``index.db-wal`` would replay onto the new
        file."""
        index = build_index()
        store = DurableIndexStore(str(tmp_path / "s"))
        store.initialize(index)
        service = QueryService(index, durable_store=store)
        service.update(make_ops(index, "delta"))
        seen, replaced = [], []
        real_reset, real_replace = UpdateWAL.reset, os.replace

        def reset(wal):
            conn = store._db._conn
            (synchronous,) = conn.execute("PRAGMA synchronous").fetchone()
            with closing(sqlite3.connect(store.db_path)) as reader:
                (epoch,) = reader.execute(
                    "SELECT VALUE FROM META WHERE KEY = 'epoch'"
                ).fetchone()
            seen.append((synchronous, int(epoch), conn.in_transaction))
            real_reset(wal)

        def replace(src, dst):
            replaced.append(os.path.basename(dst))
            real_replace(src, dst)

        monkeypatch.setattr(UpdateWAL, "reset", reset)
        monkeypatch.setattr(os, "replace", replace)
        store.checkpoint(service.index)  # a delta
        service.update([{"op": "rebuild"}])
        store.checkpoint(service.index)  # every row rewritten
        full = 2  # PRAGMA synchronous: 0 OFF, 1 NORMAL, 2 FULL
        assert seen == [
            (full, service.epoch - 1, False), (full, service.epoch, False),
        ]
        assert "index.db" not in replaced
