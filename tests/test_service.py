"""Tests for the serving tier: caches, coalescing, epochs, HTTP.

The centrepiece is the torn-read property: N reader threads querying
while a maintenance sequence hot-swaps the index must always observe
answers consistent with exactly one epoch — verified against per-epoch
oracles, serving the cover and serving the oracle cover.
"""

import gc
import json
import sys
import threading
import time
import urllib.error
import urllib.request
import weakref

import pytest

import harness
from harness import start_in_thread
from repro.core.hopi import HopiIndex
from repro.query import engine as engine_module
from repro.query.engine import QueryEngine
from repro.service import service as service_module
from repro.service import (
    EpochHolder,
    LRUCache,
    QueryService,
    ServiceAPI,
    UpdateError,
)
from cover_oracle import index_in_state
from repro.storage.snapshot import canonical_snapshot_bytes
from repro.xmlmodel.generator import dblp_like


def build_index(state="arrays", n_docs=12, seed=17):
    """A fresh index in cover ``state`` (``sets``: the oracle twin)."""
    index = HopiIndex.build(
        dblp_like(n_docs, seed=seed),
        strategy="recursive", partitioner="node_weight", partition_limit=60,
    )
    return index_in_state(index, state)


@pytest.fixture(scope="module")
def arrays_index():
    return build_index("arrays")


def signature(results):
    return tuple((r.bindings, round(r.score, 9)) for r in results)


# ---------------------------------------------------------------------------
# LRU cache
# ---------------------------------------------------------------------------


class TestLRUCache:
    def test_put_get_and_counters(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.get("b", "fallback") == "fallback"
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate == 0.5

    def test_lru_eviction_order(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")          # refresh a; b is now least recent
        cache.put("c", 3)
        assert "b" not in cache
        assert "a" in cache and "c" in cache
        assert cache.evictions == 1

    def test_put_refreshes_recency(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 3)       # a re-put key is the most recent
        cache.put("c", 4)
        assert "b" not in cache
        assert cache.peek("a") == 3 and cache.evictions == 1

    def test_peek_does_not_count(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        assert cache.peek("a") == 1
        assert cache.peek("zzz") is None
        assert cache.hits == 0 and cache.misses == 0

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            LRUCache(0)


# ---------------------------------------------------------------------------
# in-flight coalescing
# ---------------------------------------------------------------------------


class TestCoalescingCache:
    """``LRUCache.get_or_compute``: the single-flight path the plan
    and result caches go through. The rendered-row memo uses ``get`` /
    ``put``."""

    @staticmethod
    def wait_for(condition):
        deadline = time.monotonic() + 5.0
        while not condition():
            assert time.monotonic() < deadline, "timed out"
            time.sleep(0.001)

    def test_concurrent_identical_computations_run_once(self):
        cache = LRUCache(8)
        computed = []
        sources = []
        lock = threading.Lock()

        def compute():
            # hold the leader until the seven others wait on it, so the
            # miss windows overlap deterministically
            self.wait_for(lambda: cache.coalesced == 7)
            assert cache.stats()["inflight"] == 1
            with lock:
                computed.append(1)
            return object()

        def request():
            value, source = cache.get_or_compute("key", compute)
            with lock:
                sources.append((value, source))

        threads = [threading.Thread(target=request) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10.0)
        assert len(computed) == 1, "compute must run exactly once"
        values = {id(v) for v, _ in sources}
        assert len(sources) == 8 and len(values) == 1
        kinds = sorted(s for _, s in sources)
        assert kinds == ["coalesced"] * 7 + ["computed"]
        # late callers hit the cache and never recompute
        value, source = cache.get_or_compute("key", compute)
        assert source == "hit" and value is sources[0][0]
        assert len(computed) == 1
        assert cache.get("key") is value
        stats = cache.stats()
        assert (stats["coalesced"], stats["inflight"]) == (7, 0)
        assert (stats["hits"], stats["misses"]) == (2, 8)

    def test_error_propagates_to_waiters_and_is_not_cached(self):
        cache = LRUCache(8)
        errors = []

        def boom():
            self.wait_for(lambda: cache.coalesced == 1)
            raise RuntimeError("compute failed")

        def request():
            try:
                cache.get_or_compute("key", boom)
            except RuntimeError as exc:
                errors.append(exc)

        threads = [threading.Thread(target=request) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10.0)
        # the leader raised, and the waiter got the same exception
        assert len(errors) == 2 and errors[0] is errors[1]
        assert "key" not in cache and cache.stats()["inflight"] == 0
        # the failure is not cached and does not wedge the key
        value, source = cache.get_or_compute("key", lambda: 7)
        assert (value, source) == (7, "computed")
        assert cache.get_or_compute("key", lambda: 8) == (7, "hit")


# ---------------------------------------------------------------------------
# epoch holder
# ---------------------------------------------------------------------------


def test_epoch_must_advance(arrays_index):
    service = QueryService(arrays_index.copy())
    holder = service._holder
    with pytest.raises(ValueError):
        holder.publish(holder.current)


def test_a_replaced_epoch_is_freed_by_reference_counting(arrays_index):
    """A ranked query leaves no reference cycle through its epoch, so
    a write that replaces the epoch frees the old index at once instead
    of at the next full GC pass — under a write stream, that is what
    bounds how many old generations stay resident."""
    service = QueryService(arrays_index.copy())
    replaced = weakref.ref(service.index)
    service.query("//article//author")
    gc.disable()
    try:
        root = min(d.root for d in service.index.collection.documents.values())
        service.update([{"op": "insert_element", "parent": root, "tag": "note"}])
        assert replaced() is None
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# QueryService read path
# ---------------------------------------------------------------------------


class TestServiceReads:
    def test_matches_direct_engine(self, arrays_index):
        service = QueryService(arrays_index.copy())
        engine = QueryEngine(arrays_index)
        response = service.query("//article//author")
        assert signature(response.results) == signature(
            engine.evaluate("//article//author")
        )
        assert response.epoch == 0
        assert response.source == "computed"

    def test_result_cache_and_limit_share_entry(self, arrays_index):
        service = QueryService(arrays_index.copy())
        first = service.query("//article//author")
        second = service.query("//article//author", limit=3)
        assert second.source == "hit"
        assert second.results == first.results[:3]

    def test_count_is_untruncated(self, arrays_index):
        service = QueryService(arrays_index.copy(), max_results=2)
        epoch, n = service.count("//article//author")
        assert epoch == 0
        full = QueryEngine(arrays_index, max_results=10**9)
        assert n == len(full.evaluate("//article//author"))
        assert n > 2  # the query() path would truncate; count must not

    def test_connected_and_distance(self, arrays_index):
        service = QueryService(arrays_index.copy())
        collection = arrays_index.collection
        root = sorted(collection.documents)[0]
        doc_root = collection.documents[root].root
        child = sorted(collection.documents[root].elements)[1]
        epoch, connected = service.connected(doc_root, child)
        assert epoch == 0 and connected
        with pytest.raises(TypeError):
            service.distance(doc_root, child)  # not distance-aware

    def test_probe_coalescing_visible_in_stats(self, arrays_index):
        service = QueryService(arrays_index.copy())
        service.query("//article//author")
        service.query("//article//cite")
        stats = service.stats()
        assert stats["probe_cache"]["hits"] + stats["probe_cache"]["misses"] > 0
        assert stats["requests"]["query"] == 2

    def test_backward_probes_hit_cache_on_second_run(self, arrays_index):
        """Backward (ancestors-side) probes land in the epoch engine's
        backward memo, so a second backward-heavy query in the same
        epoch reuses them instead of recomputing every ancestor
        intersection.

        What is pinned is reuse, not volume: the windowed second run
        may stop early and issue fewer probes than the first run
        missed, so it must add no miss and answer from the cache — not
        repeat the first run's probe count. The window is an offset:
        a ``limit`` would let the planner's window term seed this
        query at its head and probe forward instead."""
        service = QueryService(arrays_index.copy())
        # ``//*//cite`` seeds at the selective tail and extends backward
        service.query("//*//cite")
        first = service.stats()["probe_cache"]
        assert first["misses"] > 0 and first["hits"] == 0
        # a window clause changes the result-cache key, not the probes
        assert service.explain("//*//cite offset 1")[1]["order"][1][
            "direction"] == "backward"
        service.query("//*//cite offset 1")
        second = service.stats()["probe_cache"]
        assert second["hits"] > 0
        assert second["misses"] == first["misses"]


@pytest.fixture(scope="module")
def erratum_index():
    """``dblp_like`` with a rare ``erratum`` child on every tenth
    document root: the selective tail the backward plans seed at."""
    collection = dblp_like(40, seed=23)
    for doc_id in sorted(collection.documents)[::10]:
        collection.add_child(collection.documents[doc_id].root, "erratum")
    return HopiIndex.build(collection)


class TestProbeCacheBlocks:
    """The epoch engine's probe memo answers a block at a time: with a
    bound small enough to drop the memo inside one query, with the
    default one and on a fresh engine, every answer is the same."""

    FORWARD, BACKWARD = ["seed", "forward"], ["seed", "backward"]
    # each shape twice in a row, under a second window: a new
    # result-cache key that finds what is left of the first's probes
    SHAPES = [
        ("count", "//article//author", FORWARD),
        ("count", "//article//author limit 7", FORWARD),
        ("count", "//cite//title", BACKWARD),
        ("count", "//cite//title limit 7", BACKWARD),
        ("query", "//*//cite offset 1", BACKWARD),
        ("query", "//*//cite offset 2", BACKWARD),
        ("query", "//*//erratum limit 5", BACKWARD),
        ("query", "//*//erratum limit 6", BACKWARD),
    ]

    def test_an_evicting_cache_answers_like_the_default_and_no_probe(
        self, erratum_index, monkeypatch
    ):
        small = QueryService(erratum_index.copy())
        default = QueryService(erratum_index.copy())

        def evicting(call, path):
            """``call(path)`` with the memo bound at 16 answers."""
            with monkeypatch.context() as patch:
                patch.setattr(engine_module, "PROBE_MEMO_BOUND", 16)
                return call(path)

        for kind, path, order in self.SHAPES:
            mode = "count" if kind == "count" else "evaluate"
            plan = default.explain(path, mode=mode)[1]
            assert [op["direction"] for op in plan["order"]] == order, plan
            fresh = QueryEngine(erratum_index)
            if kind == "count":
                want = fresh.count(path)
                assert want > 0, path
                assert evicting(small.count, path)[1] == want
                assert default.count(path)[1] == want
            else:
                want = signature(fresh.evaluate(path))
                assert want, path
                assert signature(evicting(small.query, path).results) == want
                assert signature(default.query(path).results) == want
        evicting = small.stats()["probe_cache"]
        assert evicting["evictions"] > 0 and evicting["hits"] > 0
        assert default.stats()["probe_cache"]["evictions"] == 0

    def test_a_count_window_adds_hits_not_misses(self, erratum_index):
        """Two counts that differ only in ``limit`` are two result-cache
        entries but one set of probes: the second adds no miss and one
        hit per frontier element."""
        service = QueryService(erratum_index.copy())
        plan = service.explain("//article//author", mode="count")[1]
        assert [op["direction"] for op in plan["order"]] == self.FORWARD
        service.count("//article//author limit 5")
        first = service.stats()["probe_cache"]
        service.count("//article//author limit 6")
        second = service.stats()["probe_cache"]
        frontier = len(erratum_index.collection.tags()["article"])
        assert frontier > 0
        assert second["misses"] == first["misses"]
        assert second["hits"] - first["hits"] == frontier

    def test_readers_racing_a_dropping_memo_answer_alike(
        self, erratum_index, monkeypatch
    ):
        """Four readers (more than the cores) share one epoch's engine
        under a tiny switch interval, with the memo bound at 16 answers,
        so one reader drops the memo while others are still reading the
        dicts it held: every answer equals the single-threaded one, no
        reader raises and the counters lose no update."""
        calls = [(kind, path) for kind, path, _ in self.SHAPES]
        calls += [("count", "//article[//cite]//author")]

        def answer(engine, call):
            kind, path = call
            if kind == "count":
                return engine.count(path)
            return signature(engine.evaluate(path))

        want = {call: answer(QueryEngine(erratum_index), call) for call in calls}
        monkeypatch.setattr(engine_module, "PROBE_MEMO_BOUND", 16)
        engine = QueryService(erratum_index.copy())._holder.current.engine
        wrong, errors = [], []

        def reader(n):
            try:
                for i in range(6 * len(calls)):
                    call = calls[(n + i) % len(calls)]
                    if answer(engine, call) != want[call]:
                        wrong.append(call)
            except BaseException as exc:  # reported by the assertion below
                errors.append(exc)
                raise

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        threads = [threading.Thread(target=reader, args=(n,)) for n in range(4)]
        try:
            for thread in threads:
                thread.start()
        finally:
            for thread in threads:
                thread.join(timeout=60)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        assert not wrong, wrong
        # every miss is held or was dropped: no counter update was lost
        stats = engine.probe_stats()
        assert stats["evictions"] > 0
        assert stats["evictions"] + stats["size"] == stats["misses"]


# ---------------------------------------------------------------------------
# QueryService write path
# ---------------------------------------------------------------------------


class TestServiceUpdates:
    def test_update_swaps_epoch_and_invalidates(self, arrays_index):
        service = QueryService(arrays_index.copy())
        before = service.query("//article//author")
        doc = sorted(service.index.collection.documents)[0]
        report = service.update([{"op": "delete_document", "doc_id": doc}])
        assert report["epoch"] == 1
        assert report["applied"] == 1
        after = service.query("//article//author")
        assert after.epoch == 1
        assert after.source == "computed"  # new epoch, fresh entry
        assert len(after.results) < len(before.results)
        service.index.verify()

    def test_update_batch_is_atomic(self, arrays_index):
        service = QueryService(arrays_index.copy())
        doc = sorted(service.index.collection.documents)[0]
        root = service.index.collection.documents[doc].root
        with pytest.raises(UpdateError):
            service.update([
                {"op": "insert_element", "parent": root, "tag": "note"},
                {"op": "delete_document", "doc_id": "no-such-doc"},
            ])
        # nothing applied: epoch unchanged, element not inserted
        assert service.epoch == 0
        assert "note" not in service.index.collection.tags()

    def test_update_empty_batch_is_noop(self, arrays_index):
        service = QueryService(arrays_index.copy())
        assert service.update([]) == {"epoch": 0, "applied": 0, "reports": []}

    def test_unknown_and_malformed_ops(self, arrays_index):
        service = QueryService(arrays_index.copy())
        with pytest.raises(UpdateError):
            service.update([{"op": "florble"}])
        with pytest.raises(UpdateError):
            service.update(["not-a-dict"])

    def test_insert_document_compound_op(self, arrays_index):
        service = QueryService(arrays_index.copy())
        target_doc = sorted(service.index.collection.documents)[0]
        target = service.index.collection.documents[target_doc].root
        report = service.update([{
            "op": "insert_document",
            "doc_id": "svcdoc",
            "root_tag": "article",
            "children": [
                {"ref": "a", "tag": "author"},
                {"ref": "c", "parent": "a", "tag": "cite"},
            ],
            "links": [["c", target]],
        }])
        assert report["epoch"] == 1
        refs = report["reports"][0]["elements"]
        assert set(refs) == {"root", "a", "c"}
        # the link is live: the new cite reaches the cited document root
        _, connected = service.connected(refs["c"], target)
        assert connected
        service.index.verify()

    def test_insert_document_rejects_cross_document_parent(self, arrays_index):
        """A child parented into another document would be added to the
        collection but never integrated into the cover — must be a
        rejected batch, not silent index corruption."""
        service = QueryService(arrays_index.copy())
        other_doc = sorted(service.index.collection.documents)[0]
        foreign = service.index.collection.documents[other_doc].root
        with pytest.raises(UpdateError, match="not an element of the new"):
            service.update([{
                "op": "insert_document",
                "doc_id": "baddoc",
                "children": [{"parent": foreign, "tag": "author"}],
            }])
        assert service.epoch == 0
        assert "baddoc" not in service.index.collection.documents
        # every collection element is still covered
        for e in service.index.collection.elements:
            assert e in service.index.cover.nodes

    def test_insert_document_rejects_a_link_between_other_documents(self, tmp_path):
        """``insert_document`` integrates only the new document's own
        links: one joining two other documents would be acknowledged
        and never reach the cover, so the batch is refused — no epoch,
        no WAL record — and a link with an endpoint in the new
        document still goes through."""
        from repro.storage.wal import DurableIndexStore

        index = HopiIndex.build(dblp_like(20, seed=3))
        store = DurableIndexStore(str(tmp_path / "store"), checkpoint_interval=100)
        store.initialize(index)
        service = QueryService(index, durable_store=store)
        assert service.index.collection.elements[0].doc != (
            service.index.collection.elements[16].doc)
        op = {"op": "insert_document", "doc_id": "new", "children": [],
              "links": [[0, 16]]}
        with pytest.raises(UpdateError, match="no endpoint in the new document"):
            service.update([op])
        assert service.epoch == 0
        assert store.wal.record_count() == 0
        assert "new" not in service.index.collection.documents
        assert not service.index.connected(0, 16)
        report = service.update([dict(op, links=[[0, "root"], ["root", 16]])])
        assert (report["epoch"], store.wal.record_count()) == (1, 1)
        assert service.index.connected(0, 16)

    def test_negative_limit_rejected(self, arrays_index):
        service = QueryService(arrays_index.copy())
        with pytest.raises(ValueError, match="non-negative"):
            service.query("//article//author", limit=-1)

    def test_rebuild_op(self, arrays_index):
        service = QueryService(arrays_index.copy())
        report = service.update([{"op": "rebuild"}])
        assert report["epoch"] == 1
        assert report["reports"][0]["cover_size"] == service.index.cover.size
        assert service.index.stats.strategy == "pll"
        service.index.verify()

    @pytest.mark.parametrize("options", [
        {"strategy": "recursive", "partitioner": "node_weight",
         "partition_limit": 10, "workers": 8},
        {"workers": 8},
        {"distance": True},
    ])
    def test_rebuild_op_takes_no_build_options(
        self, arrays_index, monkeypatch, options
    ):
        """A ``rebuild`` op carrying build options is a 400: it must not
        swap the served cover for another build, nor start processes."""
        import multiprocessing.process

        def no_spawn(process):
            raise AssertionError(f"rebuild op spawned {process!r}")

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", no_spawn)
        service = QueryService(arrays_index.copy())
        stats = service.index.stats
        with pytest.raises(UpdateError, match="takes no options"):
            service.update([{"op": "rebuild", **options}])
        assert service.epoch == 0
        assert service.index.stats is stats

    def test_racing_batches_publish_one_epoch_each(
        self, arrays_index, monkeypatch
    ):
        """Three batches race for the write lock: the failing one leaves
        nothing behind, each successful one forks the epoch published
        before it once and publishes its own, strictly increasing epoch,
        and the replaced epoch is untouched."""
        service = QueryService(arrays_index.copy())
        published = service.index
        collection = published.collection
        roots = [collection.documents[d].root for d in sorted(collection.documents)]
        tags_before = {t: list(ids) for t, ids in collection.tags().items()}
        elements_before = dict(collection.elements)
        cover_before = canonical_snapshot_bytes(published.cover)

        forked = []
        cow_copy = HopiIndex.cow_copy

        def spy(index):
            forked.append(index)
            return cow_copy(index)

        monkeypatch.setattr(HopiIndex, "cow_copy", spy)
        publish = service._publish
        published_indexes = [published]

        def record_publish(state):
            published_indexes.append(state.index)
            publish(state)

        service._publish = record_publish
        batches = [
            [{"op": "insert_element", "parent": roots[0], "tag": "first"}],
            [{"op": "insert_element", "parent": roots[1], "tag": "doomed"},
             {"op": "delete_document", "doc_id": "no-such-doc"}],
            [{"op": "insert_element", "parent": roots[2], "tag": "third"}],
        ]
        outcomes = [None] * len(batches)

        def submit(i):
            try:
                outcomes[i] = service.update(batches[i])
            except UpdateError as exc:
                outcomes[i] = exc

        threads = [
            threading.Thread(target=submit, args=(i,), daemon=True)
            for i in range(len(batches))
        ]
        with service._write_lock:
            for thread in threads:
                thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()

        assert isinstance(outcomes[1], UpdateError)
        epochs = [outcomes[0]["epoch"], outcomes[2]["epoch"]]
        # one insert each: the two successful batches publish epochs 1, 2
        assert sorted(epochs) == [1, 2] == [
            index.epoch for index in published_indexes[1:]
        ]
        assert service.epoch == 2
        # every batch forks the epoch published when it took the lock
        assert len(forked) == len(batches)
        assert forked[0] is published
        assert all(
            any(f is index for index in published_indexes) for f in forked
        )

        live = service.index.collection
        tags = live.tags()
        assert "doomed" not in tags
        assert all(e.tag != "doomed" for e in live.elements.values())
        assert live.num_elements == len(elements_before) + 2
        (first,) = tags["first"]
        (third,) = tags["third"]
        assert live.elements[first].parent == roots[0]
        assert live.elements[third].parent == roots[2]

        assert collection.tags() == tags_before
        assert collection.elements == elements_before
        assert canonical_snapshot_bytes(published.cover) == cover_before

    def test_an_acknowledgement_never_waits_for_another_writer(
        self, arrays_index, monkeypatch
    ):
        """Writer B queues while writer A holds the lock; once A's ops
        finish, A's ``update`` returns even though B's commit is still
        blocked — A does not commit B's batch on its way out."""
        service = QueryService(arrays_index.copy())
        root = service.index.collection.documents[
            sorted(service.index.collection.documents)[0]
        ].root
        entered = {"a": threading.Event(), "b": threading.Event()}
        release = {"a": threading.Event(), "b": threading.Event()}
        b_waiting = threading.Event()
        apply_op = service_module.apply_update_op

        def gated_apply(index, op):
            tag = op["tag"]
            entered[tag].set()
            assert release[tag].wait(timeout=30)
            return apply_op(index, op)

        class WatchedLock:
            """The write lock, noting when writer B tries to take it."""

            def __init__(self, lock):
                self._lock = lock

            def acquire(self, blocking=True, timeout=-1):
                if threading.current_thread().name == "writer-b":
                    b_waiting.set()
                return self._lock.acquire(blocking, timeout)

            def release(self):
                self._lock.release()

            def __enter__(self):
                return self.acquire()

            def __exit__(self, *exc):
                self.release()

        monkeypatch.setattr(service_module, "apply_update_op", gated_apply)
        service._write_lock = WatchedLock(service._write_lock)
        outcomes = {}

        def writer(tag):
            outcomes[tag] = service.update(
                [{"op": "insert_element", "parent": root, "tag": tag}]
            )

        a = threading.Thread(
            target=writer, args=("a",), name="writer-a", daemon=True
        )
        b = threading.Thread(
            target=writer, args=("b",), name="writer-b", daemon=True
        )
        try:
            a.start()
            assert entered["a"].wait(timeout=30)  # A holds the lock
            b.start()
            assert b_waiting.wait(timeout=30)
            release["a"].set()
            a.join(timeout=30)
            assert not a.is_alive(), "A's ack waited for B's commit"
            assert outcomes["a"]["epoch"] == 1
            assert entered["b"].wait(timeout=30)
            assert b.is_alive() and "b" not in outcomes
        finally:
            release["a"].set()
            release["b"].set()
            a.join(timeout=30)
            b.join(timeout=30)
        assert outcomes["b"]["epoch"] == 2 == service.epoch


# ---------------------------------------------------------------------------
# the torn-read property: concurrent readers + writer, cover and oracle
# ---------------------------------------------------------------------------


def test_hot_swap_under_load_never_tears():
    """The harness's per-epoch oracle: every concurrent response during
    hot swaps must match the offline replay of the epoch it claims to
    come from."""
    service = QueryService(HopiIndex.build(dblp_like(12, seed=7)), max_results=100)
    paths = ["//article//author", "//article//cite//article"]
    result = harness.run_hot_swap_under_load(
        service, paths, threads=3, requests_per_thread=40, updates=3
    )
    assert result.errors == 0
    assert result.torn == 0
    assert result.updates == 3
    assert len(set(result.epochs_observed)) > 1


@pytest.mark.parametrize("state", ["sets", "arrays"])
def test_concurrent_readers_never_observe_torn_epochs(state):
    """N reader threads during a maintenance sequence: every answer must
    equal the oracle of exactly the epoch it reports — fully pre- or
    fully post-swap, never a mix."""
    index = build_index(state)
    paths = ["//article//author", "//article//cite", "//article//title"]
    collection = index.collection
    docs = sorted(collection.documents)
    roots = [collection.documents[d].root for d in docs]
    ops = [
        [{"op": "insert_element", "parent": roots[1], "tag": "note"}],
        [{"op": "delete_document", "doc_id": docs[2]}],
        [{"op": "insert_edge", "source": roots[3], "target": roots[4]}],
        [{"op": "delete_document", "doc_id": docs[5]}],
    ]

    # ---- per-epoch oracles, computed by replaying the sequence offline
    oracle = {}
    replica = index.copy()

    def snap(epoch):
        engine = QueryEngine(replica)
        oracle[epoch] = {p: signature(engine.evaluate(p)) for p in paths}

    snap(0)
    replay = QueryService(replica.copy())
    for i, batch in enumerate(ops):
        replay.update(batch)
        replica = replay.index
        snap(i + 1)

    # ---- live run: 4 readers at full speed, writer swapping in between
    service = QueryService(index)
    mismatches = []
    errors = []
    lock = threading.Lock()
    writer_done = threading.Event()
    n_readers = 4
    # the writer passes the barrier with the readers, so no update can
    # complete before every reader is live; readers also run a minimum
    # number of cycles so the overlap is real, not vacuous; one extra
    # prober hammers /v1/stats + /v1/healthz the whole time — the ops
    # counters must never tear mid-swap (negative ages, epoch jumps)
    start = threading.Barrier(n_readers + 2)
    min_iters = 10 * len(paths)

    def reader():
        start.wait(timeout=30)
        i = 0
        last_epoch = -1
        while (
            i < min_iters
            or not writer_done.is_set()
            or i % len(paths) != 0
        ):
            path = paths[i % len(paths)]
            i += 1
            try:
                response = service.query(path)
            except BaseException as exc:  # noqa: BLE001
                with lock:
                    errors.append(exc)
                return
            got = signature(response.results)
            expected = oracle[response.epoch][path]
            if got != expected:
                with lock:
                    mismatches.append((path, response.epoch))
            if response.epoch < last_epoch:
                with lock:
                    mismatches.append(("epoch went backwards", response.epoch))
            last_epoch = response.epoch
            if i > 20_000:  # safety net on slow machines
                break

    def prober():
        """stats() and healthz() under concurrent hot-swap: epoch and
        swap counters must stay monotone and the derived ages must
        never go negative — a torn read of ``_published_at`` vs the
        holder would show up here as a negative age or a swap count
        ahead of the epoch."""
        start.wait(timeout=30)
        last_epoch = -1
        last_swaps = -1
        while not writer_done.is_set():
            for payload in (service.stats(), service.healthz()):
                epoch = payload["epoch"]
                swaps = payload["swaps"]
                age = payload.get("epoch_age_seconds")
                uptime = payload.get("uptime_seconds")
                if not 0 <= epoch <= len(ops):
                    with lock:
                        mismatches.append(("probe epoch out of range", epoch))
                if not 0 <= swaps <= len(ops):
                    with lock:
                        mismatches.append(("probe swaps out of range", swaps))
                if epoch < last_epoch or swaps < last_swaps:
                    with lock:
                        mismatches.append(
                            ("probe counters went backwards", (epoch, swaps))
                        )
                if age is not None and age < 0:
                    with lock:
                        mismatches.append(("negative epoch age", age))
                if uptime is not None and uptime < 0:
                    with lock:
                        mismatches.append(("negative uptime", uptime))
                last_epoch = max(last_epoch, epoch)
                last_swaps = max(last_swaps, swaps)

    readers = [threading.Thread(target=reader) for _ in range(n_readers)]
    readers.append(threading.Thread(target=prober))
    for t in readers:
        t.start()
    start.wait(timeout=30)
    for batch in ops:
        service.update(batch)
    writer_done.set()
    for t in readers:
        t.join()

    assert not errors
    assert not mismatches
    assert service.epoch == len(ops)
    # final state agrees with the offline replay
    final_engine = QueryEngine(service.index)
    for path in paths:
        assert signature(final_engine.evaluate(path)) == oracle[len(ops)][path]


# ---------------------------------------------------------------------------
# HTTP front end
# ---------------------------------------------------------------------------


@pytest.fixture()
def http_service(arrays_index):
    service = QueryService(arrays_index.copy())
    with start_in_thread(service) as handle:
        yield service, handle.base_url


def get_json(url):
    with urllib.request.urlopen(url) as resp:
        return resp.status, json.loads(resp.read())


def post_json(url, payload):
    req = urllib.request.Request(
        url, data=json.dumps(payload).encode(), method="POST",
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(req) as resp:
        return resp.status, json.loads(resp.read())


class TestHTTP:
    def test_healthz_endpoint(self, http_service):
        _, base = http_service
        status, payload = get_json(f"{base}/v1/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["ready"] is True
        assert payload["epoch"] == 0
        assert payload["epoch_age_seconds"] >= 0
        assert "sharded" not in payload

    def test_query_endpoint(self, http_service):
        service, base = http_service
        status, data = get_json(f"{base}/v1/query?path=//article//author&limit=5")
        assert status == 200
        assert data["epoch"] == 0
        assert data["count"] == len(data["results"]) <= 5
        first = data["results"][0]
        assert {"score", "element", "doc", "tag", "bindings"} <= set(first)

    def test_count_connected_stats(self, http_service):
        service, base = http_service
        status, count = get_json(f"{base}/v1/count?path=//article//author")
        assert status == 200 and count["count"] > 0
        root = sorted(service.index.collection.documents)[0]
        eid = service.index.collection.documents[root].root
        status, conn = get_json(
            f"{base}/v1/connected?source={eid}&target={eid}"
        )
        assert status == 200 and conn["connected"] is True
        status, stats = get_json(f"{base}/v1/stats")
        assert status == 200
        assert stats["requests"].get("count", 0) == 1
        assert stats["epoch"] == 0

    def test_update_endpoint_hot_swaps(self, http_service):
        service, base = http_service
        root_doc = sorted(service.index.collection.documents)[0]
        root = service.index.collection.documents[root_doc].root
        status, report = post_json(
            f"{base}/v1/update",
            {"ops": [{"op": "insert_element", "parent": root, "tag": "httpnote"}]},
        )
        assert status == 200 and report["epoch"] == 1
        status, data = get_json(f"{base}/v1/query?path=//article//httpnote")
        assert status == 200 and data["epoch"] == 1
        # every article reaching the insertion point (via citation
        # links) matches; all matches target the one new element
        assert data["count"] >= 1
        assert {r["tag"] for r in data["results"]} == {"httpnote"}

    def test_error_statuses(self, http_service):
        _, base = http_service
        for url in [
            f"{base}/v1/query?path=%%%bogus",
            f"{base}/v1/query",                      # missing path param
            f"{base}/v1/query?path=//article&limit=-1",
            f"{base}/v1/connected?source=x&target=1",
            f"{base}/v1/distance?source=0&target=1",  # not distance-aware
        ]:
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(url)
            assert err.value.code == 400
            assert "error" in json.loads(err.value.read())
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(f"{base}/no-such-endpoint")
        assert err.value.code == 404
        with pytest.raises(urllib.error.HTTPError) as err:
            post_json(f"{base}/v1/update", {"ops": [{"op": "florble"}]})
        assert err.value.code == 400
        # valid JSON but not an object/list must be a 400, not a 500
        for bad_body in ["a string", 42, {"ops": "not-a-list"}]:
            with pytest.raises(urllib.error.HTTPError) as err:
                post_json(f"{base}/v1/update", bad_body)
            assert err.value.code == 400

    def test_malformed_update_is_400_and_epoch_unchanged(self, http_service):
        """Regression: malformed /update batches used to surface as raw
        500s; they must be structured 400s that never touch the index."""
        service, base = http_service
        epoch_before = service.epoch
        size_before = service.index.cover.size

        # body that is not valid JSON at all
        req = urllib.request.Request(
            f"{base}/v1/update", data=b'{"ops": [not json',
            method="POST", headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req)
        assert err.value.code == 400
        assert "error" in json.loads(err.value.read())

        # parseable JSON whose op shapes are malformed in various ways
        root_doc = sorted(service.index.collection.documents)[0]
        root = service.index.collection.documents[root_doc].root
        bad_batches = [
            {"ops": [{"op": "insert_element", "parent": None, "tag": "x"}]},
            {"ops": [{"op": "insert_document", "doc_id": "z9",
                      "children": [42]}]},          # child not an object
            {"ops": [{"op": "insert_edge", "source": "abc", "target": 1}]},
            {"ops": [41, 42]},                        # ops not objects
            # a valid op followed by a broken one: all-or-nothing means
            # even the valid prefix must be discarded
            {"ops": [{"op": "insert_element", "parent": root, "tag": "ok"},
                     {"op": "florble"}]},
        ]
        for batch in bad_batches:
            with pytest.raises(urllib.error.HTTPError) as err:
                post_json(f"{base}/v1/update", batch)
            assert err.value.code == 400, batch
            assert "error" in json.loads(err.value.read())

        status, stats = get_json(f"{base}/v1/stats")
        assert status == 200
        assert stats["epoch"] == epoch_before, "failed batch advanced the epoch"
        assert service.epoch == epoch_before
        assert service.index.cover.size == size_before
        assert service.stats()["swaps"] == 0

    @pytest.mark.parametrize("op, message", [
        ({"op": "insert_document", "doc_id": "new", "links": [["root", 999999]]},
         "insert_document link ['root', 999999]: no element 999999"),
        ({"op": "insert_element", "parent": 999999, "tag": "note"},
         "insert_element parent 999999: no element 999999"),
        ({"op": "insert_edge", "source": 0, "target": 999999},
         "insert_edge target 999999: no element 999999"),
        ({"op": "delete_edge", "source": 999999, "target": 0},
         "delete_edge source 999999: no element 999999"),
    ], ids=["insert_document", "insert_element", "insert_edge", "delete_edge"])
    def test_an_op_naming_no_element_is_a_400_naming_the_field(
        self, tmp_path, op, message
    ):
        """An op that names an element the collection lacks is refused
        with a message naming the op, the field and the id: no epoch,
        no WAL record."""
        from repro.storage.wal import DurableIndexStore

        index = HopiIndex.build(dblp_like(10, seed=3))
        store = DurableIndexStore(str(tmp_path / "store"), checkpoint_interval=100)
        store.initialize(index)
        service = QueryService(index, durable_store=store)
        with start_in_thread(service) as handle:
            with pytest.raises(urllib.error.HTTPError) as err:
                post_json(f"{handle.base_url}/v1/update", {"ops": [op]})
        assert err.value.code == 400
        assert json.loads(err.value.read())["error"]["message"] == message
        assert service.epoch == 0
        assert store.wal.record_count() == 0

    def test_concurrent_http_clients(self, http_service):
        service, base = http_service
        errors = []

        def client():
            try:
                for _ in range(10):
                    status, data = get_json(
                        f"{base}/v1/query?path=//article//cite&limit=3"
                    )
                    assert status == 200
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=client) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert service.stats()["result_cache"]["hits"] > 0


# ---------------------------------------------------------------------------
# CLI wiring
# ---------------------------------------------------------------------------


def test_cli_serve_smoke(tmp_path):
    """`repro serve --max-requests` serves real HTTP and exits."""
    from repro.cli import main

    corpus = tmp_path / "corpus"
    db = tmp_path / "hopi.db"
    assert main(["generate", "dblp", "-n", "6", "-o", str(corpus)]) == 0
    assert main(["build", str(corpus), "-o", str(db)]) == 0

    import socket

    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()

    result = {}

    def run():
        result["rc"] = main([
            "serve", str(db), "--port", str(port), "--max-requests", "1",
        ])

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    deadline = 5.0
    status = data = None
    import time as _time
    t0 = _time.time()
    while _time.time() - t0 < deadline:
        try:
            status, data = get_json(
                f"http://127.0.0.1:{port}/v1/query?path=//article//author&limit=2"
            )
            break
        except (urllib.error.URLError, ConnectionError):
            _time.sleep(0.05)
    thread.join(timeout=5)
    assert status == 200
    assert data["count"] >= 0
    assert result.get("rc") == 0


class TestV1HTTP:
    """The versioned surface: pagination, explain, structured errors,
    and nothing served outside ``/v1``."""

    def test_v1_query_pagination(self, http_service):
        _, base = http_service
        status, full = get_json(f"{base}/v1/query?path=//article//author")
        assert status == 200
        total = full["total"]
        assert total == full["count"] > 4
        assert full["next_offset"] is None
        assert full["truncated"] is False

        status, page = get_json(
            f"{base}/v1/query?path=//article//author&limit=3&offset=2"
        )
        assert status == 200
        assert (page["count"], page["offset"], page["limit"]) == (3, 2, 3)
        assert page["total"] == total
        assert page["next_offset"] == 5
        assert page["results"] == full["results"][2:5]

        status, tail = get_json(
            f"{base}/v1/query?path=//article//author&offset={total - 1}"
        )
        assert tail["count"] == 1 and tail["next_offset"] is None

    def test_v1_expression_window_interacts_with_pagination(self, http_service):
        _, base = http_service
        path = "//article//author%20limit%202"
        status, data = get_json(f"{base}/v1/query?path={path}")
        assert status == 200
        assert data["path"] == "//article//author limit 2"
        assert data["count"] == data["total"] == 2

    def test_v1_count_and_stats(self, http_service):
        service, base = http_service
        status, data = get_json(f"{base}/v1/count?path=//article//author")
        assert status == 200
        assert data["count"] == service.count("//article//author")[1]
        status, stats = get_json(f"{base}/v1/stats")
        assert status == 200
        assert stats["requests"] == {"count": 2}

    def test_v1_explain(self, http_service):
        _, base = http_service
        status, data = get_json(f"{base}/v1/explain?path=//*//author")
        assert status == 200
        plan = data["plan"]
        assert "backend" not in plan
        assert plan["execution"]["mode"] == "evaluate"
        assert {s["step"] for s in plan["steps"]} == {"//*", "//author"}
        assert all(s["estimate"] > 0 for s in plan["steps"])
        assert [op["op"] for op in plan["order"]] == ["scan", "descendant"]
        assert "order:" in plan["text"]

    def test_v1_explain_modes(self, http_service):
        """``mode=count`` shows the one-direction plan the counting path
        runs; any mode but ``evaluate`` / ``count`` — the retired
        ``stream`` / ``exists`` too — is a structured 400 naming both."""
        _, base = http_service
        status, data = get_json(
            f"{base}/v1/explain?path=//*//cite//title&mode=count"
        )
        assert status == 200
        plan = data["plan"]
        assert plan["execution"]["strategy"] == "frontier-aggregation"
        assert len({op["direction"] for op in plan["order"][1:]}) == 1
        assert plan["text"].splitlines()[-1].startswith("exec:  count")
        for mode in ("stream", "exists", "naive"):
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(
                    f"{base}/v1/explain?path=//article//author&mode={mode}"
                )
            assert err.value.code == 400, mode
            error = json.loads(err.value.read())["error"]
            assert error["code"] == "bad_request", mode
            assert "'evaluate'" in error["message"], mode
            assert "'count'" in error["message"], mode

    def test_v1_structured_errors(self, http_service):
        _, base = http_service
        for url in [
            f"{base}/v1/query?path=//article&limit=0",
            f"{base}/v1/query?path=//article&limit=-1",
            f"{base}/v1/query?path=//article&limit=abc",
            f"{base}/v1/query?path=//article&offset=-1",
            f"{base}/v1/query?path=%%%bogus",
            f"{base}/v1/connected?source=x&target=1",
        ]:
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(url)
            assert err.value.code == 400, url
            error = json.loads(err.value.read())["error"]
            assert error["code"] == "bad_request" and error["message"], url
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(f"{base}/v1/no-such")
        assert err.value.code == 404
        assert json.loads(err.value.read())["error"]["code"] == "not_found"

    def test_hostile_paths_are_bad_requests_not_internal_errors(
        self, arrays_index
    ):
        """Deep nesting used to parse and then blow the stack in
        ``str()``/``hash()`` (a 500), deeper nesting blew it inside the
        parser, and a 5 000-step path would recurse once per step in
        the ranked enumerator: all three are refused at parse time."""
        api = ServiceAPI(QueryService(arrays_index.copy()))
        for path in [
            "//a" + "[b" * 400 + "]" * 400,
            "//a" + "[b" * 2000 + "]" * 2000,
            "//a" * 5000,
        ]:
            for endpoint in ("/v1/query", "/v1/count", "/v1/explain"):
                status, payload = api.dispatch(endpoint, {"path": [path]}, None)
                assert status == 400, (endpoint, len(path))
                assert payload["error"]["code"] == "bad_request"
        # the caps leave room for any real query
        status, _ = api.dispatch(
            "/v1/query", {"path": ["//article[citations[cite]]//author"]}, None
        )
        assert status == 200

    def test_unversioned_routes_are_not_found(self, http_service):
        """Only ``/v1/<name>`` routes: the old un-versioned spellings
        answer a structured 404, never reach the service, and a POST to
        ``/update`` publishes nothing."""
        service, base = http_service
        root_doc = sorted(service.index.collection.documents)[0]
        root = service.index.collection.documents[root_doc].root
        requests = [
            urllib.request.Request(f"{base}/{route}")
            for route in ("query?path=//article//author&limit=2",
                          "count?path=//article//author", "stats",
                          f"connected?source={root}&target={root}",
                          "explain?path=//article", "healthz")
        ] + [urllib.request.Request(
            f"{base}/update", method="POST",
            data=json.dumps({"ops": [{"op": "insert_element",
                                      "parent": root, "tag": "x"}]}).encode(),
        )]
        for request in requests:
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(request)
            assert err.value.code == 404, request.full_url
            error = json.loads(err.value.read())["error"]
            assert error["code"] == "not_found", request.full_url
        assert service.epoch == 0
        assert service.stats()["requests"] == {}

    def test_v1_update_hot_swap_never_leaks_deleted_elements(self, http_service):
        """Satellite: a stale candidate memo must never leak deleted
        elements into /v1/query answers across a hot-swap (each epoch
        publishes a fresh engine with fresh memos)."""
        service, base = http_service
        path = "//article//author"
        status, before = get_json(f"{base}/v1/query?path={path}")
        assert status == 200 and before["results"]
        victim_doc = before["results"][0]["doc"]
        deleted = set(
            service.index.collection.documents[victim_doc].elements
        )
        status, report = post_json(
            f"{base}/v1/update",
            {"ops": [{"op": "delete_document", "doc_id": victim_doc}]},
        )
        assert status == 200 and report["epoch"] == before["epoch"] + 1

        status, after = get_json(f"{base}/v1/query?path={path}")
        assert after["epoch"] == report["epoch"]
        survivors = {
            e for r in after["results"] for e in r["bindings"]
        }
        assert not survivors & deleted
        assert after["total"] < before["total"]
        # the same holds through the service object (no HTTP cache quirks)
        response = service.query(path)
        assert response.epoch == report["epoch"]
        assert not {
            e for r in response.results for e in r.bindings
        } & deleted

    def test_truncated_flag_when_max_results_hit(self, arrays_index):
        """total is a lower bound once the ranked list hits max_results
        — the payload must say so instead of lying silently."""
        service = QueryService(arrays_index.copy(), max_results=3)
        response = service.query("//article//author")
        assert response.truncated is True
        assert response.total == 3
        _, exact = service.count("//article//author")
        assert exact > 3

        with start_in_thread(service) as handle:
            status, data = get_json(
                f"{handle.base_url}/v1/query?path=//article//author"
            )
        assert data["truncated"] is True and data["total"] == 3
