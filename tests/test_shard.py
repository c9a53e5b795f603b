"""Sharded serving: the scatter-gather router must be bit-identical.

The differential matrix pins the ISSUE's core acceptance criterion:
`/v1/query` answers (results, scores, ``total``, pagination), counts,
``connected``/``distance`` and update semantics through a
:class:`ShardRouter` are **bit-identical** to single-process serving —
on a DBLP-like and a linked-INEX-like collection, for the in-process
and RPC shard executors, at 1/2/4 shards.
"""

import json
import random
import urllib.error
import urllib.request

import pytest

import harness
from cover_oracle import oracle_index
from repro.core.hopi import HopiIndex
from repro.core.rpc import start_worker_thread
from repro.service import (
    QueryService,
    ShardRouter,
    ShardUnavailableError,
    shard_of,
    start_in_thread,
)
from repro.service.shard import ShardRegistry, derive_shard_views, restrict_cover
from repro.xmlmodel.generator import dblp_like, inex_like


def linked_inex(n_docs=6, seed=11):
    """A small INEX-like collection with cross-document citation links
    (deep elements → other documents' roots), so descendant steps cross
    shard boundaries."""
    collection = inex_like(n_docs, seed=seed, elements_per_doc=60)
    rng = random.Random(seed)
    docs = sorted(collection.documents)
    by_doc = {d: [] for d in docs}
    for eid in sorted(collection.elements):
        by_doc[collection.elements[eid].doc].append(eid)
    for i, doc in enumerate(docs):
        if i == 0:
            continue
        members = by_doc[doc]
        for _ in range(3):
            source = members[rng.randrange(len(members) // 2, len(members))]
            target_doc = docs[rng.randrange(0, i)]
            collection.add_link(
                source, collection.documents[target_doc].root
            )
    return collection


DBLP_PATHS = [
    "//article//author",
    "//article//cite",
    "//article[keywords]//cite",
    "//article//cite//article",
    "//article//cite//article//author",
    "//article//author limit 4 offset 1",
    "//authors//author limit 3",
]

INEX_PATHS = [
    "//article//p",
    "//sec//st",
    "//article[fm]//ss",
    "//sec//article",
    "//sec//article//title",
    "//article//p limit 5 offset 2",
]


def make_collection(kind):
    if kind == "dblp":
        return dblp_like(16, seed=3)
    return linked_inex()


def paths_for(kind):
    return DBLP_PATHS if kind == "dblp" else INEX_PATHS


def signature(response):
    return (
        [(r.score, r.bindings) for r in response.results],
        response.total,
        response.offset,
        response.truncated,
        response.epoch,
    )


def assert_query_parity(single, router, paths):
    for path in paths:
        for kwargs in ({}, {"limit": 3}, {"limit": 5, "offset": 2},
                       {"offset": 1}):
            a = single.query(path, **kwargs)
            b = router.query(path, **kwargs)
            assert signature(a) == signature(b), (path, kwargs)
        assert single.count(path) == router.count(path), path


# ---------------------------------------------------------------------------
# differential matrix: collections x shard counts x executors
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["dblp", "inex"])
@pytest.mark.parametrize("shards", [1, 2, 4])
def test_local_router_is_bit_identical(kind, shards):
    collection = make_collection(kind)
    index = HopiIndex.build(collection)
    single = QueryService(index.copy(), max_results=40)
    with ShardRouter(index.copy(), shards, max_results=40) as router:
        assert_query_parity(single, router, paths_for(kind))


@pytest.mark.parametrize("kind", ["dblp", "inex"])
def test_rpc_router_is_bit_identical(kind):
    collection = make_collection(kind)
    index = HopiIndex.build(collection)
    single = QueryService(index.copy(), max_results=40)
    s1, a1 = start_worker_thread()
    s2, a2 = start_worker_thread()
    try:
        # 4 shards over 2 workers: two shards share one worker process
        with ShardRouter(index.copy(), 4, workers=[a1, a2],
                         max_results=40) as router:
            assert router.executor == "rpc"
            assert_query_parity(single, router, paths_for(kind))
    finally:
        for server in (s1, s2):
            server.shutdown()
            server.server_close()


@pytest.mark.parametrize("shards", [2, 4])
def test_connected_and_distance_parity(shards):
    collection = dblp_like(16, seed=3)
    index = HopiIndex.build(collection, distance=True)
    single = QueryService(index.copy())
    rng = random.Random(9)
    elements = sorted(collection.elements)
    with ShardRouter(index.copy(), shards) as router:
        pairs = [(rng.choice(elements), rng.choice(elements))
                 for _ in range(60)]
        # unknown endpoints must behave like single-process serving too
        pairs += [(elements[0], 10 ** 6)]
        for u, v in pairs:
            assert single.connected(u, v) == router.connected(u, v), (u, v)
            assert single.distance(u, v) == router.distance(u, v), (u, v)


def test_sets_backend_router_parity():
    """The sharded cover against an unsharded service that answers
    from the oracle's reading of the same label entries."""
    collection = dblp_like(10, seed=5)
    index = HopiIndex.build(collection)
    single = QueryService(oracle_index(index), max_results=30)
    with ShardRouter(index.copy(), 3, max_results=30) as router:
        assert_query_parity(single, router, DBLP_PATHS[:4])


# ---------------------------------------------------------------------------
# updates: generations, rolling swap, parity after mutation
# ---------------------------------------------------------------------------


UPDATE_OPS = [
    {"op": "insert_element", "parent": 0, "tag": "note"},
    {"op": "insert_document", "doc_id": "fresh", "root_tag": "article",
     "children": [{"ref": "a", "tag": "authors"},
                  {"ref": "b", "parent": "a", "tag": "author"}],
     "links": []},
    {"op": "delete_document", "doc_id": "dblp3"},
]


def test_update_parity_and_generations():
    collection = dblp_like(16, seed=3)
    index = HopiIndex.build(collection)
    single = QueryService(index.copy(), max_results=40)
    with ShardRouter(index.copy(), 3, max_results=40) as router:
        ra = single.update([dict(op) for op in UPDATE_OPS])
        rb = router.update([dict(op) for op in UPDATE_OPS])
        assert ra["epoch"] == rb["epoch"]
        assert ra["applied"] == rb["applied"]
        assert router.epoch == single.epoch
        assert_query_parity(single, router, DBLP_PATHS)


def test_update_failure_is_all_or_nothing():
    collection = dblp_like(8, seed=1)
    index = HopiIndex.build(collection)
    with ShardRouter(index, 2) as router:
        before = router.epoch
        baseline = signature(router.query("//article//author"))
        from repro.service import UpdateError

        with pytest.raises(UpdateError):
            router.update([
                {"op": "insert_element", "parent": 0, "tag": "note"},
                {"op": "delete_document", "doc_id": "missing-doc"},
            ])
        assert router.epoch == before
        assert signature(router.query("//article//author")) == baseline


def test_rolling_swap_never_tears():
    """The per-epoch oracle, against the router: every concurrent
    response during rolling generation swaps must match the offline
    replay of the epoch it claims to come from."""
    collection = dblp_like(12, seed=7)
    index = HopiIndex.build(collection)
    with ShardRouter(index, 3, max_results=100) as router:
        paths = ["//article//author", "//article//cite//article"]
        result = harness.run_hot_swap_under_load(
            router, paths, threads=3, requests_per_thread=40, updates=3
        )
    assert result.errors == 0
    assert result.torn == 0
    assert result.updates == 3
    assert len(set(result.epochs_observed)) > 1


def test_registry_keeps_last_two_generations():
    collection = dblp_like(8, seed=1)
    index = HopiIndex.build(collection)
    registry = ShardRegistry()
    views = derive_shard_views(index, 1)
    for generation in (0, 1, 2):
        view = views[0]
        view.index.epoch = generation
        registry.execute({
            "op": "install", "shard": 0, "generation": generation,
            "index": view.index, "owned_docs": view.owned_docs,
        })
    # generation 0 pruned, 1 and 2 answer
    with pytest.raises(LookupError):
        registry.execute({"op": "query", "shard": 0, "generation": 0,
                          "path": "//article//author"})
    for generation in (1, 2):
        reply = registry.execute({
            "op": "query", "shard": 0, "generation": generation,
            "path": "//article//author",
        })
        assert reply["matches"] > 0


# ---------------------------------------------------------------------------
# failover: dead shard -> structured degraded error, never a hang
# ---------------------------------------------------------------------------


def test_dead_shard_degrades_instead_of_hanging():
    collection = dblp_like(10, seed=5)
    index = HopiIndex.build(collection)
    s1, a1 = start_worker_thread()
    s2, a2 = start_worker_thread()
    router = ShardRouter(index, 2, workers=[a1, a2],
                         fanout_timeout=5.0, connect_attempts=1)
    try:
        assert router.query("//article//author").total > 0
        # kill worker 2: stop the listener and sever live connections
        s2.shutdown()
        s2.server_close()
        router._clients[1].close()
        with pytest.raises(ShardUnavailableError) as excinfo:
            router.query("//article//cite")
        assert excinfo.value.shards == [1]
        health = router.healthz()
        assert health["status"] == "degraded"
        assert health["ready"] is False
        assert health["shards_down"] == [1]
        stats = router.stats()
        assert stats["per_shard"][0]["reachable"] is True
        assert stats["per_shard"][1]["reachable"] is False
    finally:
        router.close()
        s1.shutdown()
        s1.server_close()


# ---------------------------------------------------------------------------
# HTTP layer: healthz + parity + structured 503
# ---------------------------------------------------------------------------


def _get(url):
    try:
        with urllib.request.urlopen(url) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def test_healthz_single_process():
    collection = dblp_like(8, seed=1)
    service = QueryService(HopiIndex.build(collection))
    with start_in_thread(service) as handle:
        status, payload = _get(f"{handle.base_url}/v1/healthz")
    assert status == 200
    assert payload["status"] == "ok"
    assert payload["ready"] is True
    assert payload["sharded"] is False
    assert payload["epoch"] == 0
    assert payload["epoch_age_seconds"] >= 0


def test_http_parity_and_sharded_health():
    collection = dblp_like(12, seed=3)
    index = HopiIndex.build(collection)
    single = QueryService(index.copy(), max_results=40)
    router = ShardRouter(index.copy(), 2, max_results=40)
    with router, start_in_thread(single) as handle_a, \
            start_in_thread(router) as handle_b:
        base_a, base_b = handle_a.base_url, handle_b.base_url
        for query in ("path=//article//author&limit=3&offset=1",
                      "path=//article//cite//article"):
            status_a, a = _get(f"{base_a}/v1/query?{query}")
            status_b, b = _get(f"{base_b}/v1/query?{query}")
            assert status_a == status_b == 200
            for volatile in ("seconds", "cached"):
                a.pop(volatile), b.pop(volatile)
            assert a == b, query
        status, health = _get(f"{base_b}/v1/healthz")
        assert status == 200
        assert health["sharded"] is True
        assert health["shards_down"] == []
        assert len(health["shards"]) == 2
        status, stats = _get(f"{base_b}/v1/stats")
        assert stats["sharded"] is True
        assert len(stats["per_shard"]) == 2
        assert "fan_out" in stats


def test_http_dead_shard_returns_structured_503():
    collection = dblp_like(8, seed=1)
    index = HopiIndex.build(collection)
    s1, a1 = start_worker_thread()
    s2, a2 = start_worker_thread()
    router = ShardRouter(index, 2, workers=[a1, a2],
                         fanout_timeout=5.0, connect_attempts=1)
    handle = start_in_thread(router)
    base = handle.base_url
    try:
        s2.shutdown()
        s2.server_close()
        router._clients[1].close()
        status, payload = _get(f"{base}/v1/query?path=//article//author")
        assert status == 503
        assert payload["degraded"] is True
        assert payload["shards_down"] == [1]
        assert payload["error"]["code"] == "shard_unavailable"
        status, health = _get(f"{base}/v1/healthz")
        assert status == 503
        assert health["status"] == "degraded"
    finally:
        handle.close()
        router.close()
        s1.shutdown()
        s1.server_close()


# ---------------------------------------------------------------------------
# building blocks
# ---------------------------------------------------------------------------


def test_shard_of_is_stable_and_total():
    for shards in (1, 2, 4, 7):
        for doc in ("dblp0", "dblp1", "inex5", "x"):
            s = shard_of(doc, shards)
            assert 0 <= s < shards
            assert s == shard_of(doc, shards)  # deterministic


def test_views_cover_ownership_disjointly():
    collection = dblp_like(16, seed=3)
    index = HopiIndex.build(collection)
    views = derive_shard_views(index, 4)
    owned = [doc for view in views for doc in view.owned_docs]
    assert sorted(owned) == sorted(collection.documents)
    for view in views:
        # forward-closed: every link target doc of a view doc is in view
        view_docs = set(view.index.collection.documents)
        assert set(view.owned_docs) <= view_docs
        for u, v in collection.inter_links:
            if collection.elements[u].doc in view_docs:
                assert collection.elements[v].doc in view_docs


def test_restrict_cover_exact_on_view_pairs():
    collection = dblp_like(12, seed=3)
    index = HopiIndex.build(collection)
    view = derive_shard_views(index, 3)[1]
    restricted = view.index
    rng = random.Random(4)
    members = sorted(restricted.collection.elements)
    for _ in range(200):
        u, v = rng.choice(members), rng.choice(members)
        assert restricted.connected(u, v) == index.connected(u, v), (u, v)
