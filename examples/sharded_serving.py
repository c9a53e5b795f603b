"""Sharded serving: scatter-gather over per-shard QueryServices.

Builds one HOPI index over a DBLP-like collection, then serves it three
ways and shows they answer identically:

1. single-process :class:`repro.service.QueryService` (the baseline);
2. a 2-shard in-process :class:`repro.service.ShardRouter` — documents
   are hash-partitioned, every query is scattered to both shards and the
   ranked per-shard answers are heap-merged;
3. the same router over two loopback RPC workers (the ``repro
   build-worker`` daemon, speaking the ``S`` shard frames).

It then hot-swaps the index through the router — generations roll in
shard-by-shard, readers never see a torn answer — and finally kills one
worker to demonstrate the structured degraded mode.

Run:  python examples/sharded_serving.py
(or:  repro serve index.db --shards 2)
"""

from repro.core import HopiIndex
from repro.core.rpc import start_worker_thread
from repro.service import QueryService, ShardRouter, ShardUnavailableError
from repro.xmlmodel.generator import dblp_like

PATH = "//article//cite//article"


def show(label, response):
    top = [(round(r.score, 3), r.bindings) for r in response.results[:3]]
    print(f"  {label}: total={response.total} epoch={response.epoch} "
          f"top={top}")


def main():
    collection = dblp_like(24, seed=7)
    print(f"collection: {collection}")
    index = HopiIndex.build(collection)
    print(f"index: {index}\n")

    # ---- 1. single-process baseline -----------------------------------
    single = QueryService(index.copy(), max_results=50)
    baseline = single.query(PATH, limit=5)
    print(f"single-process {PATH!r} (limit 5):")
    show("baseline", baseline)

    # ---- 2. in-process 2-shard router ---------------------------------
    with ShardRouter(index.copy(), 2, max_results=50) as router:
        sharded = router.query(PATH, limit=5)
        show("2 shards", sharded)
        same = [(r.score, r.bindings) for r in baseline.results] == \
               [(r.score, r.bindings) for r in sharded.results]
        print(f"  bit-identical to single-process: {same}")
        health = router.healthz()
        print(f"  healthz: status={health['status']} "
              f"shards={len(health['shards'])} down={health['shards_down']}")

        # ---- rolling hot swap ----------------------------------------
        roots = sorted(d.root for d in collection.documents.values())
        report = router.update(
            [{"op": "insert_element", "parent": roots[0], "tag": "note"}]
        )
        print(f"\nrolling swap: generations install shard-by-shard, "
              f"epoch {sharded.epoch} -> {report['epoch']}")
        show("post-swap", router.query(PATH, limit=5))

    # ---- 3. the same router over two loopback RPC workers -------------
    s1, a1 = start_worker_thread()
    s2, a2 = start_worker_thread()
    router = ShardRouter(index.copy(), 2, workers=[a1, a2],
                         max_results=50, connect_attempts=1,
                         fanout_timeout=10.0)
    try:
        print(f"\nrpc executor over workers {a1} and {a2}:")
        show("2 shards/rpc", router.query(PATH, limit=5))

        # ---- failover: kill one worker -> structured degraded mode ----
        s2.shutdown()
        s2.server_close()
        router._clients[1].close()
        try:
            router.query("//article//author")
        except ShardUnavailableError as exc:
            print(f"  worker 2 killed -> ShardUnavailableError "
                  f"(shards_down={exc.shards}) — a structured 503 over "
                  f"HTTP, never a hang")
        print(f"  healthz now: {router.healthz()['status']}")
    finally:
        router.close()
        s1.shutdown()
        s1.server_close()


if __name__ == "__main__":
    main()
