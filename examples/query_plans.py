"""Query plans tour: the AST → physical plan → operator pipeline.

Builds a small citation-linked collection with a deliberately rare
tag, then walks through what the query stack does with a path:

1. ``explain()`` — the physical plan, with cardinality estimates and
   the join order/direction the selectivity planner chose;
2. the planner win — ``//*//erratum`` seeded at the head (left-to-right
   forward probes) vs as planned (seeded at the rare tail, backward
   ``ancestors``-side probes), with identical results;
3. the dialect — ``[predicate]`` existence filters and
   ``limit``/``offset`` windows;
4. ``PreparedQuery`` — parse once, bind per engine, the canonical plan
   key the serving tier caches by;
5. counting — ``count()`` runs a one-direction plan that aggregates
   frontiers and never builds a binding tuple.

Run: ``PYTHONPATH=src python examples/query_plans.py``
"""

import time

from repro.core import HopiIndex
from repro.query import PreparedQuery, QueryEngine, plan_query
from repro.query.exec import ExecContext, run_ranked
from repro.xmlmodel.generator import dblp_like


def main() -> None:
    collection = dblp_like(120, seed=2005)
    docs = sorted(collection.documents)
    for doc_id in docs[::40]:  # a handful of rare 'erratum' elements
        collection.add_child(collection.documents[doc_id].root, "erratum")
    index = HopiIndex.build(collection)
    engine = QueryEngine(index, max_results=10**9)

    print("== 1. explain(): the plan for a selective-tail query ==")
    print(engine.explain("//*//erratum"))
    print()
    print("   …and the left-to-right order it replaced (seed forced to 0):")
    head_seeded = plan_query("//*//erratum", engine, start=0)
    print(head_seeded.explain())
    print()

    print("== 2. head-seeded vs planned: same answers, different wall ==")
    t0 = time.perf_counter()
    forward = run_ranked(head_seeded, ExecContext(engine), 10**9)
    forward_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    planned = engine.evaluate("//*//erratum")
    planned_s = time.perf_counter() - t0
    assert [(b, -neg) for neg, b in forward] == [
        (r.bindings, r.score) for r in planned
    ]
    print(
        f"   {len(planned)} matches; head-seeded {forward_s * 1e3:.1f} ms, "
        f"planned {planned_s * 1e3:.1f} ms "
        f"({forward_s / max(planned_s, 1e-9):.1f}x)"
    )
    print()

    print("== 3. predicates and windows ==")
    cited = engine.evaluate("//article[citations]//author limit 5")
    print(f"   //article[citations]//author limit 5 -> {len(cited)} results")
    page2 = engine.evaluate("//article//author limit 5 offset 5")
    print(f"   //article//author limit 5 offset 5   -> {len(page2)} results "
          "(page 2 of the ranked list)")
    print()

    print("== 4. PreparedQuery: parse once, bind per engine/epoch ==")
    prepared = PreparedQuery("  //article//author   limit 5  ")
    print(f"   canonical plan key: {prepared.key!r}")
    plan = prepared.bind(engine)
    print(f"   bound order: {[(op.op, op.position, op.direction) for op in plan.ops]}")
    print()

    print("== 5. count(): frontier aggregation, no tuples ==")
    print(engine.explain("//article//cite//author", mode="count"))
    print(f"   count //article//erratum: {engine.count('//article//erratum')}")
    print(f"   count //article//nonexistent: "
          f"{engine.count('//article//nonexistent')}")


if __name__ == "__main__":
    main()
