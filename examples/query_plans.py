"""Query plans tour: the AST → logical plan → operator pipeline.

Builds a small citation-linked collection with a deliberately rare
tag, then shows what the PR-5 query stack adds over plain evaluation:

1. ``explain()`` — the physical plan, with cardinality estimates and
   the join order/direction the selectivity planner chose;
2. the planner win — ``//*//erratum`` evaluated naively (left-to-right
   forward probes) vs planned (seeded at the rare tail, backward
   ``ancestors``-side probes), with identical results;
3. the new dialect — ``[predicate]`` existence filters and
   ``limit``/``offset`` windows;
4. ``PreparedQuery`` — parse once, bind per engine, the canonical plan
   key the serving tier caches by;
5. early termination — ``exists()`` and a windowed ``stream()``.

Run: ``PYTHONPATH=src python examples/query_plans.py``
"""

import time

from repro.core import HopiIndex
from repro.query import QueryEngine
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
    print("   …and the naive left-to-right order it replaced:")
    print(engine.explain("//*//erratum", order="naive"))
    print()

    print("== 2. planned vs naive: same answers, different wall ==")
    t0 = time.perf_counter()
    naive = engine.evaluate("//*//erratum", order="naive")
    naive_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    planned = engine.evaluate("//*//erratum")
    planned_s = time.perf_counter() - t0
    assert [(r.bindings, r.score) for r in naive] == [
        (r.bindings, r.score) for r in planned
    ]
    print(
        f"   {len(planned)} matches; naive {naive_s * 1e3:.1f} ms, "
        f"planned {planned_s * 1e3:.1f} ms "
        f"({naive_s / max(planned_s, 1e-9):.1f}x)"
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
    prepared = engine.prepare("  //article//author   limit 5  ")
    print(f"   canonical plan key: {prepared.key!r}")
    plan = prepared.bind(engine)
    print(f"   bound order: {[(op.op, op.position, op.direction) for op in plan.ops]}")
    print()

    print("== 5. early termination: exists() and stream() ==")
    print(f"   exists //article//erratum: {engine.exists('//article//erratum')}")
    print(f"   exists //article//nonexistent: "
          f"{engine.exists('//article//nonexistent')}")
    first_three = list(engine.stream("//article//author limit 3"))
    print(f"   stream limit 3 pulled {len(first_three)} bindings "
          "without draining the pipeline")


if __name__ == "__main__":
    main()
