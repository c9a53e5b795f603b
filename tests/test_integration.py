"""End-to-end integration tests across the whole pipeline.

XML text -> parser -> collection -> partitioning -> covers -> join ->
queries -> maintenance -> persistence -> reload, on both workload
families, checking exactness at every stage.
"""

import os
import subprocess
import sys

import pytest

from repro.core import HopiIndex
from repro.graph import transitive_closure
from repro.graph.traversal import is_reachable
from repro.query import QueryEngine
from repro.storage import SQLiteCoverStore, load_index, persist_index
from repro.xmlmodel import (
    dblp_like,
    export_collection,
    inex_like,
    load_collection,
)


def test_full_pipeline_from_raw_xml(tmp_path):
    """Generate -> serialise -> parse -> index -> query -> persist -> reload."""
    original = dblp_like(20, seed=31)
    xml = export_collection(original)
    collection = load_collection(xml)
    assert collection.num_elements == original.num_elements

    index = HopiIndex.build(
        collection, strategy="recursive", partitioner="closure",
        edge_weight="AxD",
    )
    index.verify()

    engine = QueryEngine(index, max_results=100000)
    graph = collection.element_graph()
    results = engine.evaluate("//article//author")
    tags = collection.tags()
    expected = {
        (a, au)
        for a in tags["article"]
        for au in tags["author"]
        if is_reachable(graph, a, au)
    }
    assert {r.bindings for r in results} == expected

    path = os.path.join(tmp_path, "pipeline.db")
    persist_index(index, path).close()
    reloaded = load_index(path)
    reloaded.verify()


def test_inex_tree_collection_end_to_end():
    collection = inex_like(8, seed=5)
    index = HopiIndex.build(collection, strategy="recursive", partitioner="closure")
    index.verify()
    # tree structure: every sec is under exactly one article
    engine = QueryEngine(index, max_results=100000)
    for r in engine.evaluate("//sec//p"):
        sec, p = r.bindings
        assert collection.doc(sec) == collection.doc(p)
    # maintenance on a link-free collection always takes the fast path
    doc = sorted(collection.documents)[0]
    report = index.delete_document(doc)
    assert report.separating is True
    index.verify()


def test_long_maintenance_session_stays_exact():
    """A churn scenario: interleaved inserts and deletes; the cover must
    track the graph exactly throughout (spot-checked) and fully at the
    end."""
    collection = dblp_like(18, seed=77)
    index = HopiIndex.build(collection, strategy="recursive", partitioner="single")
    docs = sorted(collection.documents)
    for i, victim in enumerate(docs[:6]):
        index.delete_document(victim)
        root = collection.new_document(f"gen{i}", "article")
        cite = collection.add_child(root.eid, "cite")
        survivors = sorted(collection.documents)
        target = collection.documents[survivors[i % len(survivors)]].root
        if target != cite.eid:
            collection.add_link(cite.eid, target)
        index.insert_document(f"gen{i}")
        if i % 3 == 0:
            index.verify()
    index.verify()
    closure = transitive_closure(collection.element_graph())
    assert index.cover.size >= 0
    # exactness double-check on a sample of pairs
    nodes = sorted(collection.elements)[:40]
    for u in nodes:
        for v in nodes:
            assert index.connected(u, v) == closure.contains(u, v)


def test_distance_pipeline_with_storage(tmp_path):
    collection = dblp_like(10, seed=41)
    index = HopiIndex.build(collection, strategy="unpartitioned", distance=True)
    index.verify()
    path = os.path.join(tmp_path, "dist.db")
    store = persist_index(index, path)
    (u, v) = sorted(collection.inter_links)[0]
    assert store.distance(u, v) == index.distance(u, v) == 1
    store.close()
    reloaded = load_index(path)
    assert reloaded.is_distance_aware
    reloaded.verify()


def test_cross_strategy_equivalence():
    """All build strategies must answer identically (they are different
    covers of the same closure)."""
    collection = dblp_like(15, seed=55)
    indexes = [
        HopiIndex.build(collection, strategy="unpartitioned"),
        HopiIndex.build(collection, strategy="incremental",
                        partitioner="node_weight", partition_limit=60),
        HopiIndex.build(collection, strategy="recursive",
                        partitioner="closure"),
        HopiIndex.build(collection, strategy="recursive", partitioner="single"),
    ]
    nodes = sorted(collection.elements)[:30]
    reference = indexes[0]
    for other in indexes[1:]:
        for u in nodes:
            for v in nodes:
                assert reference.connected(u, v) == other.connected(u, v)


def test_harness_runners_smoke():
    """The paper-table runners run end-to-end at tiny scale."""
    from repro.bench.paper import (
        run_build,
        run_center_preselection_ablation,
        run_distance_overhead,
        run_edge_weight_ablation,
        run_insert_document_experiment,
        run_maintenance_experiment,
        run_query_benchmark,
        run_table2,
    )

    tiny = dblp_like(25, seed=1)
    rows = run_table2(tiny, include_unpartitioned=True)
    labels = [r.label for r in rows]
    assert labels[0] == "baseline"
    assert "P5" in labels and "N10" in labels and "single" in labels
    assert labels[-1] == "global (7.2)"
    for row in rows:
        assert row.cover_size > 0
        assert row.compression > 0
    # the limit actually partitioned with, also when it was derived
    assert rows[0].partition_limit == max(int(tiny.num_elements * 0.06), 1)
    derived = run_build(tiny, "derived", partitioner="node_weight")
    assert derived.partition_limit == max(tiny.num_elements // 8, 1)

    maint = run_maintenance_experiment(tiny, sample_size=6)
    assert 0.0 <= maint.separating_fraction <= 1.0
    assert maint.samples == 6

    ins = run_insert_document_experiment(tiny, n_inserts=2)
    assert ins["inserts"] == 2.0

    dist = run_distance_overhead(tiny)
    assert dist["distance_size"] >= dist["plain_size"] > 0

    pre = run_center_preselection_ablation(tiny)
    assert pre["with_preselection"] > 0

    weights = run_edge_weight_ablation(tiny)
    assert {r.label for r in weights} == {"N25/links", "N25/AxD", "N25/A+D"}

    q = run_query_benchmark(tiny, n_queries=50)
    assert q["hopi_qps"] > 0


def test_reporting_table_format():
    from repro.bench.reporting import format_table

    table = format_table(
        ["name", "value"],
        [("a", 1234), ("bb", 5.5)],
        title="T",
    )
    assert "T" in table
    assert "1,234" in table
    assert "5.5" in table
    lines = table.splitlines()
    assert len(lines) == 6  # title, rule, header, separator, 2 rows


def test_paper_tables_cli_prints_every_table():
    """``python -m repro.bench`` is a straight-line script: exit 0 and
    one table per paper experiment."""
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    done = subprocess.run(
        [sys.executable, "-m", "repro.bench", "--seed", "7"],
        env={**os.environ, "REPRO_BENCH_SCALE": "0.1", "PYTHONPATH": src},
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    for title in (
        "Table 1:", "Table 2:", "Section 7.2:", "Section 7.3:",
        "Section 6.1:", "Section 5:", "Section 4.2 ablation:",
        "Section 4.3 ablation:", "Query performance",
    ):
        assert title in done.stdout, f"missing table {title!r}"
    assert "seed 7" in done.stdout


def test_workload_scale_env(monkeypatch):
    from repro.bench import workloads

    monkeypatch.setenv("REPRO_BENCH_SCALE", "2.5")
    assert workloads.workload_scale() == 2.5
    monkeypatch.delenv("REPRO_BENCH_SCALE")
    assert workloads.workload_scale() == 1.0
    monkeypatch.delenv("REPRO_BENCH_SEED", raising=False)
    assert workloads.workload_seed() == 2005
    monkeypatch.setenv("REPRO_BENCH_SEED", "7")
    assert workloads.workload_seed() == 7
