"""Tests for the HopiIndex facade: build strategies, queries, maintenance."""

import pytest

from repro.core import HopiIndex
from repro.graph import transitive_closure
from random_collections import random_collection
from repro.xmlmodel import dblp_like, inex_like


@pytest.fixture(scope="module")
def dblp():
    return dblp_like(25, seed=3)


ALL_BUILDS = [
    dict(strategy="unpartitioned"),
    dict(strategy="incremental", partitioner="node_weight", partition_limit=100),
    dict(strategy="recursive", partitioner="node_weight", partition_limit=100),
    dict(strategy="recursive", partitioner="closure", partition_limit=4000),
    dict(strategy="recursive", partitioner="single"),
    dict(strategy="recursive", partitioner="node_weight",
         partition_limit=100, edge_weight="AxD"),
    dict(strategy="recursive", partitioner="closure",
         partition_limit=4000, edge_weight="A+D"),
    dict(strategy="recursive", partitioner="node_weight",
         partition_limit=100, preselect_centers=False),
    dict(strategy="incremental", partitioner="single"),
]


@pytest.mark.parametrize("kwargs", ALL_BUILDS)
def test_all_build_strategies_correct(dblp, kwargs):
    index = HopiIndex.build(dblp, **kwargs)
    index.verify()


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(strategy="unpartitioned", distance=True),
        dict(strategy="recursive", partitioner="node_weight",
             partition_limit=80, distance=True),
    ],
)
def test_distance_builds_correct(kwargs):
    c = dblp_like(12, seed=5)
    index = HopiIndex.build(c, **kwargs)
    assert index.is_distance_aware
    index.verify()


def test_build_rejects_unknown_options(dblp):
    with pytest.raises(ValueError):
        HopiIndex.build(dblp, strategy="bogus")
    for partitioner in ("bogus", "node-weight", "closure-size"):
        with pytest.raises(ValueError, match="unknown partitioner"):
            HopiIndex.build(dblp, partitioner=partitioner)
    with pytest.raises(ValueError):
        HopiIndex.build(dblp, edge_weight="bogus")


def test_queries(dblp):
    index = HopiIndex.build(dblp, strategy="recursive", partitioner="closure")
    # pick a citation link: cite element -> cited root
    (u, v) = sorted(dblp.inter_links)[0]
    assert index.connected(u, v)
    article = dblp.documents[dblp.doc(u)].root
    assert index.connected(article, v)  # article ->* cite -> cited root
    assert v in index.descendants(article)
    assert article in index.ancestors(v)


def test_distance_query_requires_distance_index(dblp):
    index = HopiIndex.build(dblp)
    with pytest.raises(TypeError):
        index.distance(0, 1)


def test_distance_query():
    c = dblp_like(8, seed=9)
    index = HopiIndex.build(c, strategy="unpartitioned", distance=True)
    (u, v) = sorted(c.inter_links)[0]
    assert index.distance(u, v) == 1
    article = c.documents[c.doc(u)].root
    d = index.distance(article, v)
    assert d is not None and d >= 2


def test_build_stats_populated(dblp):
    index = HopiIndex.build(
        dblp, strategy="recursive", partitioner="node_weight", partition_limit=100
    )
    stats = index.stats
    assert stats.num_partitions >= 1
    assert stats.cover_size == index.cover.size
    assert stats.seconds_total > 0
    assert len(stats.partition_cover_seconds) == stats.num_partitions
    assert stats.parallel_makespan <= stats.seconds_total + 1e-6


def test_stats_unpartitioned(dblp):
    index = HopiIndex.build(dblp, strategy="unpartitioned")
    assert index.stats.num_partitions == 1
    assert index.stats.num_cross_links == 0


def test_size_report_with_closure(dblp):
    index = HopiIndex.build(dblp, strategy="unpartitioned")
    report = index.size_report(with_closure=True)
    closure = transitive_closure(dblp.element_graph())
    assert report.closure_connections == closure.num_connections
    assert report.compression == pytest.approx(
        closure.num_connections / index.cover.size
    )
    assert report.stored_integers == 4 * index.cover.size


def test_inex_build_entries_per_node():
    """Section 7.2: 'less than three index entries per node seems to be
    quite efficient' for tree collections."""
    c = inex_like(6, seed=2)
    index = HopiIndex.build(c, strategy="recursive", partitioner="closure")
    index.verify()
    report = index.size_report()
    assert report.entries_per_node < 3.0


def test_facade_maintenance_roundtrip():
    c = random_collection(n_docs=5, inter_links=6, seed=21)
    index = HopiIndex.build(c, strategy="recursive", partitioner="single")
    docs = sorted(c.documents)
    index.delete_document(docs[1])
    index.verify()
    root = c.new_document("extra", "r")
    leaf = c.add_child(root.eid, "leaf")
    c.add_link(leaf.eid, c.documents[docs[0]].root)
    index.insert_document("extra")
    index.verify()
    eid = index.insert_element(root.eid, "x")
    assert index.connected(root.eid, eid)
    index.verify()


def test_every_maintenance_op_bumps_the_epoch_once():
    """One epoch per completed operation, none for one that raises: the
    service keys its caches and publishes by this counter."""
    c = random_collection(n_docs=5, inter_links=6, seed=21)
    index = HopiIndex.build(c, strategy="recursive", partitioner="single")
    docs = sorted(c.documents)
    root = c.documents[docs[0]].root
    eid = index.insert_element(root, "x")
    assert index.epoch == 1
    other = c.documents[docs[2]].root
    index.insert_edge(eid, other)
    assert index.epoch == 2
    index.delete_edge(eid, other)
    assert index.epoch == 3
    extra = c.new_document("extra", "r")
    c.add_link(extra.eid, root)
    index.insert_document("extra")
    assert index.epoch == 4
    index.delete_document(docs[1])
    assert index.epoch == 5
    with pytest.raises(KeyError):
        index.delete_edge(root, eid)  # a tree edge, not a link
    assert index.epoch == 5
    index.rebuild()
    assert index.epoch == 6
    index.verify()


def test_facade_separator_passthrough():
    c = inex_like(3, seed=1)
    index = HopiIndex.build(c)
    assert index.document_separates(sorted(c.documents)[0])


def test_unpartitioned_cover_not_larger_than_partitioned(dblp):
    """Section 7.2: the global cover achieves the best compression."""
    global_index = HopiIndex.build(dblp, strategy="unpartitioned")
    part_index = HopiIndex.build(
        dblp, strategy="recursive", partitioner="node_weight", partition_limit=60
    )
    assert global_index.cover.size <= part_index.cover.size
