"""Tests for skeleton graphs, PSG, and the A*D / A+D weight estimation."""

import pytest

from repro.core.cover_builder import build_cover
from repro.core.partitioning import Partitioning, compute_cross_links
from repro.core.skeleton import (
    annotate_tree_counts,
    build_psg,
    build_skeleton_graph,
    connection_edge_weight,
    estimate_global_counts,
    psg_source_target_closure,
)
from repro.graph.traversal import descendants
from repro.xmlmodel import Collection, dblp_like


@pytest.fixture
def linked_collection():
    """Three documents: d1 --link--> d2 --link--> d3.

    d1: r1 -> (a1, s1);  link s1 -> t2 (d2's child)
    d2: r2 -> (t2 -> s2, b2);  link s2 -> t3 (d3's root)
    d3: t3(root) -> (c3,)
    """
    c = Collection()
    r1 = c.new_document("d1", "r")
    c.add_child(r1.eid, "a")
    s1 = c.add_child(r1.eid, "s")
    r2 = c.new_document("d2", "r")
    t2 = c.add_child(r2.eid, "t")
    s2 = c.add_child(t2.eid, "s")
    c.add_child(r2.eid, "b")
    t3 = c.new_document("d3", "t")
    c.add_child(t3.eid, "c")
    c.add_link(s1.eid, t2.eid)
    c.add_link(s2.eid, t3.eid)
    return c, {
        "r1": r1.eid, "s1": s1.eid, "r2": r2.eid, "t2": t2.eid,
        "s2": s2.eid, "t3": t3.eid,
    }


def test_skeleton_nodes_are_link_endpoints(linked_collection):
    c, ids = linked_collection
    skel = build_skeleton_graph(c)
    assert set(skel.nodes()) == {ids["s1"], ids["t2"], ids["s2"], ids["t3"]}


def test_skeleton_edges(linked_collection):
    c, ids = linked_collection
    skel = build_skeleton_graph(c)
    # the links themselves
    assert skel.has_edge(ids["s1"], ids["t2"])
    assert skel.has_edge(ids["s2"], ids["t3"])
    # target t2 reaches source s2 within d2
    assert skel.has_edge(ids["t2"], ids["s2"])
    # no fabricated edges
    assert skel.num_edges() == 3


def test_skeleton_target_source_requires_reachability():
    c = Collection()
    r1 = c.new_document("d1", "r")
    s1 = c.add_child(r1.eid, "s")
    r2 = c.new_document("d2", "r")
    t2 = c.add_child(r2.eid, "t")  # leaf
    s2 = c.add_child(r2.eid, "s")  # sibling, NOT reachable from t2
    r3 = c.new_document("d3", "r")
    c.add_link(s1.eid, t2.eid)
    c.add_link(s2.eid, r3.eid)
    skel = build_skeleton_graph(c)
    assert not skel.has_edge(t2.eid, s2.eid)


def test_annotate_tree_counts(linked_collection):
    c, ids = linked_collection
    skel = build_skeleton_graph(c)
    counts = annotate_tree_counts(c, skel.nodes())
    # s1 is a child of r1: 2 ancestors (self + root), 1 descendant (self)
    assert counts[ids["s1"]] == (2, 1)
    # t2 is a child of r2 with child s2: anc = 2, desc = 2
    assert counts[ids["t2"]] == (2, 2)
    # t3 is a root with one child: anc = 1, desc = 2
    assert counts[ids["t3"]] == (1, 2)


def test_estimate_global_counts(linked_collection):
    """Figure 5 semantics: traversal accumulates desc over links and anc
    into link sources."""
    c, ids = linked_collection
    skel = build_skeleton_graph(c)
    counts = annotate_tree_counts(c, skel.nodes())
    sources = {u for (u, _) in c.inter_links}
    a, d = estimate_global_counts(skel, counts, sources, max_depth=6)
    # s1 reaches t2 (desc 2) and t3 (desc 2) via links: D(s1) = 1 + 2 + 2
    assert d[ids["s1"]] == 5
    # s2 gains the ancestors of t2's traversal origins: at least its own
    # tree ancestors plus anc(s1) and anc(t2)
    assert a[ids["s2"]] >= counts[ids["s2"]][0]
    # t3 receives no extra descendants (no outgoing links)
    assert d[ids["t3"]] == 2


def test_estimate_depth_limit(linked_collection):
    c, ids = linked_collection
    skel = build_skeleton_graph(c)
    counts = annotate_tree_counts(c, skel.nodes())
    sources = {u for (u, _) in c.inter_links}
    _, d_shallow = estimate_global_counts(skel, counts, sources, max_depth=1)
    _, d_deep = estimate_global_counts(skel, counts, sources, max_depth=6)
    # with depth 1, s1 only sees t2, not t3
    assert d_shallow[ids["s1"]] == 3
    assert d_deep[ids["s1"]] == 5


def test_connection_edge_weight_modes(linked_collection):
    c, _ = linked_collection
    axd = connection_edge_weight(c, mode="AxD")
    apd = connection_edge_weight(c, mode="A+D")
    assert axd("d1", "d2") > 0
    assert apd("d1", "d2") > 0
    assert axd("d1", "d3") == 0  # no direct link
    # symmetric lookups work
    assert axd("d2", "d1") == axd("d1", "d2")
    with pytest.raises(ValueError):
        connection_edge_weight(c, mode="bogus")


def test_connection_weight_on_dblp():
    c = dblp_like(30, seed=6)
    weight = connection_edge_weight(c, mode="AxD")
    counts = c.document_link_counts()
    assert any(weight(a, b) > 0 for (a, b) in counts)


# ---------------------------------------------------------------------------
# partition-level skeleton graph
# ---------------------------------------------------------------------------


def _partitioning_and_covers(collection, groups):
    partitioning = Partitioning(
        groups, compute_cross_links(
            collection, {d: i for i, g in enumerate(groups) for d in g}
        )
    )
    covers = []
    for docs in partitioning.partitions:
        sub = collection.subcollection(docs)
        covers.append(build_cover(sub.element_graph()))
    return partitioning, covers


def test_build_psg(linked_collection):
    c, ids = linked_collection
    partitioning, covers = _partitioning_and_covers(
        c, [["d1"], ["d2"], ["d3"]]
    )

    def part_desc(pid, e):
        return covers[pid].descendants(e)

    psg = build_psg(c, partitioning, part_desc)
    assert set(psg.nodes()) == {ids["s1"], ids["t2"], ids["s2"], ids["t3"]}
    assert psg.has_edge(ids["s1"], ids["t2"])
    assert psg.has_edge(ids["t2"], ids["s2"])  # within-partition t -> s
    assert psg.has_edge(ids["s2"], ids["t3"])
    assert psg.num_edges() == 3


def test_psg_merged_partitions_drop_internal_links(linked_collection):
    c, ids = linked_collection
    partitioning, covers = _partitioning_and_covers(c, [["d1", "d2"], ["d3"]])

    def part_desc(pid, e):
        return covers[pid].descendants(e)

    psg = build_psg(c, partitioning, part_desc)
    # only the d2 -> d3 link crosses partitions now
    assert set(psg.nodes()) == {ids["s2"], ids["t3"]}
    assert psg.num_edges() == 1


def test_psg_source_target_closure(linked_collection):
    c, ids = linked_collection
    partitioning, covers = _partitioning_and_covers(
        c, [["d1"], ["d2"], ["d3"]]
    )

    def part_desc(pid, e):
        return covers[pid].descendants(e)

    psg = build_psg(c, partitioning, part_desc)
    targets = {v for (_, v) in partitioning.cross_links}
    hbar = psg_source_target_closure(psg, targets)
    assert hbar[ids["s1"]] == {ids["t2"], ids["t3"]}
    assert hbar[ids["s2"]] == {ids["t3"]}
    assert hbar[ids["t3"]] == set()
