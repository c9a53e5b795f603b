"""Tests for the XML collection data model (Section 2 of the paper)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acyclic import is_acyclic
from random_collections import random_collection
from repro.xmlmodel import Collection


@pytest.fixture
def figure1():
    """The three-document collection of Figure 1 (paper node numbering).

    d1 holds elements 1, 2, 3, 4 in a chain 1 -> 2 -> 3 -> 4? The figure
    only fixes the features we assert on: nine numbered elements across
    three documents, parent-child edges, one intra-document link and two
    inter-document links. We reconstruct a faithful variant: d1 = {1, 2, 3},
    d2 = {4, 5, 6}, d3 = {7, 8, 9}; tree edges 1->2, 1->3 / 4->5, 4->6 /
    7->8, 7->9; intra link 9 -> 8; inter links 3 -> 4 (d1 -> d2) and
    8 -> 5 (d3 -> d2).
    """
    c = Collection()
    ids = {}
    for doc, (root_label, kids) in {
        "d1": (1, [2, 3]),
        "d2": (4, [5, 6]),
        "d3": (7, [8, 9]),
    }.items():
        root = c.new_document(doc, "r")
        ids[root_label] = root.eid
        for k in kids:
            ids[k] = c.add_child(root.eid, "e").eid
    c.add_link(ids[9], ids[8])  # intra d3
    c.add_link(ids[3], ids[4])  # inter d1 -> d2
    c.add_link(ids[8], ids[5])  # inter d3 -> d2
    return c, ids


def test_new_document_and_children():
    c = Collection()
    root = c.new_document("d", "article")
    child = c.add_child(root.eid, "title")
    assert c.num_documents == 1
    assert c.num_elements == 2
    assert c.elements[child.eid].parent == root.eid
    assert c.elements[child.eid].tag == "title"
    assert c.doc(child.eid) == "d"


def test_duplicate_document_rejected():
    c = Collection()
    c.new_document("d")
    with pytest.raises(ValueError):
        c.new_document("d")


def test_element_ids_dense_and_global():
    c = Collection()
    r1 = c.new_document("a")
    r2 = c.new_document("b")
    ch = c.add_child(r1.eid, "x")
    assert {r1.eid, r2.eid, ch.eid} == {0, 1, 2}


def test_link_classification(figure1):
    c, ids = figure1
    assert (ids[9], ids[8]) in c.documents["d3"].intra_links
    assert (ids[3], ids[4]) in c.inter_links
    assert (ids[8], ids[5]) in c.inter_links
    assert c.num_links == 3


def test_element_graph_edges(figure1):
    c, ids = figure1
    g = c.element_graph()
    assert len(g) == 9
    # tree edges + intra + inter
    assert g.has_edge(ids[1], ids[2])
    assert g.has_edge(ids[9], ids[8])
    assert g.has_edge(ids[3], ids[4])
    assert g.num_edges() == 6 + 3


def test_document_graph(figure1):
    c, ids = figure1
    g = c.document_graph()
    assert set(g.nodes()) == {"d1", "d2", "d3"}
    assert g.has_edge("d1", "d2")
    assert g.has_edge("d3", "d2")
    assert g.num_edges() == 2


def test_document_link_counts(figure1):
    c, _ = figure1
    assert c.document_link_counts() == {("d1", "d2"): 1, ("d3", "d2"): 1}


def test_document_weights(figure1):
    c, _ = figure1
    assert c.document_weights() == {"d1": 3, "d2": 3, "d3": 3}


def test_remove_link(figure1):
    c, ids = figure1
    c.remove_link(ids[3], ids[4])
    assert (ids[3], ids[4]) not in c.inter_links
    c.remove_link(ids[9], ids[8])
    assert not c.documents["d3"].intra_links


def test_remove_document(figure1):
    c, ids = figure1
    removed = c.remove_document("d2")
    assert removed == {ids[4], ids[5], ids[6]}
    assert c.num_documents == 2
    assert c.num_elements == 6
    # inter links touching d2 are gone
    assert c.inter_links == set()
    assert ids[4] not in c.elements


def test_element_ids_are_never_recycled(figure1, tmp_path):
    """A new element's id is above every id the collection ever handed
    out, after the document holding the highest ids is removed: in the
    collection itself, a fork, a subcollection without that document,
    and the collection an index file round trip loads. The cover indexes
    its tables by element id and relies on it."""
    from repro.core.hopi import HopiIndex
    from repro.storage import load_index, persist_index

    c, ids = figure1
    handed = max(c.elements)
    assert c.remove_document("d3") == {ids[7], ids[8], ids[9]}
    assert max(c.elements) < handed
    path = str(tmp_path / "index.db")
    persist_index(HopiIndex.build(c), path)
    for make in (
        c.fork,
        lambda: c.subcollection(["d1"]),
        lambda: load_index(path).collection,
        lambda: c,
    ):
        copy = make()
        root = copy.new_document("d4", "r")
        kid = copy.add_child(root.eid, "e")
        assert handed < root.eid < kid.eid


def test_subcollection_partition(figure1):
    c, ids = figure1
    sub = c.subcollection(["d1", "d2"])
    assert sub.num_documents == 2
    assert sub.num_elements == 6
    # only links with both ends inside survive
    assert sub.inter_links == {(ids[3], ids[4])}
    # element ids preserved
    assert ids[1] in sub.elements


def test_intra_link_endpoint_validation():
    c = Collection()
    r1 = c.new_document("a")
    r2 = c.new_document("b")
    # a link across documents is inter; misuse of document API raises
    with pytest.raises(KeyError):
        c.documents["a"].add_intra_link(r1.eid, r2.eid)


def test_tree_counts_figure5_convention():
    # Root of an 8-element tree is annotated (1, 8) in Figure 5.
    c = Collection()
    root = c.new_document("d", "r")
    level1 = [c.add_child(root.eid, "a") for _ in range(3)]
    for e in level1:
        c.add_child(e.eid, "b")
    c.add_child(level1[0].eid, "b")
    doc = c.documents["d"]
    counts = doc.tree_counts()
    assert doc.num_elements == 8
    assert counts[root.eid] == (1, 8)
    assert counts[level1[0].eid] == (2, 3)
    leaf = doc.children[level1[1].eid][0]
    assert counts[leaf] == (3, 1)


def test_tree_counts_ignore_intra_links():
    c = Collection()
    root = c.new_document("d", "r")
    a = c.add_child(root.eid, "a")
    b = c.add_child(root.eid, "b")
    c.add_link(a.eid, b.eid)  # intra link must not affect tree counts
    counts = c.documents["d"].tree_counts()
    assert counts[a.eid] == (2, 1)
    assert counts[b.eid] == (2, 1)


def test_tags_index():
    c = Collection()
    root = c.new_document("d", "article")
    c.add_child(root.eid, "author")
    c.add_child(root.eid, "author")
    c.add_child(root.eid, "title")
    tags = c.tags()
    assert len(tags["author"]) == 2
    assert tags["article"] == [root.eid]


def test_document_tree_is_acyclic_graph():
    c = Collection()
    root = c.new_document("d", "r")
    x = c.add_child(root.eid, "x")
    y = c.add_child(x.eid, "y")
    c.add_link(y.eid, x.eid)  # intra link creating a cycle in G_E(d)
    g = c.documents["d"].element_graph()
    assert not is_acyclic(g)
    assert g.has_edge(y.eid, x.eid)


# ---------------------------------------------------------------------------
# the link index the collection keeps
# ---------------------------------------------------------------------------


def _kept(c):
    """The kept link map and document graph, as plain sorted values."""
    links = {u: sorted(vs) for u, vs in c.link_targets().items()}
    doc_graph = c.document_links()
    return links, {d: dict(r) for d, r in doc_graph.out.items()}, {
        d: dict(r) for d, r in doc_graph.into.items()
    }


def _recounted(c):
    """The same three from scratch: every link, every inter-link."""
    links = {}
    for u, v in c.all_links():
        links.setdefault(u, []).append(v)
    out = {d: {} for d in c.documents}
    into = {d: {} for d in c.documents}
    for u, v in c.inter_links:
        du, dv = c.doc(u), c.doc(v)
        out[du][dv] = out[du].get(dv, 0) + 1
        into[dv][du] = into[dv].get(du, 0) + 1
    return {u: sorted(vs) for u, vs in links.items()}, out, into


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10_000), st.booleans(), st.data())
def test_the_kept_link_index_is_a_recount_and_forks_do_not_leak(seed, built, data):
    """Random ``add_link`` / ``remove_link`` / ``new_document`` /
    ``remove_document`` / ``fork`` sequences on a family of forks (the
    index built before the first fork or only later): after every step
    each collection's kept link map and document graph equal a recount
    of its links, and a step on one collection never shows in any
    other."""
    family = [random_collection(n_docs=4, inter_links=6, seed=seed)]
    if built:
        family[0].link_targets()
    for step in range(12):
        c = data.draw(st.sampled_from(family))
        others = [(o, _kept(o)) for o in family if o is not c]
        kind = data.draw(st.sampled_from(
            ["add_link", "remove_link", "new_document", "remove_document", "fork"]
        ))
        elements = sorted(c.elements)
        links = sorted(c.all_links())
        if kind == "add_link":
            c.add_link(data.draw(st.sampled_from(elements)),
                       data.draw(st.sampled_from(elements)))
        elif kind == "remove_link" and links:
            c.remove_link(*data.draw(st.sampled_from(links)))
        elif kind == "new_document":
            root = c.new_document(f"new{step}", "r")
            child = c.add_child(root.eid, "a")
            c.add_link(child.eid, data.draw(st.sampled_from(elements)))
            c.add_link(data.draw(st.sampled_from(elements)), root.eid)
        elif kind == "remove_document" and len(c.documents) > 1:
            doc_id = data.draw(st.sampled_from(sorted(c.documents)))
            removed = c.remove_document(doc_id)
            assert not any(u in removed or v in removed for u, v in c.all_links())
        elif kind == "fork":
            family.append(c.fork())
        for o in family:
            assert _kept(o) == _recounted(o)
        for o, before in others:
            assert _kept(o) == before


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.data())
def test_handed_out_tag_lists_are_never_mutated(seed, data):
    """A list that ``tags()`` handed out keeps its contents through any
    later ``add_child`` (of a known or a new tag), ``new_document``,
    ``remove_document``, ``fork`` and further ``tags()`` calls on its
    collection or on any fork: the query engine takes an unchanged
    list *object* to mean unchanged candidates. Each collection's
    ``tags()`` ends as a recount of its elements."""
    family = [random_collection(n_docs=4, inter_links=4, seed=seed)]
    handed = []  # (list object, its contents when handed out)
    for step in range(14):
        c = data.draw(st.sampled_from(family))
        kind = data.draw(st.sampled_from(
            ["tags", "add_child", "new_tag", "new_document",
             "remove_document", "fork"]
        ))
        if kind == "tags":
            handed.extend((ids, list(ids)) for ids in c.tags().values())
        elif kind in ("add_child", "new_tag"):
            parent = data.draw(st.sampled_from(sorted(c.elements)))
            tag = f"t{step}" if kind == "new_tag" else data.draw(
                st.sampled_from(sorted({e.tag for e in c.elements.values()}))
            )
            c.add_child(parent, tag)
        elif kind == "new_document":
            root = c.new_document(f"new{step}", "r")
            c.add_child(root.eid, "a")
        elif kind == "remove_document" and len(c.documents) > 1:
            c.remove_document(data.draw(st.sampled_from(sorted(c.documents))))
        elif kind == "fork":
            family.append(c.fork())
        for ids, contents in handed:
            assert ids == contents
    # checked once at the end: a tags() call marks every list shared,
    # which would hide a copy the steps above failed to make
    for o in family:
        recount = {}
        for e in sorted(o.elements):
            recount.setdefault(o.elements[e].tag, []).append(e)
        assert o.tags() == recount
