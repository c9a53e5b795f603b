"""Tests for the synthetic collection generators and XML export."""

import random

import pytest

from random_collections import random_collection
from acyclic import is_acyclic
from repro.xmlmodel import (
    collection_size_bytes,
    dblp_like,
    export_collection,
    inex_like,
    load_collection,
)


def test_dblp_like_shape():
    c = dblp_like(50, seed=1)
    assert c.num_documents == 50
    # ~27 elements per document like the paper's DBLP subset
    per_doc = c.num_elements / c.num_documents
    assert 15 <= per_doc <= 40
    assert len(c.inter_links) > 50  # a few citations per document
    # links go from cite elements to roots
    for u, v in c.inter_links:
        assert c.elements[u].tag == "cite"
        assert c.elements[v].parent is None


def test_dblp_like_citation_graph_is_dag():
    c = dblp_like(60, seed=3)
    assert is_acyclic(c.document_graph())


def test_dblp_like_deterministic():
    a = dblp_like(20, seed=9)
    b = dblp_like(20, seed=9)
    assert a.num_elements == b.num_elements
    assert {(u, v) for u, v in a.inter_links} == {(u, v) for u, v in b.inter_links}


def test_dblp_like_distinct_seeds_differ():
    a = dblp_like(20, seed=1)
    b = dblp_like(20, seed=2)
    assert a.inter_links != b.inter_links


def test_dblp_like_citation_indegree_skewed():
    c = dblp_like(150, seed=5)
    indeg = {}
    for _, v in c.inter_links:
        indeg[v] = indeg.get(v, 0) + 1
    # preferential attachment: max in-degree well above the mean
    mean = sum(indeg.values()) / max(len(indeg), 1)
    assert max(indeg.values()) >= 3 * mean


def test_inex_like_shape():
    c = inex_like(10, seed=1)
    assert c.num_documents == 10
    assert c.num_links == 0  # no links at all: tree collection
    assert c.num_elements / c.num_documents >= 50


def test_inex_like_elements_per_doc_target():
    c = inex_like(5, seed=2, elements_per_doc=300)
    per_doc = c.num_elements / c.num_documents
    assert 150 <= per_doc <= 600


def test_inex_like_tree_depth():
    c = inex_like(3, seed=4)
    # article/bdy/sec/ss/p nesting exists
    deep = [
        e
        for e in c.elements.values()
        if e.tag == "p"
        and e.parent is not None
        and c.elements[e.parent].tag == "ss"
    ]
    assert deep


def test_random_collection_cycles_flag():
    acyclic = random_collection(n_docs=8, inter_links=12, allow_cycles=False, seed=3)
    assert is_acyclic(acyclic.document_graph())


def test_random_collection_reproducible():
    a = random_collection(n_docs=5, seed=11)
    b = random_collection(n_docs=5, seed=11)
    assert a.inter_links == b.inter_links
    assert a.num_elements == b.num_elements


def test_random_collection_external_rng():
    rng = random.Random(77)
    a = random_collection(n_docs=4, rng=rng)
    b = random_collection(n_docs=4, rng=rng)
    # consuming the same RNG gives different draws
    assert a.num_elements != b.num_elements or a.inter_links != b.inter_links


# ---------------------------------------------------------------------------
# export / reload round trip
# ---------------------------------------------------------------------------


def test_export_reload_roundtrip_structure():
    original = dblp_like(15, seed=21)
    xml = export_collection(original)
    reloaded = load_collection(xml)
    assert reloaded.num_documents == original.num_documents
    assert reloaded.num_elements == original.num_elements
    assert len(reloaded.inter_links) == len(original.inter_links)
    # document-level graphs must be isomorphic under the identity doc map
    g1, g2 = original.document_graph(), reloaded.document_graph()
    assert set(g1.edges()) == set(g2.edges())


def test_export_reload_roundtrip_intra_links():
    c = random_collection(n_docs=1, max_elements_per_doc=6, seed=13,
                          intra_link_probability=0.9, inter_links=0)
    # keep at most one outgoing link per element (export limitation)
    seen = set()
    doc = next(iter(c.documents.values()))
    doc.intra_links = {
        (u, v) for (u, v) in sorted(doc.intra_links)
        if u not in seen and not seen.add(u)
    }
    reloaded = load_collection(export_collection(c))
    rdoc = next(iter(reloaded.documents.values()))
    assert len(rdoc.intra_links) == len(doc.intra_links)


def test_collection_size_bytes_scales():
    small = collection_size_bytes(dblp_like(5, seed=1))
    large = collection_size_bytes(dblp_like(50, seed=1))
    assert small > 500
    assert large > 5 * small
