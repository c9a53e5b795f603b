"""Tests for the path-expression parser, ontology, and query engine."""

import pytest

from repro.core import HopiIndex
from repro.query import (
    QueryEngine,
    TagOntology,
    default_ontology,
    parse_path,
)
from repro.query.pathexpr import PathSyntaxError
from repro.xmlmodel import Collection, dblp_like


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def test_parse_descendant_steps():
    expr = parse_path("//book//author")
    assert len(expr) == 2
    assert expr.steps[0].axis == "descendant"
    assert expr.steps[0].tag == "book"
    assert expr.steps[1].tag == "author"


def test_parse_child_steps():
    expr = parse_path("/bib/book/title")
    assert [s.axis for s in expr.steps] == ["child"] * 3
    assert [s.tag for s in expr.steps] == ["bib", "book", "title"]


def test_parse_mixed_and_wildcard():
    expr = parse_path("/bib//book/*")
    assert [s.axis for s in expr.steps] == ["child", "descendant", "child"]
    assert expr.steps[2].tag == "*"


def test_parse_similarity():
    expr = parse_path("//~book//author")
    assert expr.steps[0].similar
    assert not expr.steps[1].similar


def test_parse_roundtrip_str():
    for text in ["//book//author", "/a/b//c", "//~publication/*"]:
        assert str(parse_path(text)) == text


@pytest.mark.parametrize(
    "bad", ["", "book", "//", "/", "//~*", "//book]", "book//author"]
)
def test_parse_errors(bad):
    with pytest.raises(PathSyntaxError):
        parse_path(bad)


# ---------------------------------------------------------------------------
# ontology
# ---------------------------------------------------------------------------


def test_ontology_identity():
    onto = TagOntology()
    assert onto.similarity("a", "a") == 1.0
    assert onto.similarity("a", "b") == 0.0


def test_ontology_symmetric():
    onto = TagOntology()
    onto.relate("book", "monography", 0.9)
    assert onto.similarity("book", "monography") == 0.9
    assert onto.similarity("monography", "book") == 0.9


def test_ontology_invalid_score():
    onto = TagOntology()
    with pytest.raises(ValueError):
        onto.relate("a", "b", 0.0)
    with pytest.raises(ValueError):
        onto.relate("a", "b", 1.5)


def test_similar_tags_sorted():
    onto = default_ontology()
    ranked = onto.similar_tags(
        "book", ["monography", "publication", "article", "unrelated"]
    )
    tags = [t for t, _ in ranked]
    assert tags[0] == "monography"
    assert "unrelated" not in tags


# ---------------------------------------------------------------------------
# engine
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def bib_index():
    """Small two-document bibliography with a citation link."""
    c = Collection()
    bib = c.new_document("bib1", "bib")
    book = c.add_child(bib.eid, "book")
    c.add_child(book.eid, "title").text = "The Art"
    author = c.add_child(book.eid, "author")
    author.text = "Knuth"
    cite = c.add_child(book.eid, "cite")

    mono = c.new_document("bib2", "monography")
    c.add_child(mono.eid, "title").text = "Another"
    c.add_child(mono.eid, "author").text = "Dijkstra"

    c.add_link(cite.eid, mono.eid)
    index = HopiIndex.build(c, strategy="unpartitioned")
    return c, index, {
        "bib": bib.eid, "book": book.eid, "author": author.eid,
        "cite": cite.eid, "mono": mono.eid,
    }


def test_descendant_query(bib_index):
    c, index, ids = bib_index
    engine = QueryEngine(index)
    results = engine.evaluate("//book//author")
    # both authors match: the book's own and, across the citation link,
    # the monography's author — the paper's wildcard-over-links case
    authors = {r.target for r in results}
    assert ids["author"] in authors
    assert len(authors) == 2


def test_child_query_absolute(bib_index):
    c, index, ids = bib_index
    engine = QueryEngine(index)
    results = engine.evaluate("/bib/book")
    assert {r.target for r in results} == {ids["book"]}
    # non-root 'book' start yields nothing on an absolute path
    assert engine.evaluate("/book") == []


def test_wildcard_query(bib_index):
    c, index, ids = bib_index
    engine = QueryEngine(index)
    results = engine.evaluate("/bib/book/*")
    tags = {c.elements[r.target].tag for r in results}
    assert tags == {"title", "author", "cite"}


def test_similarity_query(bib_index):
    c, index, ids = bib_index
    engine = QueryEngine(index)
    results = engine.evaluate("//~book//author")
    # ~book matches book (1.0) and monography (0.9): authors under both
    targets = {r.target for r in results}
    assert len(targets) == 2
    # exact-tag match ranks first
    assert results[0].score >= results[-1].score


def test_similarity_threshold(bib_index):
    c, index, ids = bib_index
    engine = QueryEngine(index, similarity_threshold=0.95)
    results = engine.evaluate("//~book")
    tags = {c.elements[r.target].tag for r in results}
    assert tags == {"book"}  # monography (0.9) filtered out


def test_no_match(bib_index):
    _, index, _ = bib_index
    engine = QueryEngine(index)
    assert engine.evaluate("//nonexistent//author") == []
    assert engine.count("//nonexistent") == 0


def test_bindings_capture_full_path(bib_index):
    c, index, ids = bib_index
    engine = QueryEngine(index)
    results = engine.evaluate("//bib//cite")
    (r,) = results
    assert r.bindings == (ids["bib"], ids["cite"])


def test_distance_ranking():
    """Section 5.1: nearer matches rank higher."""
    c = Collection()
    root = c.new_document("d", "book")
    near = c.add_child(root.eid, "author")
    near.text = "Near"
    mid = c.add_child(root.eid, "chapter")
    sect = c.add_child(mid.eid, "section")
    far = c.add_child(sect.eid, "author")
    far.text = "Far"
    index = HopiIndex.build(c, strategy="unpartitioned", distance=True)
    engine = QueryEngine(index)
    results = engine.evaluate("//book//author")
    assert [r.target for r in results] == [near.eid, far.eid]
    assert results[0].score > results[1].score


def test_count_and_max_results(bib_index):
    _, index, _ = bib_index
    engine = QueryEngine(index, max_results=1)
    assert len(engine.evaluate("//book//author")) == 1
    full = QueryEngine(index)
    assert full.count("//book//author") == 2


def test_refresh_after_maintenance():
    c = dblp_like(6, seed=2)
    index = HopiIndex.build(c, strategy="unpartitioned")
    engine = QueryEngine(index)
    before = engine.count("//article//author")
    doc = sorted(c.documents)[0]
    index.delete_document(doc)
    engine.refresh()
    after = engine.count("//article//author")
    assert after < before


def test_query_on_dblp_matches_naive_evaluation():
    """Oracle check: //article//cite via HOPI equals naive tree+link BFS."""
    from repro.graph.traversal import is_reachable

    c = dblp_like(10, seed=7)
    graph = c.element_graph()
    index = HopiIndex.build(c, strategy="recursive", partitioner="closure")
    engine = QueryEngine(index, max_results=100_000)
    got = {
        r.bindings
        for r in engine.evaluate("//article//cite")
    }
    tags = c.tags()
    expected = {
        (a, ci)
        for a in tags.get("article", [])
        for ci in tags.get("cite", [])
        if a != ci and is_reachable(graph, a, ci)
    }
    assert got == expected


# ---------------------------------------------------------------------------
# counting path and candidate memoization
# ---------------------------------------------------------------------------


def test_count_equals_full_evaluation_across_shapes():
    """The aggregated counting path must agree with materialised
    evaluation on child steps, descendant steps, wildcards and ~tags."""
    c = dblp_like(10, seed=13)
    index = HopiIndex.build(c, strategy="recursive", partitioner="closure")
    full = QueryEngine(index, max_results=10**9)
    for path in [
        "//article//author",
        "//article//cite",
        "//article//*",
        "//~article//author",
        "/article/author",
        "/article",
        "//author",
        "//article//cite//author",
        "//nonexistent//author",
    ]:
        assert full.count(path) == len(full.evaluate(path)), path


def test_count_ignores_max_results_truncation():
    c = dblp_like(8, seed=13)
    index = HopiIndex.build(c, strategy="unpartitioned")
    truncated = QueryEngine(index, max_results=1)
    full = QueryEngine(index, max_results=10**9)
    n = full.count("//article//author")
    assert truncated.count("//article//author") == n
    assert n > 1  # the workload actually exercises the truncation


def test_count_distance_aware_index():
    """Counting must not require distance lookups (no scoring)."""
    c = dblp_like(6, seed=3)
    index = HopiIndex.build(c, strategy="unpartitioned", distance=True)
    engine = QueryEngine(index, max_results=10**9)
    assert engine.count("//article//cite") == len(engine.evaluate("//article//cite"))


def test_candidates_memoized_per_tag_and_invalidated_on_refresh():
    c = dblp_like(6, seed=2)
    index = HopiIndex.build(c, strategy="unpartitioned")
    engine = QueryEngine(index)
    expr = parse_path("//article//author//author")
    first = engine._candidates(expr.steps[1])
    again = engine._candidates(expr.steps[2])
    assert first is again  # same (tag, similar) key -> same memo entry
    index.delete_document(sorted(c.documents)[0])
    engine.refresh()
    fresh = engine._candidates(expr.steps[1])
    assert fresh is not first
    assert len(fresh) < len(first)


def test_evaluate_against_explicit_index():
    """Pooled engines: one engine's tag index, another index's cover
    (here the oracle twin over the same collection)."""
    from cover_oracle import oracle_index

    c = dblp_like(8, seed=5)
    index = HopiIndex.build(c, strategy="unpartitioned")
    twin = oracle_index(index)
    engine = QueryEngine(index, max_results=10**9)
    default = engine.evaluate("//article//cite")
    explicit = engine.evaluate("//article//cite", index=twin)
    assert [(r.bindings, r.score) for r in default] == [
        (r.bindings, r.score) for r in explicit
    ]
    assert engine.count("//article//cite", index=twin) == len(default)


def test_evaluate_with_probe_substitute():
    """A substitute probe sees (source, step_key, candidates) and its
    answer is trusted — the serving tier's coalescing hook."""
    c = dblp_like(6, seed=5)
    index = HopiIndex.build(c, strategy="unpartitioned")
    engine = QueryEngine(index, max_results=10**9)
    seen = []

    def probe(source, step_key, cand_elems):
        seen.append((source, step_key))
        flags = index.connected_many(source, cand_elems)
        return [i for i, ok in enumerate(flags) if ok]

    with_probe = engine.evaluate("//article//cite", probe=probe)
    assert seen and all(key == ("cite", False) for _, key in seen)
    assert [r.bindings for r in with_probe] == [
        r.bindings for r in engine.evaluate("//article//cite")
    ]
