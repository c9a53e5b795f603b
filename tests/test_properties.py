"""Property-based tests (hypothesis) for the core invariants.

Theorem 1's two directions — every connection covered, no phantom
connections — plus maintenance-equals-rebuild equivalences, checked on
randomly generated graphs and collections.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.cover_builder import build_cover
from repro.core.distance import build_distance_cover
from repro.core.maintenance import delete_document, insert_document, insert_edge
from repro.graph import DiGraph, distance_closure, transitive_closure
from repro.xmlmodel import Collection
from repro.xmlmodel.parser import parse_document, serialize, ParsedElement

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def digraphs(draw, max_nodes=12, acyclic=False):
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    m = draw(st.integers(min_value=0, max_value=3 * n))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            min_size=0,
            max_size=m,
        )
    )
    g = DiGraph()
    for v in range(n):
        g.add_node(v)
    for u, v in edges:
        if u == v:
            continue
        if acyclic:
            if u == v:
                continue
            u, v = (u, v) if u < v else (v, u)
        g.add_edge(u, v)
    return g


@st.composite
def collections(draw, max_docs=5):
    n_docs = draw(st.integers(min_value=1, max_value=max_docs))
    c = Collection()
    all_elements = []
    for i in range(n_docs):
        root = c.new_document(f"doc{i}", "r")
        members = [root.eid]
        extra = draw(st.integers(min_value=0, max_value=5))
        for _ in range(extra):
            parent = draw(st.sampled_from(members))
            members.append(c.add_child(parent, "e").eid)
        all_elements.append(members)
    n_links = draw(st.integers(min_value=0, max_value=2 * n_docs))
    for _ in range(n_links):
        di = draw(st.integers(min_value=0, max_value=n_docs - 1))
        dj = draw(st.integers(min_value=0, max_value=n_docs - 1))
        u = draw(st.sampled_from(all_elements[di]))
        v = draw(st.sampled_from(all_elements[dj]))
        if u != v:
            c.add_link(u, v)
    return c


# ---------------------------------------------------------------------------
# Theorem 1 on random graphs
# ---------------------------------------------------------------------------


@SETTINGS
@given(digraphs())
def test_cover_equals_closure(g):
    cover = build_cover(g)
    cover.verify_against(transitive_closure(g))


@SETTINGS
@given(digraphs(max_nodes=9))
def test_distance_cover_equals_bfs(g):
    cover = build_distance_cover(g)
    cover.verify_against(distance_closure(g))


@SETTINGS
@given(digraphs())
def test_cover_size_within_4ceil_bound(g):
    """Sanity: the greedy cover never exceeds the trivial per-connection
    labelling (2 entries per closure connection)."""
    closure = transitive_closure(g)
    cover = build_cover(g)
    assert cover.size <= max(2 * closure.num_connections, 0)


@SETTINGS
@given(digraphs(max_nodes=10))
def test_descendants_ancestors_consistent(g):
    cover = build_cover(g)
    closure = transitive_closure(g)
    for v in g:
        assert cover.descendants(v) == closure.descendants_of(v) | {v}
        assert cover.ancestors(v) == closure.ancestors_of(v) | {v}


# ---------------------------------------------------------------------------
# maintenance ≡ rebuild
# ---------------------------------------------------------------------------


@SETTINGS
@given(collections(), st.randoms(use_true_random=False))
def test_delete_document_equals_rebuild(c, rng):
    cover = build_cover(c.element_graph())
    doc_id = rng.choice(sorted(c.documents))
    delete_document(c, cover, doc_id)
    cover.verify_against(transitive_closure(c.element_graph()))


@SETTINGS
@given(collections(max_docs=4), st.randoms(use_true_random=False))
def test_insert_edge_equals_rebuild(c, rng):
    cover = build_cover(c.element_graph())
    nodes = sorted(c.elements)
    u, v = rng.choice(nodes), rng.choice(nodes)
    if u == v:
        return
    insert_edge(c, cover, u, v)
    cover.verify_against(transitive_closure(c.element_graph()))


@SETTINGS
@given(collections(max_docs=3), st.randoms(use_true_random=False))
def test_insert_edge_distance_equals_rebuild(c, rng):
    cover = build_distance_cover(c.element_graph())
    nodes = sorted(c.elements)
    u, v = rng.choice(nodes), rng.choice(nodes)
    if u == v:
        return
    insert_edge(c, cover, u, v)
    cover.verify_against(distance_closure(c.element_graph()))


@SETTINGS
@given(collections(max_docs=4))
def test_insert_document_equals_rebuild(c):
    cover = build_cover(c.element_graph())
    root = c.new_document("fresh", "r")
    child = c.add_child(root.eid, "x")
    existing = sorted(c.documents["doc0"].elements)
    c.add_link(child.eid, existing[0])
    insert_document(c, cover, "fresh")
    cover.verify_against(transitive_closure(c.element_graph()))


# ---------------------------------------------------------------------------
# parser round-trips
# ---------------------------------------------------------------------------

_tag = st.from_regex(r"[A-Za-z][A-Za-z0-9]{0,5}", fullmatch=True)
_text = st.text(
    alphabet=st.characters(
        codec="utf-8", exclude_characters="<>&\"'\x00\r", categories=("L", "N", "P", "Zs")
    ),
    max_size=20,
)


@st.composite
def xml_trees(draw, depth=3):
    tag = draw(_tag)
    attrs = draw(
        st.dictionaries(_tag, _text, max_size=2)
    )
    node = ParsedElement(tag, attrs)
    node.text = draw(_text).strip()
    if depth > 0:
        for child in draw(st.lists(xml_trees(depth=depth - 1), max_size=3)):
            node.children.append(child)
    return node


@SETTINGS
@given(xml_trees())
def test_parser_serializer_roundtrip(tree):
    text = serialize(tree)
    again = parse_document(text)

    def same(a, b):
        assert a.tag == b.tag
        assert a.attributes == b.attributes
        assert a.text.strip() == b.text.strip()
        assert len(a.children) == len(b.children)
        for x, y in zip(a.children, b.children):
            same(x, y)

    same(tree, again)


# ---------------------------------------------------------------------------
# cover algebra
# ---------------------------------------------------------------------------


@SETTINGS
@given(digraphs(max_nodes=8), digraphs(max_nodes=8))
def test_union_of_disjoint_covers(g1, g2):
    """Covers of node-disjoint graphs union into a cover of the union."""
    shifted = DiGraph()
    offset = 1000
    for v in g2:
        shifted.add_node(v + offset)
    for u, v in g2.edges():
        shifted.add_edge(u + offset, v + offset)
    c1 = build_cover(g1)
    c2 = build_cover(shifted)
    c1.union(c2)
    combined = DiGraph()
    for v in g1:
        combined.add_node(v)
    combined.add_edges(g1.edges())
    for v in shifted:
        combined.add_node(v)
    combined.add_edges(shifted.edges())
    c1.verify_against(transitive_closure(combined))


# ---------------------------------------------------------------------------
# query stack: parser round-trip and planner soundness
# ---------------------------------------------------------------------------


_QUERY_TAGS = st.sampled_from(["a", "b", "book", "author", "*"])


@st.composite
def query_steps(draw, depth=1, first_in_predicate=False):
    from repro.query.pathexpr import Predicate, Step

    tag = draw(_QUERY_TAGS)
    similar = tag != "*" and draw(st.booleans())
    axis = draw(st.sampled_from(["child", "descendant"]))
    predicates = []
    if depth > 0:
        for _ in range(draw(st.integers(min_value=0, max_value=2))):
            inner = [draw(query_steps(depth=depth - 1))]
            for _ in range(draw(st.integers(min_value=0, max_value=1))):
                inner.append(draw(query_steps(depth=depth - 1)))
            predicates.append(Predicate(tuple(inner)))
    return Step(axis, tag, similar, tuple(predicates))


@st.composite
def query_expressions(draw):
    from repro.query.pathexpr import PathExpression

    steps = [draw(query_steps()) for _ in range(draw(st.integers(1, 3)))]
    limit = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=9)))
    offset = draw(st.integers(min_value=0, max_value=9))
    return PathExpression(tuple(steps), limit=limit, offset=offset)


@SETTINGS
@given(query_expressions())
def test_parse_path_str_roundtrip(expr):
    """``parse_path(str(expr)) == expr`` over the whole dialect —
    predicates (incl. nested), similarity, wildcards, windows."""
    from repro.query.pathexpr import parse_path

    assert parse_path(str(expr)) == expr


@st.composite
def reachability_paths(draw, max_steps=3):
    """Legal legacy-dialect paths over the collections() vocabulary."""
    n = draw(st.integers(min_value=1, max_value=max_steps))
    parts = []
    for _ in range(n):
        axis = draw(st.sampled_from(["/", "//"]))
        tag = draw(st.sampled_from(["r", "e", "*"]))
        parts.append(axis + tag)
    return "".join(parts)


@SETTINGS
@given(
    collections(), reachability_paths(), st.integers(min_value=0, max_value=2),
    st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=4),
)
def test_planner_join_orders_sound(c, path, start_scaled, limit, offset):
    """Any legal zig-zag join order (any seed position) returns the
    same ranked result set and scores as the left-to-right order
    (the plan seeded at 0), over the cover and over the oracle cover;
    both endpoint seeds count the same matches. Under a ``limit`` /
    ``offset`` window every seed returns the same top k, the window of
    the full list, and so does ``evaluate`` (whose planner may sample
    seed 0 for a window)."""
    from cover_oracle import oracle_index
    from repro.core.hopi import HopiIndex
    from repro.query import QueryEngine, parse_path, plan_query
    from repro.query.exec import ExecContext, run_count, run_ranked

    expr = parse_path(path)
    start = start_scaled % len(expr.steps)
    last = len(expr.steps) - 1
    baseline = None
    built = HopiIndex.build(c, strategy="unpartitioned")
    for index in (oracle_index(built), built):
        engine = QueryEngine(index, max_results=10**9)

        def ranked(seed):
            top = run_ranked(
                plan_query(expr, engine, start=seed),
                ExecContext(engine), 10**9,
            )
            return [(b, -neg) for neg, b in top]

        def counted(seed):
            return run_count(
                plan_query(expr, engine, start=seed),
                ExecContext(engine),
            )

        forward = ranked(0)
        assert ranked(start) == forward
        assert [(r.bindings, r.score) for r in engine.evaluate(expr)] == forward
        assert engine.count(expr) == counted(0) == counted(last) == len(forward)
        windowed = parse_path(f"{path} limit {limit} offset {offset}")
        for seed in range(last + 1):
            top = run_ranked(
                plan_query(windowed, engine, start=seed),
                ExecContext(engine), offset + limit,
            )
            assert [(b, -neg) for neg, b in top[offset:]] == (
                forward[offset:offset + limit]
            ), seed
        assert [
            (r.bindings, r.score) for r in engine.evaluate(windowed)
        ] == forward[offset:offset + limit]
        if baseline is None:
            baseline = forward
        else:
            assert forward == baseline  # cover and oracle agree too
