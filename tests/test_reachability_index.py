"""2-hop covers over arbitrary digraphs — the paper's future-work
application of transitive-closure compression beyond XML (Section 8).

The same builders and link rule HOPI uses run on any
:class:`~repro.graph.digraph.DiGraph`: ``build_cover`` /
``build_distance_cover`` index it, and ``insert_link`` /
``insert_link_distance`` integrate a new edge. A cover's nodes are
ints, so a graph of named vertices numbers them.
"""

import random

import pytest

from repro.core import build_cover, build_distance_cover
from repro.core.join import insert_link, insert_link_distance
from repro.graph import DiGraph, distance_closure, transitive_closure


#: the call graph's functions: a function's vertex is its index here
FUNCTIONS = ["main", "parse", "lex", "emit", "write", "error", "optimize"]
F = {name: i for i, name in enumerate(FUNCTIONS)}


def _names(vertices):
    return {FUNCTIONS[v] for v in vertices}


@pytest.fixture
def call_graph():
    return DiGraph(
        (F[u], F[v])
        for u, v in [
            ("main", "parse"),
            ("parse", "lex"),
            ("main", "emit"),
            ("emit", "write"),
            ("parse", "error"),
            ("emit", "error"),
        ]
    )


def _add_edge(graph, cover, u, v):
    graph.add_edge(u, v)
    if cover.is_distance_aware:
        insert_link_distance(cover, u, v)
    else:
        insert_link(cover, u, v)


def _verify(graph, cover):
    if cover.is_distance_aware:
        cover.verify_against(distance_closure(graph))
    else:
        cover.verify_against(transitive_closure(graph))


def test_reachable(call_graph):
    cover = build_cover(call_graph)
    assert cover.connected(F["main"], F["lex"])
    assert cover.connected(F["main"], F["error"])
    assert not cover.connected(F["lex"], F["main"])
    assert cover.connected(F["write"], F["write"])
    _verify(call_graph, cover)


def test_descendants_ancestors(call_graph):
    cover = build_cover(call_graph)
    assert _names(cover.descendants(F["parse"])) == {"parse", "lex", "error"}
    assert _names(cover.ancestors(F["error"])) == {"error", "parse", "emit", "main"}


def test_distance_mode(call_graph):
    cover = build_distance_cover(call_graph)
    assert cover.distance(F["main"], F["lex"]) == 2
    assert cover.distance(F["main"], F["error"]) == 2
    assert cover.distance(F["lex"], F["main"]) is None
    _verify(call_graph, cover)


def test_add_edge_and_node(call_graph):
    cover = build_cover(call_graph)
    call_graph.add_node(F["optimize"])
    cover.add_node(F["optimize"])
    assert not cover.connected(F["emit"], F["optimize"])
    assert cover.connected(F["optimize"], F["optimize"])
    _add_edge(call_graph, cover, F["emit"], F["optimize"])
    assert cover.connected(F["main"], F["optimize"])
    _verify(call_graph, cover)


def test_add_edge_distance(call_graph):
    cover = build_distance_cover(call_graph)
    _add_edge(call_graph, cover, F["main"], F["error"])  # shortcut
    assert cover.distance(F["main"], F["error"]) == 1
    _verify(call_graph, cover)


def test_cyclic_graph():
    g = DiGraph([(1, 2), (2, 3), (3, 1), (3, 4)])
    cover = build_cover(g)
    assert cover.connected(1, 1)
    assert cover.connected(2, 1)
    _verify(g, cover)
    _add_edge(g, cover, 4, 5)
    _verify(g, cover)


def test_size_compresses_dense_closure():
    # layered DAG with quadratic closure: a_i = i, mid = k, b_i = k + 1 + i
    k = 8
    edges = [(i, k) for i in range(k)] + [(k, k + 1 + i) for i in range(k)]
    assert build_cover(DiGraph(edges)).size <= 3 * k  # vs k*k connections


@pytest.mark.parametrize("seed", range(5))
def test_random_maintenance_session(seed):
    """Random edge insertions, cycles included, keep the cover exact."""
    rng = random.Random(seed)
    g = DiGraph()
    for v in range(12):
        g.add_node(v)
    cover = build_cover(g)
    for step in range(25):
        u, v = rng.randrange(12), rng.randrange(12)
        if u == v or g.has_edge(u, v):
            continue
        _add_edge(g, cover, u, v)
        if step % 8 == 0:
            _verify(g, cover)
    _verify(g, cover)


@pytest.mark.parametrize("seed", range(3))
def test_random_maintenance_session_distance(seed):
    """Random edge insertions keep every shortest distance exact: a new
    edge is integrated in one pass of the distance link rule."""
    rng = random.Random(100 + seed)
    g = DiGraph()
    for v in range(8):
        g.add_node(v)
    cover = build_distance_cover(g)
    for _ in range(15):
        u, v = rng.randrange(8), rng.randrange(8)
        if u == v or g.has_edge(u, v):
            continue
        _add_edge(g, cover, u, v)
        _verify(g, cover)
