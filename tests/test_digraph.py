"""Unit tests for the directed-graph substrate."""

import pytest

from repro.graph import DiGraph


def test_empty_graph():
    g = DiGraph()
    assert len(g) == 0
    assert g.num_edges() == 0
    assert list(g.edges()) == []
    assert 1 not in g


def test_add_nodes_and_edges():
    g = DiGraph()
    g.add_node(1)
    g.add_edge(1, 2)
    g.add_edge(2, 3)
    assert len(g) == 3
    assert g.num_edges() == 2
    assert g.has_edge(1, 2)
    assert not g.has_edge(2, 1)
    assert g.successors(1) == {2}
    assert g.predecessors(3) == {2}


def test_constructor_from_edges():
    g = DiGraph([(1, 2), (2, 3), (1, 3)])
    assert len(g) == 3
    assert g.num_edges() == 3


def test_parallel_edges_collapse():
    g = DiGraph([(1, 2), (1, 2)])
    assert g.num_edges() == 1


def test_self_loop_allowed():
    g = DiGraph([(1, 1)])
    assert g.has_edge(1, 1)
    assert g.successors(1) == {1}
    assert g.predecessors(1) == {1}


def test_add_node_idempotent():
    g = DiGraph([(1, 2)])
    g.add_node(1)
    assert g.successors(1) == {2}


def test_copy_is_independent():
    g = DiGraph([(1, 2)])
    h = g.copy()
    h.add_edge(2, 3)
    assert 3 not in g
    assert g.num_edges() == 1
    assert h.num_edges() == 2


def test_subgraph_induced():
    g = DiGraph([(1, 2), (2, 3), (3, 4), (1, 4)])
    s = g.subgraph([1, 2, 4])
    assert set(s.nodes()) == {1, 2, 4}
    assert s.has_edge(1, 2)
    assert s.has_edge(1, 4)
    assert not s.has_edge(3, 4)
    assert s.num_edges() == 2


def test_subgraph_missing_node_raises():
    g = DiGraph([(1, 2)])
    with pytest.raises(KeyError):
        g.subgraph([1, 99])


def test_hashable_nonint_nodes():
    g = DiGraph([("a", "b"), ("b", "c")])
    assert g.has_edge("a", "b")
    assert set(g.nodes()) == {"a", "b", "c"}


def test_edges_iteration_complete():
    edges = {(1, 2), (2, 3), (3, 1)}
    g = DiGraph(edges)
    assert set(g.edges()) == edges
