"""Tests for Tarjan SCC + condensation, including a networkx oracle."""

import random

import networkx as nx
import pytest

from repro.graph import Condensation, DiGraph, strongly_connected_components
from acyclic import is_acyclic


def _scc_sets(components):
    return {frozenset(c) for c in components}


def test_acyclic_graph_all_trivial():
    g = DiGraph([(1, 2), (2, 3), (1, 3)])
    comps = strongly_connected_components(g)
    assert _scc_sets(comps) == {frozenset({1}), frozenset({2}), frozenset({3})}


def test_single_cycle():
    g = DiGraph([(1, 2), (2, 3), (3, 1)])
    comps = strongly_connected_components(g)
    assert _scc_sets(comps) == {frozenset({1, 2, 3})}


def test_two_cycles_bridge():
    g = DiGraph([(1, 2), (2, 1), (2, 3), (3, 4), (4, 3)])
    comps = strongly_connected_components(g)
    assert _scc_sets(comps) == {frozenset({1, 2}), frozenset({3, 4})}


def test_components_reverse_topological():
    g = DiGraph([(1, 2), (2, 3)])
    comps = strongly_connected_components(g)
    order = {frozenset(c): i for i, c in enumerate(comps)}
    # every edge goes from later to earlier in the list
    assert order[frozenset({3})] < order[frozenset({2})] < order[frozenset({1})]


def test_isolated_node_is_component():
    g = DiGraph()
    g.add_node(7)
    comps = strongly_connected_components(g)
    assert _scc_sets(comps) == {frozenset({7})}


def test_self_loop_component():
    g = DiGraph([(1, 1), (1, 2)])
    comps = strongly_connected_components(g)
    assert _scc_sets(comps) == {frozenset({1}), frozenset({2})}


def test_condensation_dag_structure():
    g = DiGraph([(1, 2), (2, 1), (2, 3), (3, 4), (4, 3), (1, 4)])
    cond = Condensation(g)
    assert len(cond) == 2
    assert is_acyclic(cond.dag)
    c12 = cond.component_of[1]
    c34 = cond.component_of[3]
    assert cond.component_of[2] == c12
    assert cond.component_of[4] == c34
    assert cond.dag.has_edge(c12, c34)
    assert not cond.dag.has_edge(c34, c12)


def test_condensation_representative_and_sizes():
    g = DiGraph([(1, 2), (2, 1), (3, 1)])
    cond = Condensation(g)
    assert cond.component_of[1] == cond.component_of[2]
    assert len(cond.members[cond.component_of[1]]) == 2
    assert len(cond.members[cond.component_of[3]]) == 1
    assert len(cond) == 2
    assert len(Condensation(DiGraph([(1, 2)]))) == 2


def test_deep_cycle_no_recursion_limit():
    n = 30_000
    edges = [(i, i + 1) for i in range(n)] + [(n, 0)]
    g = DiGraph(edges)
    comps = strongly_connected_components(g)
    assert len(comps) == 1
    assert len(comps[0]) == n + 1


@pytest.mark.parametrize("seed", range(8))
def test_scc_matches_networkx_oracle(seed):
    rng = random.Random(seed)
    n = 60
    edges = [
        (rng.randrange(n), rng.randrange(n))
        for _ in range(rng.randrange(20, 160))
    ]
    g = DiGraph(edges)
    for v in range(n):
        g.add_node(v)
    nxg = nx.DiGraph(edges)
    nxg.add_nodes_from(range(n))
    ours = _scc_sets(strongly_connected_components(g))
    theirs = {frozenset(c) for c in nx.strongly_connected_components(nxg)}
    assert ours == theirs
