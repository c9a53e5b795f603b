"""Tests for the transitive-closure engines, with networkx oracle checks."""

import random

import networkx as nx
import pytest

from repro.graph import (
    DiGraph,
    DistanceClosure,
    distance_closure,
    transitive_closure,
    transitive_closure_size,
)
from repro.graph.closure import ClosureBudgetExceeded, condensation_closure
from repro.graph.condensation import Condensation


def test_chain_closure():
    g = DiGraph([(1, 2), (2, 3), (3, 4)])
    c = transitive_closure(g)
    assert c.reach[1] == {2, 3, 4}
    assert c.reach[2] == {3, 4}
    assert c.reach[4] == set()
    assert c.num_connections == 6


def test_closure_reflexive_convention():
    g = DiGraph([(1, 2)])
    c = transitive_closure(g)
    assert c.contains(1, 1)  # reflexive, implicit
    assert c.contains(2, 2)
    assert c.contains(1, 2)
    assert not c.contains(2, 1)
    assert not c.contains(99, 99)  # unknown node


def test_closure_cycle_members_reach_each_other():
    g = DiGraph([(1, 2), (2, 3), (3, 1), (3, 4)])
    c = transitive_closure(g)
    assert c.reach[1] == {2, 3, 4}
    assert c.reach[2] == {1, 3, 4}
    assert c.reach[3] == {1, 2, 4}
    assert 1 not in c.reach[1]  # self never stored
    assert c.reach[4] == set()


def test_closure_self_loop_not_stored():
    g = DiGraph([(1, 1), (1, 2)])
    c = transitive_closure(g)
    assert c.reach[1] == {2}


def test_ancestors_view():
    g = DiGraph([(1, 3), (2, 3), (3, 4)])
    c = transitive_closure(g)
    assert c.ancestors_of(4) == {1, 2, 3}
    assert c.ancestors_of(3) == {1, 2}
    assert c.ancestors_of(1) == set()


def test_connections_iterator_and_counts():
    g = DiGraph([(1, 2), (2, 3)])
    c = transitive_closure(g)
    assert set(c.connections()) == {(1, 2), (1, 3), (2, 3)}
    assert c.num_connections == 3
    assert c.num_nodes == 3


def test_budget_exceeded():
    g = DiGraph((i, i + 1) for i in range(30))
    with pytest.raises(ClosureBudgetExceeded):
        transitive_closure(g, max_connections=10)
    with pytest.raises(ClosureBudgetExceeded) as exc:
        transitive_closure_size(g, max_connections=10)
    assert exc.value.count > 10


def test_budget_not_exceeded_exact_size():
    g = DiGraph([(1, 2), (2, 3)])
    assert transitive_closure_size(g) == 3
    assert transitive_closure_size(g, max_connections=3) == 3


def test_size_counts_cycles():
    g = DiGraph([(1, 2), (2, 1)])
    # 1->2, 2->1 (intra-component pairs)
    assert transitive_closure_size(g) == 2


@pytest.mark.parametrize("seed", range(10))
def test_closure_matches_networkx_oracle(seed):
    rng = random.Random(seed)
    n = 40
    edges = [
        (rng.randrange(n), rng.randrange(n))
        for _ in range(rng.randrange(10, 120))
    ]
    g = DiGraph(edges)
    for v in range(n):
        g.add_node(v)
    c = transitive_closure(g)
    nxg = nx.DiGraph(edges)
    nxg.add_nodes_from(range(n))
    for v in range(n):
        expected = set(nx.descendants(nxg, v))
        assert c.reach[v] == expected, f"node {v} seed {seed}"
    assert transitive_closure_size(g) == c.num_connections


@pytest.mark.parametrize("seed", range(10))
def test_condensation_closure_is_the_dag_closure_in_the_same_order(seed):
    """One SCC pass instead of two: closing ``cond.dag`` directly gives
    the rows, the key order and the per-row iteration order of
    ``transitive_closure(cond.dag)`` (the cover builder's tie-breaks
    follow both orders)."""
    rng = random.Random(seed)
    n = 120
    edges = [
        (rng.randrange(n), rng.randrange(n))
        for _ in range(rng.randrange(60, 400))
    ]
    cond = Condensation(DiGraph(edges))
    direct = condensation_closure(cond)
    twice = transitive_closure(cond.dag)
    assert list(direct.reach) == list(twice.reach)
    for cid, row in twice.reach.items():
        assert list(direct.reach[cid]) == list(row), f"component {cid}"


# ---------------------------------------------------------------------------
# distance closure
# ---------------------------------------------------------------------------


def test_distance_chain():
    g = DiGraph([(1, 2), (2, 3), (3, 4)])
    d = distance_closure(g)
    assert d.distance(1, 4) == 3
    assert d.distance(1, 1) == 0
    assert d.distance(4, 1) is None
    assert d.distance(99, 1) is None


def test_distance_shortcut_wins():
    g = DiGraph([(1, 2), (2, 3), (1, 3)])
    d = distance_closure(g)
    assert d.distance(1, 3) == 1


def test_distance_cycle():
    g = DiGraph([(1, 2), (2, 3), (3, 1)])
    d = distance_closure(g)
    assert d.distance(1, 3) == 2
    assert d.distance(3, 2) == 2
    # self distance is implicit 0, not the cycle length
    assert d.distance(1, 1) == 0
    assert 1 not in d.dist[1]


def test_distance_ancestors_view():
    g = DiGraph([(1, 2), (2, 3)])
    d = distance_closure(g)
    assert d.ancestors_of(3) == {1: 2, 2: 1}
    assert d.ancestors_of(1) == {}


def test_distance_connections_iterator():
    g = DiGraph([(1, 2), (2, 3)])
    d = distance_closure(g)
    assert set(d.connections()) == {(1, 2, 1), (1, 3, 2), (2, 3, 1)}
    assert d.num_connections == 3


@pytest.mark.parametrize("seed", range(6))
def test_distance_matches_networkx_oracle(seed):
    rng = random.Random(1000 + seed)
    n = 30
    edges = [
        (rng.randrange(n), rng.randrange(n))
        for _ in range(rng.randrange(10, 90))
    ]
    g = DiGraph(edges)
    for v in range(n):
        g.add_node(v)
    d = distance_closure(g)
    nxg = nx.DiGraph(edges)
    nxg.add_nodes_from(range(n))
    lengths = dict(nx.all_pairs_shortest_path_length(nxg))
    for u in range(n):
        expected = {v: l for v, l in lengths.get(u, {}).items() if v != u}
        assert d.dist[u] == expected
