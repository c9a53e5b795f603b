"""Unit tests for traversals and reachability primitives."""

import pytest

from acyclic import is_acyclic
from repro.graph import (
    DiGraph,
    ancestors,
    bfs_distances,
    bfs_order,
    descendants,
    is_reachable,
)
from repro.graph.traversal import multi_source_reaches


@pytest.fixture
def diamond():
    #   1
    #  / \
    # 2   3
    #  \ /
    #   4 -> 5
    return DiGraph([(1, 2), (1, 3), (2, 4), (3, 4), (4, 5)])


def test_bfs_order_levels(diamond):
    order = bfs_order(diamond, 1)
    assert order[0] == 1
    assert set(order[1:3]) == {2, 3}
    assert order[3] == 4
    assert order[4] == 5


def test_bfs_distances(diamond):
    d = bfs_distances(diamond, 1)
    assert d == {1: 0, 2: 1, 3: 1, 4: 2, 5: 3}


def test_bfs_distances_reverse(diamond):
    d = bfs_distances(diamond, 4, reverse=True)
    assert d == {4: 0, 2: 1, 3: 1, 1: 2}


def test_bfs_distances_max_depth(diamond):
    d = bfs_distances(diamond, 1, max_depth=1)
    assert d == {1: 0, 2: 1, 3: 1}


def test_descendants(diamond):
    assert descendants(diamond, 1) == {1, 2, 3, 4, 5}
    assert descendants(diamond, 1, strict=True) == {2, 3, 4, 5}
    assert descendants(diamond, 5) == {5}
    assert descendants(diamond, 5, strict=True) == set()


def test_ancestors(diamond):
    assert ancestors(diamond, 4) == {1, 2, 3, 4}
    assert ancestors(diamond, 4, strict=True) == {1, 2, 3}
    assert ancestors(diamond, 1, strict=True) == set()


def test_is_reachable(diamond):
    assert is_reachable(diamond, 1, 5)
    assert is_reachable(diamond, 2, 5)
    assert not is_reachable(diamond, 5, 1)
    assert is_reachable(diamond, 3, 3)  # reflexive


def test_is_reachable_cycle():
    g = DiGraph([(1, 2), (2, 3), (3, 1)])
    assert is_reachable(g, 1, 1)
    assert is_reachable(g, 3, 2)


def test_multi_source_reaches():
    g = DiGraph([(1, 2), (2, 3), (4, 3)])
    assert multi_source_reaches(g, [1], {3})
    assert not multi_source_reaches(g, [3], {1})
    assert multi_source_reaches(g, [1, 4], {3})


def test_multi_source_reaches_forbidden():
    # 1 -> 2 -> 3 only path goes through 2
    g = DiGraph([(1, 2), (2, 3)])
    assert not multi_source_reaches(g, [1], {3}, forbidden={2})
    g.add_edge(1, 3)
    assert multi_source_reaches(g, [1], {3}, forbidden={2})


def test_multi_source_source_in_targets():
    g = DiGraph([(1, 2)])
    assert multi_source_reaches(g, [1], {1})


def test_multi_source_skips_missing_sources():
    g = DiGraph([(1, 2)])
    assert not multi_source_reaches(g, [99], {2})
    assert multi_source_reaches(g, [99, 1], {2})


def test_is_acyclic(diamond):
    assert is_acyclic(diamond)
    diamond.add_edge(5, 1)
    assert not is_acyclic(diamond)


def test_deep_chain_no_recursion_limit():
    n = 50_000
    g = DiGraph((i, i + 1) for i in range(n))
    assert bfs_distances(g, 0)[n] == n
    assert len(descendants(g, 0)) == n + 1
    assert ancestors(g, n, strict=True) == set(range(n))
    assert is_reachable(g, 0, n)
    assert is_acyclic(g)
