"""Tests for the densest-subgraph 2-approximation on center graphs."""

import itertools
import random

import pytest

from repro.core.center_graph import densest_subgraph, initial_density_upper_bound


def test_densest_empty():
    assert densest_subgraph({}) == (0.0, set(), set())
    assert densest_subgraph({1: set()}) == (0.0, set(), set())


def test_densest_single_edge():
    density, in_side, out_side = densest_subgraph({1: {2}})
    assert density == pytest.approx(0.5)
    assert in_side == {1}
    assert out_side == {2}


def test_densest_complete_bipartite_is_whole_graph():
    adj = {u: {10, 11, 12} for u in (1, 2, 3)}
    density, in_side, out_side = densest_subgraph(adj)
    assert density == pytest.approx(9 / 6)
    assert in_side == {1, 2, 3}
    assert out_side == {10, 11, 12}


def test_densest_prefers_dense_core():
    # dense core: 3x3 complete; pendant: node 99 with a single edge
    adj = {u: {10, 11, 12} for u in (1, 2, 3)}
    adj[99] = {42}
    density, in_side, out_side = densest_subgraph(adj)
    assert 99 not in in_side
    assert 42 not in out_side
    assert density == pytest.approx(9 / 6)


def test_densest_overlapping_namespaces():
    # the same id on both sides must not be conflated
    adj = {1: {1, 2}, 2: {1}}
    density, in_side, out_side = densest_subgraph(adj)
    assert density == pytest.approx(3 / 4)
    assert in_side == {1, 2}
    assert out_side == {1, 2}


def _exact_densest(adj):
    """Brute-force densest subgraph over all vertex subsets (tiny inputs)."""
    in_nodes = [u for u, vs in adj.items() if vs]
    out_nodes = sorted({v for vs in adj.values() for v in vs}, key=repr)
    best = 0.0
    for r_in in range(1, len(in_nodes) + 1):
        for ins in itertools.combinations(in_nodes, r_in):
            for r_out in range(1, len(out_nodes) + 1):
                for outs in itertools.combinations(out_nodes, r_out):
                    edges = sum(
                        1 for u in ins for v in adj[u] if v in set(outs)
                    )
                    best = max(best, edges / (len(ins) + len(outs)))
    return best


@pytest.mark.parametrize("seed", range(12))
def test_densest_is_2_approximation(seed):
    rng = random.Random(seed)
    adj = {
        u: {v for v in range(10, 15) if rng.random() < 0.4}
        for u in range(4)
    }
    adj = {u: vs for u, vs in adj.items() if vs}
    if not adj:
        return
    exact = _exact_densest(adj)
    approx, in_side, out_side = densest_subgraph(adj)
    assert approx <= exact + 1e-9
    assert approx >= exact / 2 - 1e-9
    # returned density matches the returned node sets
    if in_side:
        edges = sum(1 for u in in_side for v in adj.get(u, ()) if v in out_side)
        assert approx == pytest.approx(edges / (len(in_side) + len(out_side)))


def test_initial_density_upper_bound():
    assert initial_density_upper_bound(0, 5) == 0.0
    assert initial_density_upper_bound(3, 3) == pytest.approx(1.5)
    # matches the complete-bipartite density a*d/(a+d)
    assert initial_density_upper_bound(2, 8) == pytest.approx(1.6)


@pytest.mark.parametrize("a,d", [(1, 1), (2, 3), (5, 5), (1, 9)])
def test_initial_bound_dominates_peeled_density(a, d):
    # the closed form must upper-bound what peeling finds on the actual
    # initial center graph (complete bipartite minus the diagonal)
    adj = {("i", u): {("o", v) for v in range(d)} for u in range(a)}
    density, _, _ = densest_subgraph(adj)
    assert initial_density_upper_bound(a, d) >= density - 1e-9
