"""Tests for the Cohen-style 2-hop-cover builder."""

import random

import pytest

from repro.core.cover_builder import (
    build_cover,
    build_cover_for_closure,
    expand_component_cover,
    greedy_center_assignments,
)
from repro.graph import Condensation, DiGraph, transitive_closure


def _random_digraph(rng, n, m, acyclic=False):
    g = DiGraph()
    for v in range(n):
        g.add_node(v)
    for _ in range(m):
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v:
            continue
        if acyclic and u > v:
            u, v = v, u
        g.add_edge(u, v)
    return g


def test_chain():
    g = DiGraph([(1, 2), (2, 3), (3, 4)])
    cover = build_cover(g)
    cover.verify_against(transitive_closure(g))


def test_diamond():
    g = DiGraph([(1, 2), (1, 3), (2, 4), (3, 4)])
    cover = build_cover(g)
    cover.verify_against(transitive_closure(g))


def test_star_center_is_efficient():
    # K ancestors -> hub -> K descendants: the greedy algorithm should
    # label everything with the hub, giving size 2K instead of K^2.
    k = 10
    edges = [(i, "hub") for i in range(k)] + [("hub", 100 + i) for i in range(k)]
    g = DiGraph(edges)
    cover = build_cover(g)
    cover.verify_against(transitive_closure(g))
    # closure has k*k + 2k connections; a good cover stays linear
    assert cover.size <= 3 * k


def test_empty_and_isolated():
    g = DiGraph()
    g.add_node(1)
    g.add_node(2)
    cover = build_cover(g)
    assert cover.size == 0
    assert cover.connected(1, 1)
    assert not cover.connected(1, 2)


def test_cycle_members_connected():
    g = DiGraph([(1, 2), (2, 3), (3, 1), (3, 4)])
    cover = build_cover(g)
    cover.verify_against(transitive_closure(g))
    assert cover.connected(1, 1)
    assert cover.connected(2, 1)
    assert cover.connected(1, 4)
    assert not cover.connected(4, 1)


def test_two_sccs_bridge():
    g = DiGraph([(1, 2), (2, 1), (2, 3), (3, 4), (4, 3)])
    cover = build_cover(g)
    cover.verify_against(transitive_closure(g))


def test_preselected_centers_still_correct():
    g = DiGraph([(1, 2), (2, 3), (2, 4), (5, 2)])
    closure = transitive_closure(g)
    cover = build_cover_for_closure(closure, preselected_centers=[2])
    cover.verify_against(closure)
    # the preselected node must appear as a center
    centers = {c for _, _, c in cover.entries()}
    assert 2 in centers


def test_preselected_unknown_node_ignored():
    g = DiGraph([(1, 2)])
    closure = transitive_closure(g)
    cover = build_cover_for_closure(closure, preselected_centers=[99])
    cover.verify_against(closure)


def test_preselected_centers_through_build_cover_cyclic():
    g = DiGraph([(1, 2), (2, 1), (2, 3)])
    cover = build_cover(g, preselected_centers=[2])
    cover.verify_against(transitive_closure(g))


def test_cover_size_beats_closure_on_dags():
    rng = random.Random(5)
    g = _random_digraph(rng, 60, 150, acyclic=True)
    closure = transitive_closure(g)
    cover = build_cover(g)
    cover.verify_against(closure)
    if closure.num_connections > 200:
        # 2-hop covers compress dense closures
        assert cover.size < closure.num_connections


@pytest.mark.parametrize("seed", range(10))
def test_random_dags_exact(seed):
    rng = random.Random(seed)
    g = _random_digraph(rng, 25, rng.randrange(10, 80), acyclic=True)
    cover = build_cover(g)
    cover.verify_against(transitive_closure(g))


@pytest.mark.parametrize("seed", range(10))
def test_random_cyclic_exact(seed):
    rng = random.Random(100 + seed)
    g = _random_digraph(rng, 20, rng.randrange(10, 70))
    cover = build_cover(g)
    cover.verify_against(transitive_closure(g))


def test_expand_component_cover_directly():
    g = DiGraph([(1, 2), (2, 1), (2, 3)])
    cond = Condensation(g)
    dag_closure = transitive_closure(cond.dag)
    cover = expand_component_cover(greedy_center_assignments(dag_closure), cond)
    cover.verify_against(transitive_closure(g))
    # the component-level cover says the same about the condensation DAG
    build_cover_for_closure(dag_closure).verify_against(dag_closure)


def test_build_cover_with_precomputed_closure_dag():
    g = DiGraph([(1, 2), (2, 3)])
    closure = transitive_closure(g)
    cover = build_cover(g, closure=closure)
    cover.verify_against(closure)


def test_builder_deterministic():
    g = DiGraph([(1, 2), (2, 3), (1, 4), (4, 3), (3, 5)])
    a = build_cover(g)
    b = build_cover(g)
    assert set(a.entries()) == set(b.entries())
