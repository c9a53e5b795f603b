"""Tests for the distance-aware 2-hop cover (Section 5)."""

import random

import pytest

from repro.core.distance import (
    DENSITY_SAMPLE_BUDGET,
    build_distance_cover,
    estimate_center_graph_edges,
    initial_distance_priority,
)
from repro.graph import DiGraph, distance_closure


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


def test_chain_distances():
    g = DiGraph([(1, 2), (2, 3), (3, 4)])
    cover = build_distance_cover(g)
    cover.verify_against(distance_closure(g))
    assert cover.distance(1, 4) == 3
    assert cover.distance(4, 1) is None


def test_shortcut_distance():
    g = DiGraph([(1, 2), (2, 3), (1, 3)])
    cover = build_distance_cover(g)
    assert cover.distance(1, 3) == 1


def test_diamond_distances():
    g = DiGraph([(1, 2), (1, 3), (2, 4), (3, 4), (4, 5)])
    cover = build_distance_cover(g)
    cover.verify_against(distance_closure(g))


def test_cycle_distances():
    g = DiGraph([(1, 2), (2, 3), (3, 1), (3, 4)])
    cover = build_distance_cover(g)
    cover.verify_against(distance_closure(g))
    assert cover.distance(1, 3) == 2
    assert cover.distance(3, 2) == 2


def test_center_must_lie_on_shortest_path():
    # 1 -> 2 -> 4 and 1 -> 3 -> 4 plus a long detour 2 -> 5 -> 6 -> 4:
    # if 5 or 6 were used as a center for (1, 4) the reported distance
    # would be wrong.
    g = DiGraph([(1, 2), (2, 4), (1, 3), (3, 4), (2, 5), (5, 6), (6, 4)])
    cover = build_distance_cover(g)
    assert cover.distance(1, 4) == 2
    cover.verify_against(distance_closure(g))


def test_preselected_centers_distance():
    g = DiGraph([(1, 2), (2, 3), (2, 4)])
    cover = build_distance_cover(g, preselected_centers=[2])
    cover.verify_against(distance_closure(g))


@pytest.mark.parametrize("seed", range(8))
def test_random_dags_distances_exact(seed):
    rng = random.Random(seed)
    g = _random_digraph(rng, 18, rng.randrange(10, 60), acyclic=True)
    cover = build_distance_cover(g)
    cover.verify_against(distance_closure(g))


@pytest.mark.parametrize("seed", range(8))
def test_random_cyclic_distances_exact(seed):
    rng = random.Random(500 + seed)
    g = _random_digraph(rng, 14, rng.randrange(8, 50))
    cover = build_distance_cover(g)
    cover.verify_against(distance_closure(g))


def test_distance_cover_deterministic():
    g = DiGraph([(1, 2), (2, 3), (1, 4), (4, 3)])
    a = build_distance_cover(g, seed=1)
    b = build_distance_cover(g, seed=1)
    assert sorted(a.entries()) == sorted(b.entries())


def test_small_sample_budget_still_exact():
    # the sampled estimate only seeds priorities; correctness must hold
    # even with a tiny budget
    rng = random.Random(3)
    g = _random_digraph(rng, 15, 40, acyclic=True)
    cover = build_distance_cover(g, sample_budget=8)
    cover.verify_against(distance_closure(g))


# ---------------------------------------------------------------------------
# density estimation (Section 5.2)
# ---------------------------------------------------------------------------


def test_estimate_excludes_non_shortest_paths():
    g = DiGraph([(1, 2), (2, 3), (1, 3)])
    dc = distance_closure(g)
    # center 2: (1,3) has d=1 but the path through 2 has length 2 -> not
    # a center-graph edge; (1,2) and (2,3) trivially are.
    anc = dict(dc.ancestors_of(2))
    anc[2] = 0
    desc = dict(dc.descendants_of(2))
    desc[2] = 0
    rng = random.Random(0)
    estimate = estimate_center_graph_edges(2, dc, anc, desc, rng)
    assert estimate == 2.0


def test_estimate_counts_shortest_path_pairs():
    g = DiGraph([(1, 2), (2, 3)])
    dc = distance_closure(g)
    anc = dict(dc.ancestors_of(2))
    anc[2] = 0
    desc = dict(dc.descendants_of(2))
    desc[2] = 0
    rng = random.Random(0)
    # candidates: (1,3) through 2, plus the reflexive-side pairs (1,2)
    # and (2,3) -> exactly 3 edges
    assert estimate_center_graph_edges(2, dc, anc, desc, rng) == 3.0


def test_estimate_sampling_upper_bounds_true_count():
    """Section 5.2's claim: the sampled estimate (98% CI upper bound)
    'never exceeded the real maximal density' — i.e. it upper-bounds the
    edge count with high probability."""
    rng = random.Random(9)
    g = _random_digraph(rng, 60, 600, acyclic=True)
    dc = distance_closure(g)
    hub = max(g, key=lambda v: len(dc.ancestors_of(v)) * len(dc.descendants_of(v)))
    anc = dict(dc.ancestors_of(hub))
    anc[hub] = 0
    desc = dict(dc.descendants_of(hub))
    desc[hub] = 0
    exact = estimate_center_graph_edges(
        hub, dc, anc, desc, random.Random(0), sample_budget=10**9
    )
    total = (len(anc) - 1) * (len(desc) - 1)
    if total <= 64:
        pytest.skip("center graph too small to force sampling")
    sampled = estimate_center_graph_edges(
        hub, dc, anc, desc, random.Random(1), sample_budget=64
    )
    # the CI upper bound should not fall below the truth (98% per draw;
    # seeds fixed so the test is deterministic)
    assert sampled >= exact * 0.8


def test_initial_distance_priority_formula():
    assert initial_distance_priority(0.0) == 0.0
    assert initial_distance_priority(16.0) == pytest.approx(2.0)
    assert initial_distance_priority(100.0) == pytest.approx(5.0)


def test_sample_budget_constant_matches_paper():
    assert DENSITY_SAMPLE_BUDGET == 13_600
