"""Tests for the partition-cover joins (Sections 3.3 and 4.1).

Theorem 1 / Corollary 1 are exercised by verifying joined covers against
the transitive-closure oracle on both hand-built and random collections.
"""

import pytest

from repro.core.cover import TwoHopCover
from repro.core.cover_builder import build_cover
from repro.core.distance import build_distance_cover
from repro.core.join import (
    insert_link,
    insert_link_distance,
    join_covers_incremental,
    join_covers_incremental_distance,
    join_covers_recursive,
)
from repro.core.partitioning import (
    Partitioning,
    compute_cross_links,
    partition_by_node_weight,
)
from repro.graph import DiGraph, distance_closure, transitive_closure
from random_collections import random_collection
from repro.xmlmodel import dblp_like


def _partition_and_cover(collection, partitioning, distance=False):
    covers = []
    for docs in partitioning.partitions:
        graph = collection.subcollection(docs).element_graph()
        if distance:
            covers.append(build_distance_cover(graph))
        else:
            covers.append(build_cover(graph))
    return covers


def _manual_partitioning(collection, groups):
    part_of = {d: i for i, g in enumerate(groups) for d in g}
    return Partitioning(groups, compute_cross_links(collection, part_of), part_of)


@pytest.fixture
def chain_collection():
    """d1 -> d2 -> d3 linked in a chain (see test_skeleton fixture)."""
    from repro.xmlmodel import Collection

    c = Collection()
    r1 = c.new_document("d1", "r")
    c.add_child(r1.eid, "a")
    s1 = c.add_child(r1.eid, "s")
    r2 = c.new_document("d2", "r")
    t2 = c.add_child(r2.eid, "t")
    s2 = c.add_child(t2.eid, "s")
    c.add_child(r2.eid, "b")
    t3 = c.new_document("d3", "t")
    c.add_child(t3.eid, "c")
    c.add_link(s1.eid, t2.eid)
    c.add_link(s2.eid, t3.eid)
    return c


def test_insert_link_figure2():
    """Figure 2: v becomes the center for ancestors of u and descendants
    of v."""
    g = DiGraph([(1, 2), (3, 4)])
    cover = build_cover(g)
    cover.verify_against(transitive_closure(g))
    g.add_edge(2, 3)
    added = insert_link(cover, 2, 3)
    assert added > 0
    cover.verify_against(transitive_closure(g))
    # 3 (= v) is the center on both sides
    assert 3 in cover.lout_of(1)
    assert 3 in cover.lin_of(4)


def test_insert_link_idempotent_when_connected():
    g = DiGraph([(1, 2), (2, 3)])
    cover = build_cover(g)
    size = cover.size
    insert_link(cover, 1, 3)  # already connected: entries may be added
    cover.verify_against(transitive_closure(DiGraph([(1, 2), (2, 3), (1, 3)])))


def test_incremental_join_chain(chain_collection):
    c = chain_collection
    partitioning = _manual_partitioning(c, [["d1"], ["d2"], ["d3"]])
    covers = _partition_and_cover(c, partitioning)
    joined = join_covers_incremental(covers, partitioning.cross_links)
    joined.verify_against(transitive_closure(c.element_graph()))


def test_recursive_join_chain(chain_collection):
    c = chain_collection
    partitioning = _manual_partitioning(c, [["d1"], ["d2"], ["d3"]])
    covers = _partition_and_cover(c, partitioning)
    joined = join_covers_recursive(c, partitioning, covers)
    joined.verify_against(transitive_closure(c.element_graph()))


def test_recursive_join_no_cross_links():
    c = random_collection(n_docs=4, inter_links=0, seed=1)
    partitioning = _manual_partitioning(c, [[d] for d in sorted(c.documents)])
    covers = _partition_and_cover(c, partitioning)
    joined = join_covers_recursive(c, partitioning, covers)
    joined.verify_against(transitive_closure(c.element_graph()))


@pytest.mark.parametrize("seed", range(6))
def test_joins_agree_with_oracle_random(seed):
    c = random_collection(n_docs=6, inter_links=8, seed=seed)
    partitioning = partition_by_node_weight(c, 15, seed=seed)
    covers = _partition_and_cover(c, partitioning)
    oracle = transitive_closure(c.element_graph())
    inc = join_covers_incremental(covers, partitioning.cross_links)
    inc.verify_against(oracle)
    rec = join_covers_recursive(c, partitioning, covers)
    rec.verify_against(oracle)


def test_recursive_join_on_dblp():
    c = dblp_like(30, seed=4)
    partitioning = partition_by_node_weight(c, 120, seed=0)
    covers = _partition_and_cover(c, partitioning)
    joined = join_covers_recursive(c, partitioning, covers)
    joined.verify_against(transitive_closure(c.element_graph()))


def test_recursive_join_smaller_than_incremental_on_dblp():
    """The headline claim: the new join produces a smaller cover (Table 2
    shows ~40% reduction for P5/P10)."""
    c = dblp_like(60, seed=11)
    partitioning = partition_by_node_weight(c, 150, seed=0)
    covers = _partition_and_cover(c, partitioning)
    inc = join_covers_incremental(
        [cov.copy() for cov in covers], partitioning.cross_links
    )
    rec = join_covers_recursive(c, partitioning, covers)
    oracle = transitive_closure(c.element_graph())
    inc.verify_against(oracle)
    rec.verify_against(oracle)
    assert rec.size <= inc.size


# ---------------------------------------------------------------------------
# distance-aware joins
# ---------------------------------------------------------------------------


def test_insert_link_distance_exact():
    g = DiGraph([(1, 2), (3, 4)])
    cover = build_distance_cover(g)
    g.add_edge(2, 3)
    insert_link_distance(cover, 2, 3)
    cover.verify_against(distance_closure(g))
    assert cover.distance(1, 4) == 3


def test_insert_link_distance_improves_existing():
    g = DiGraph([(1, 2), (2, 3), (3, 4)])
    cover = build_distance_cover(g)
    assert cover.distance(1, 4) == 3
    g.add_edge(1, 4)
    insert_link_distance(cover, 1, 4)
    cover.verify_against(distance_closure(g))
    assert cover.distance(1, 4) == 1


def test_incremental_join_distance_chain(chain_collection):
    c = chain_collection
    partitioning = _manual_partitioning(c, [["d1"], ["d2"], ["d3"]])
    covers = _partition_and_cover(c, partitioning, distance=True)
    joined = join_covers_incremental_distance(covers, partitioning.cross_links)
    joined.verify_against(distance_closure(c.element_graph()))


@pytest.mark.parametrize("seed", range(4))
def test_incremental_join_distance_random(seed):
    c = random_collection(n_docs=5, inter_links=7, seed=200 + seed)
    partitioning = partition_by_node_weight(c, 12, seed=seed)
    covers = _partition_and_cover(c, partitioning, distance=True)
    joined = join_covers_incremental_distance(covers, partitioning.cross_links)
    joined.verify_against(distance_closure(c.element_graph()))


# ---------------------------------------------------------------------------
# the incremental join's empty-label short-circuit
# ---------------------------------------------------------------------------


class ProbeCountingCover(TwoHopCover):
    """A set-backed cover that counts ancestor/descendant probes."""

    def __init__(self, nodes=()):
        super().__init__(nodes)
        self.probes = 0

    def ancestors(self, v):
        self.probes += 1
        return super().ancestors(v)

    def descendants(self, u):
        self.probes += 1
        return super().descendants(u)


def test_insert_link_skips_probes_for_fresh_endpoints():
    """Regression: endpoints with empty labels have ancestors == {u} and
    descendants == {v} by definition; insert_link must not pay an
    ancestors()/descendants() probe against the growing cover for them."""
    cover = ProbeCountingCover()
    added = insert_link(cover, 1, 2)
    assert cover.probes == 0, "fresh endpoints must not probe the cover"
    assert added == 1  # exactly Lout(1) ∋ 2; Lin(2) would be a self-entry
    assert cover.connected(1, 2) and not cover.connected(2, 1)

    # a second disconnected link: still no probing needed
    insert_link(cover, 3, 4)
    assert cover.probes == 0

    # chaining onto labelled endpoints must still probe (2 has a Lin
    # entry => descendants(2) goes through the backward index; 1 now
    # carries Lout => ancestors via nodes_with_lout_center)
    insert_link(cover, 2, 3)
    assert cover.probes == 2
    g = DiGraph([(1, 2), (3, 4), (2, 3)])
    cover.verify_against(transitive_closure(g))


def test_incremental_join_probe_count_on_fresh_links():
    """Covers whose link endpoints are unlabeled join without a single
    ancestor/descendant probe (the common leaf-to-leaf link case)."""
    left = ProbeCountingCover([1, 2])    # no label entries at all
    right = ProbeCountingCover([3, 4])
    merged = join_covers_incremental(
        [left, right], [(1, 3)], cover_factory=ProbeCountingCover
    )
    assert isinstance(merged, ProbeCountingCover)
    assert merged.probes == 0
    assert merged.connected(1, 3) and not merged.connected(3, 1)
    assert merged.connected(2, 2)  # universe survived the union


def test_incremental_join_still_probes_labelled_endpoints():
    c = random_collection(n_docs=5, inter_links=9, seed=77)
    partitioning = partition_by_node_weight(c, 12, seed=0)
    covers = _partition_and_cover(c, partitioning)
    counting = join_covers_incremental(
        covers, partitioning.cross_links, cover_factory=ProbeCountingCover
    )
    counting.verify_against(transitive_closure(c.element_graph()))
    # the short-circuit is an optimisation, not a behaviour change:
    # the default factory joins to the identical cover
    plain = join_covers_incremental(covers, partitioning.cross_links)
    assert sorted(counting.entries()) == sorted(plain.entries())
