"""Tests for the 2-hop cover data structures."""

import pytest

from repro.core.cover import DistanceTwoHopCover, TwoHopCover


@pytest.fixture
def chain_cover():
    """Hand-built cover for the chain 1 -> 2 -> 3 with center 2."""
    cover = TwoHopCover([1, 2, 3])
    cover.add_lout(1, 2)
    cover.add_lin(3, 2)
    return cover


def test_connected_via_common_center(chain_cover):
    assert chain_cover.connected(1, 3)


def test_connected_reflexive(chain_cover):
    for v in (1, 2, 3):
        assert chain_cover.connected(v, v)
    assert not chain_cover.connected(99, 99)  # unregistered node


def test_connected_implicit_self_hop(chain_cover):
    # 1 -> 2: center 2 is in Lout(1) and implicitly in {2}
    assert chain_cover.connected(1, 2)
    # 2 -> 3: center 2 is implicitly in {2} and in Lin(3)
    assert chain_cover.connected(2, 3)


def test_not_connected(chain_cover):
    assert not chain_cover.connected(3, 1)
    assert not chain_cover.connected(2, 1)
    assert not chain_cover.connected(1, 99)


def test_self_entries_dropped():
    cover = TwoHopCover([1])
    cover.add_lin(1, 1)
    cover.add_lout(1, 1)
    assert cover.size == 0


def test_size_counts_both_sides(chain_cover):
    assert chain_cover.size == 2


def test_entries_iterator(chain_cover):
    assert set(chain_cover.entries()) == {("out", 1, 2), ("in", 3, 2)}


def test_descendants_ancestors(chain_cover):
    assert chain_cover.descendants(1) == {1, 2, 3}
    assert chain_cover.descendants(2) == {2, 3}
    assert chain_cover.descendants(3) == {3}
    assert chain_cover.ancestors(3) == {1, 2, 3}
    assert chain_cover.ancestors(1) == {1}
    assert chain_cover.descendants(42) == set()


def test_discard_entries(chain_cover):
    chain_cover.discard_lout(1, 2)
    assert not chain_cover.connected(1, 3)
    assert chain_cover.connected(2, 3)
    chain_cover.discard_lout(1, 2)  # idempotent


def test_set_labels_wholesale():
    cover = TwoHopCover([1, 2, 3])
    cover.add_lout(1, 2)
    cover.set_lout(1, {3})
    assert cover.lout_of(1) == {3}
    assert cover.connected(1, 3)
    # backward index updated: 2 no longer finds 1
    assert 1 not in cover.ancestors(2)


def test_remove_nodes_clears_labels_and_centers():
    cover = TwoHopCover([1, 2, 3])
    cover.add_lout(1, 2)
    cover.add_lin(3, 2)
    cover.remove_nodes({2})
    assert not cover.connected(1, 3)
    assert not cover.connected(1, 2)
    assert cover.lout_of(1) == set()
    assert cover.size == 0
    assert 2 not in cover.nodes


def test_union():
    a = TwoHopCover([1, 2])
    a.add_lout(1, 2)
    b = TwoHopCover([2, 3])
    b.add_lin(3, 2)
    a.union(b)
    assert a.connected(1, 3)
    assert a.nodes == {1, 2, 3}


def test_copy_independent(chain_cover):
    clone = chain_cover.copy()
    clone.discard_lout(1, 2)
    assert chain_cover.connected(1, 3)
    assert not clone.connected(1, 3)


def test_verify_against_detects_mismatch():
    from repro.graph import DiGraph, transitive_closure

    g = DiGraph([(1, 2)])
    closure = transitive_closure(g)
    bad = TwoHopCover([1, 2])  # empty labels: misses 1 -> 2
    with pytest.raises(AssertionError):
        bad.verify_against(closure)
    good = TwoHopCover([1, 2])
    good.add_lout(1, 2)
    good.verify_against(closure)


# ---------------------------------------------------------------------------
# distance cover
# ---------------------------------------------------------------------------


@pytest.fixture
def chain_distance_cover():
    """Distance cover for 1 -> 2 -> 3 with center 2."""
    cover = DistanceTwoHopCover([1, 2, 3])
    cover.add_lout(1, 2, 1)
    cover.add_lin(3, 2, 1)
    return cover


def test_distance_via_center(chain_distance_cover):
    assert chain_distance_cover.distance(1, 3) == 2
    assert chain_distance_cover.distance(1, 2) == 1
    assert chain_distance_cover.distance(2, 3) == 1
    assert chain_distance_cover.distance(1, 1) == 0
    assert chain_distance_cover.distance(3, 1) is None
    assert chain_distance_cover.distance(1, 42) is None


def test_distance_min_over_centers():
    # two centers witnessing different path lengths: min wins
    cover = DistanceTwoHopCover([1, 2, 3, 4])
    cover.add_lout(1, 2, 1)
    cover.add_lin(4, 2, 5)
    cover.add_lout(1, 3, 2)
    cover.add_lin(4, 3, 1)
    assert cover.distance(1, 4) == 3


def test_distance_duplicate_insert_keeps_min():
    cover = DistanceTwoHopCover([1, 2])
    cover.add_lout(1, 2, 5)
    cover.add_lout(1, 2, 3)
    cover.add_lout(1, 2, 7)
    assert cover.lout_of(1)[2] == 3


def test_distance_connected_and_neighbourhood(chain_distance_cover):
    assert chain_distance_cover.connected(1, 3)
    assert not chain_distance_cover.connected(3, 1)
    assert chain_distance_cover.descendants_within(1, 1) == {1: 0, 2: 1}
    assert chain_distance_cover.descendants_within(1, 2) == {1: 0, 2: 1, 3: 2}


def test_distance_descendants_ancestors(chain_distance_cover):
    assert chain_distance_cover.descendants(1) == {1, 2, 3}
    assert chain_distance_cover.ancestors(3) == {1, 2, 3}


def test_distance_set_and_remove():
    cover = DistanceTwoHopCover([1, 2, 3])
    cover.add_lout(1, 2, 1)
    cover.add_lin(3, 2, 1)
    cover.remove_nodes({2})
    assert cover.distance(1, 3) is None
    assert cover.size == 0


def test_distance_union_keeps_min():
    a = DistanceTwoHopCover([1, 2])
    a.add_lout(1, 2, 4)
    b = DistanceTwoHopCover([1, 2])
    b.add_lout(1, 2, 2)
    a.union(b)
    assert a.lout_of(1)[2] == 2


def test_distance_verify_against():
    from repro.graph import DiGraph, distance_closure

    g = DiGraph([(1, 2), (2, 3)])
    dc = distance_closure(g)
    cover = DistanceTwoHopCover([1, 2, 3])
    cover.add_lout(1, 2, 1)
    cover.add_lin(3, 2, 1)
    cover.verify_against(dc)
    bad = DistanceTwoHopCover([1, 2, 3])
    bad.add_lout(1, 2, 2)  # wrong distance
    bad.add_lin(3, 2, 1)
    with pytest.raises(AssertionError):
        bad.verify_against(dc)
