"""Unit tests for the cover's array machinery.

Label semantics are exercised by ``test_cover.py`` and, against the
oracle, by the randomized equivalence suite (``test_equivalence.py``);
this file covers the representation: sorted-array primitives, galloping
merges, CSR round-trips, the batch constructor, and the
``connected_many`` / ``intersect_many`` hot path with its probe-cache
lifecycle (dropped on mutation, absent from pickles, deep copies and
forks, tuple-only identity cache).
"""

import copy
import pickle
from array import array

import pytest

from cover_oracle import SetDistanceCover, SetTwoHopCover
from repro.core.cover import (
    DistanceTwoHopCover,
    TwoHopCover,
    galloping_intersects,
    galloping_min_plus,
    sorted_contains,
    sorted_insert,
    sorted_remove,
)
from repro.core.hopi import HopiIndex
from repro.storage.snapshot import canonical_snapshot_bytes
from repro.xmlmodel.generator import dblp_like


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------


def test_sorted_insert_remove_contains():
    arr = array("i")
    assert sorted_insert(arr, 5) and sorted_insert(arr, 1) and sorted_insert(arr, 3)
    assert list(arr) == [1, 3, 5]
    assert not sorted_insert(arr, 3)  # duplicate
    assert sorted_contains(arr, 3) and not sorted_contains(arr, 4)
    assert sorted_remove(arr, 3) and not sorted_remove(arr, 3)
    assert list(arr) == [1, 5]


@pytest.mark.parametrize(
    "a, b, expected",
    [
        ([], [1, 2], False),
        ([1, 3, 5], [2, 4, 6], False),
        ([1, 3, 5], [5, 7], True),
        ([10], list(range(100)), True),
        ([200], list(range(100)), False),  # disjoint ranges short-circuit
        (list(range(0, 50, 2)), list(range(1, 50, 2)), False),
        ([7], [7], True),
    ],
)
def test_galloping_intersects(a, b, expected):
    assert galloping_intersects(array("i", a), array("i", b)) is expected
    assert galloping_intersects(array("i", b), array("i", a)) is expected


def test_galloping_min_plus():
    c1, d1 = array("i", [1, 4, 9]), array("i", [5, 1, 2])
    c2, d2 = array("i", [2, 4, 9]), array("i", [1, 3, 1])
    # common centers: 4 (1+3=4) and 9 (2+1=3)
    assert galloping_min_plus(c1, d1, c2, d2) == 3
    assert galloping_min_plus(c1, d1, array("i", [3]), array("i", [0])) is None
    assert galloping_min_plus(array("i"), array("i"), c2, d2) is None


# ---------------------------------------------------------------------------
# the cover protocol
# ---------------------------------------------------------------------------


def test_array_covers_satisfy_protocol():
    """The protocol is the oracle's public surface: everything a caller
    can do to the oracle it can do to the product class."""
    for product, oracle in (
        (TwoHopCover, SetTwoHopCover),
        (DistanceTwoHopCover, SetDistanceCover),
    ):
        surface = {name for name in vars(oracle) if not name.startswith("_")}
        missing = {name for name in surface if not hasattr(product, name)}
        assert missing == set(), (product.__name__, missing)
    assert not TwoHopCover.is_distance_aware
    assert DistanceTwoHopCover.is_distance_aware


def test_basic_label_semantics():
    cover = TwoHopCover([1, 2, 3, 4])
    cover.add_lout(1, 2)
    cover.add_lin(3, 2)
    assert cover.connected(1, 3)          # shared center 2
    assert cover.connected(1, 1)          # implicit self
    assert not cover.connected(3, 1)
    assert not cover.connected(1, 99)     # unknown node
    cover.add_lout(1, 3)                  # v itself as center
    assert cover.connected(1, 3)
    assert cover.lout_of(1) == {2, 3}
    assert cover.nodes_with_lout_center(2) == {1}
    assert cover.size == 3


def test_self_entries_are_dropped():
    cover = TwoHopCover([1])
    cover.add_lin(1, 1)
    cover.add_lout(1, 1)
    assert cover.size == 0


def test_discard_and_set_labels():
    cover = TwoHopCover([1, 2, 3])
    cover.add_lout(1, 2)
    cover.add_lout(1, 3)
    cover.discard_lout(1, 2)
    assert cover.lout_of(1) == {3}
    assert cover.nodes_with_lout_center(2) == set()
    cover.set_lout(1, {2})
    assert cover.lout_of(1) == {2}
    assert cover.nodes_with_lout_center(3) == set()
    cover.set_lout(1, ())
    assert cover.lout_of(1) == set()
    assert cover.size == 0


def test_remove_nodes_purges_labels_and_centers():
    cover = TwoHopCover([1, 2, 3])
    cover.add_lout(1, 2)
    cover.add_lin(3, 2)
    cover.remove_nodes({2})
    assert 2 not in cover.nodes
    assert cover.size == 0
    assert not cover.connected(1, 3)


def test_connected_many_matches_pointwise():
    cover = TwoHopCover(range(6))
    cover.add_lout(0, 2)
    cover.add_lin(3, 2)
    cover.add_lin(4, 2)
    cover.add_lout(0, 5)
    candidates = list(range(6)) + [77]
    batched = cover.connected_many(0, candidates)
    assert batched == [cover.connected(0, c) for c in candidates]
    assert cover.connected_many(77, candidates) == [False] * len(candidates)


def test_connected_many_excludes_non_universe_centers():
    """A center referenced by a label but outside the node universe is
    rejected by connected(); the batched path must agree."""
    cover = TwoHopCover([1, 2])
    cover.add_lout(1, 5)  # 5 interned as a center, never added as a node
    assert not cover.connected(1, 5)
    assert cover.connected_many(1, [5, 2, 1]) == [
        cover.connected(1, 5), cover.connected(1, 2), cover.connected(1, 1)
    ]
    sets_cover = SetTwoHopCover([1, 2])
    sets_cover.add_lout(1, 5)
    assert cover.connected_many(1, [5]) == sets_cover.connected_many(1, [5])


def test_union_and_copy_across_backends():
    """``union`` streams ``other.entries()``, so the oracle unions in."""
    sets_cover = SetTwoHopCover([1, 2, 3])
    sets_cover.add_lout(1, 2)
    arr = TwoHopCover([3, 4])
    arr.add_lin(4, 2)
    arr.union(sets_cover)
    assert arr.lout_of(1) == {2}
    assert arr.connected(1, 4)
    clone = arr.copy()
    clone.add_lout(3, 4)
    assert arr.lout_of(3) == set()


def test_distance_min_on_duplicate_insert():
    cover = DistanceTwoHopCover([1, 2, 3])
    cover.add_lout(1, 2, 5)
    cover.add_lout(1, 2, 3)   # improves
    cover.add_lout(1, 2, 9)   # ignored
    cover.add_lin(3, 2, 1)
    assert cover.distance(1, 3) == 4
    assert cover.lout_of(1) == {2: 3}
    assert cover.distance(1, 1) == 0
    assert cover.distance(3, 1) is None
    assert cover.connected(1, 3)


def test_distance_self_hop_disjuncts():
    cover = DistanceTwoHopCover([1, 2])
    cover.add_lout(1, 2, 4)   # center = v itself
    assert cover.distance(1, 2) == 4
    cover2 = DistanceTwoHopCover([1, 2])
    cover2.add_lin(2, 1, 7)   # center = u itself
    assert cover2.distance(1, 2) == 7


# ---------------------------------------------------------------------------
# CSR round-trips
# ---------------------------------------------------------------------------


def test_csr_roundtrip_reachability():
    cover = TwoHopCover(range(5))
    cover.add_lout(0, 2)
    cover.add_lin(3, 2)
    cover.add_lin(4, 0)
    back = TwoHopCover.from_csr(cover.to_csr())
    assert back.size == cover.size
    assert set(back.nodes) == set(cover.nodes)
    for u in range(5):
        for v in range(5):
            assert back.connected(u, v) == cover.connected(u, v)
        assert back.descendants(u) == cover.descendants(u)
        assert back.ancestors(u) == cover.ancestors(u)


def test_csr_roundtrip_distance():
    cover = DistanceTwoHopCover(range(5))
    cover.add_lout(0, 2, 1)
    cover.add_lin(3, 2, 2)
    cover.add_lin(4, 0, 5)
    back = DistanceTwoHopCover.from_csr(cover.to_csr())
    for u in range(5):
        for v in range(5):
            assert back.distance(u, v) == cover.distance(u, v)


def test_from_cover_preserves_entries():
    """The batch constructor keeps exactly the rows it is given (and
    their nodes join the universe, as with ``add_lin``)."""
    sets_cover = SetTwoHopCover(range(4))
    sets_cover.add_lout(0, 1)
    sets_cover.add_lout(0, 2)
    sets_cover.add_lin(3, 1)
    arr = TwoHopCover.from_entries(sets_cover.nodes, sets_cover.entries())
    assert sorted(arr.entries()) == sorted(sets_cover.entries())
    assert canonical_snapshot_bytes(arr) == canonical_snapshot_bytes(sets_cover)
    assert arr.nodes_with_lout_center(1) == {0}
    dist = SetDistanceCover(range(4))
    dist.add_lout(0, 1, 2)
    dist.add_lin(3, 1, 1)
    darr = DistanceTwoHopCover.from_entries(dist.nodes, dist.entries())
    assert sorted(darr.entries()) == sorted(dist.entries())
    assert darr.distance(0, 3) == 3
    late = TwoHopCover.from_entries([], [("out", 7, 8)])
    assert 7 in late.nodes and 8 not in late.nodes


def _tables(cover):
    """Everything a cover holds: universe and every table."""
    return (
        cover._nodes,
        {name: getattr(cover, name) for name in cover._TABLE_NAMES},
    )


@pytest.mark.parametrize("distance", [False, True])
def test_from_entries_equals_one_add_at_a_time_on_repeated_entries(distance):
    """A repeated ``(kind, node, center)`` is one entry, at its minimum
    distance, in the batch constructor as in ``add_lin`` / ``add_lout``."""
    nodes = [3, 1, 2, 1]
    if distance:
        cls = DistanceTwoHopCover
        entries = [("in", 2, 1, 3), ("in", 2, 1, 1), ("out", 1, 3, 2),
                   ("out", 1, 3, 4), ("in", 2, 3, 2)]
    else:
        cls = TwoHopCover
        entries = [("in", 2, 1), ("in", 2, 1), ("out", 1, 3), ("out", 1, 3),
                   ("in", 2, 3)]
    batch = cls.from_entries(nodes, entries)
    one_by_one = cls(sorted(nodes))
    for kind, *entry in entries:
        (one_by_one.add_lin if kind == "in" else one_by_one.add_lout)(*entry)
    assert _tables(batch) == _tables(one_by_one)
    assert batch.size == 3
    assert list(batch._inv_lin[1]) == [2]
    if distance:
        assert batch.lin_of(2) == {1: 1, 3: 2}
        assert batch.lout_of(1) == {3: 2}


# ---------------------------------------------------------------------------
# probes leave the cover as it was
# ---------------------------------------------------------------------------


def _probed_index():
    collection = dblp_like(12, seed=3)
    index = HopiIndex.build(collection)
    roots = sorted(d.root for d in collection.documents.values())
    authors = sorted(collection.tags()["author"])
    index.connected_many(roots[0], authors)
    return index, roots, authors


def _probe_answers(cover):
    """Every node's batch answers over the whole universe (the tuple
    path through ``connected_many``, the list path through the block)."""
    everyone = tuple(sorted(cover.nodes))
    return (
        [cover.connected_many(u, everyone) for u in everyone],
        cover.intersect_many(everyone, list(everyone)),
    )


def _state(cover):
    """Every attribute of the cover, by object identity."""
    return {name: id(value) for name, value in vars(cover).items()}


def _point_answers(cover):
    everyone = sorted(cover.nodes)
    rows = [[cover.connected(u, v) for v in everyone] for u in everyone]
    return rows, [[j for j, ok in enumerate(row) if ok] for row in rows]


@pytest.mark.parametrize(
    "flavour", ["TwoHopCover", "DistanceTwoHopCover", "cow_copy"]
)
def test_every_mutator_drops_the_probe_caches(flavour):
    """The cover keeps nothing a probe computes, so a mutator has no
    cache to drop: a probe leaves every attribute the object it was,
    each mutator can still resize every row the probe just read (no
    buffer view of a label row outlives a probe), and the next probe
    answers like ``connected()``."""
    cls = DistanceTwoHopCover if flavour == "DistanceTwoHopCover" else TwoHopCover
    d = (1,) if cls.is_distance_aware else ()
    cover = cls(range(5))
    cover.add_lout(0, 1, *d)
    cover.add_lin(2, 1, *d)
    parent = None
    if flavour == "cow_copy":
        parent, cover = cover, cover.cow_copy()
        parent_answers = _probe_answers(parent)
    mutations = [
        lambda: cover.add_node(6),
        lambda: cover.add_nodes([7]),
        lambda: cover.add_lin(3, 1, *d),
        lambda: cover.add_lout(4, 1, *d),
        lambda: cover.add_lout(0, 2, *d),
        lambda: cover.discard_lin(3, 1),
        lambda: cover.discard_lout(4, 1),
        lambda: cover.discard_lout(0, 2),
        lambda: cover.set_lin(3, {0: 1}),
        lambda: cover.set_lout(3, {1: 1}),
        lambda: cover.remove_nodes({4}),
        lambda: cover.union(cls([9])),
        lambda: cover.absorb_disjoint(cls([11])),
    ]
    for mutate in mutations:
        before = _state(cover)
        _probe_answers(cover)
        assert _state(cover) == before
        mutate()
        assert _probe_answers(cover) == _point_answers(cover)
    # a no-op discard changes nothing
    cover.connected_many(0, (1, 2))
    cover.discard_lin(0, 4)
    assert cover.connected_many(0, (1, 2)) == [True, True]
    if parent is not None:
        assert _probe_answers(parent) == parent_answers


@pytest.mark.parametrize("cls", [TwoHopCover, DistanceTwoHopCover])
def test_a_stored_self_entry_is_reached_once(cls):
    """``from_entries`` keeps a self-entry ``1 ∈ Lin(1)`` (no build
    writes one: the self-hop is implicit). The center map must still
    list each candidate index once per center, so a source reaching
    ``1`` gets each of its indices once."""
    d = (0,) if cls.is_distance_aware else ()
    cover = cls.from_entries([0, 1, 2], [("in", 1, 1, *d), ("in", 1, 0, *d)])
    candidates = (1, 2, 1)
    expected = [[j for j, c in enumerate(candidates) if cover.connected(u, c)]
                for u in (0, 1, 2)]
    assert cover.intersect_many([0, 1, 2], candidates) == expected
    assert expected == [[0, 2], [0, 2], [1]]


def test_sealed_cover_pickles_and_deepcopies_unsealed():
    """A pickled or deep-copied cover, copied after a batch probe ran,
    holds the same bytes and answers the batch probes alike."""
    index, roots, authors = _probed_index()
    expected = [index.connected_many(r, authors) for r in roots]
    blob = canonical_snapshot_bytes(index.cover)
    for clone in (
        pickle.loads(pickle.dumps(index.cover)),
        copy.deepcopy(index.cover),
    ):
        assert canonical_snapshot_bytes(clone) == blob
        assert [clone.connected_many(r, authors) for r in roots] == expected
    assert pickle.loads(pickle.dumps(index)).connected_many(
        roots[0], authors
    ) == expected[0]


def test_a_mutated_candidate_list_is_translated_again():
    """Nothing is grouped ahead of a call: a list changed in place
    between two calls is answered for what it holds *now*, and a tuple
    of the same content alike."""
    index, roots, authors = _probed_index()
    oracle = lambda cands: [index.connected(roots[0], c) for c in cands]  # noqa: E731
    cands = list(authors)
    assert index.connected_many(roots[0], cands) == oracle(cands)
    cands[0] = roots[1]                    # same list object, new content
    cands.append(roots[0])                 # ... and new length
    assert index.connected_many(roots[0], cands) == oracle(cands)
    rows = index.intersect_many(roots[:3], cands)
    assert rows == [
        [i for i, c in enumerate(cands) if index.connected(r, c)]
        for r in roots[:3]
    ]
    frozen = tuple(cands)
    assert index.connected_many(roots[0], frozen) == oracle(cands)
