"""Randomized equivalence suite: the cover vs the oracle.

The cover (:mod:`repro.core.cover`) must be indistinguishable from the
frozen ``Dict[Node, Set]`` oracle (``tests/cover_oracle.py``) at the
query interface: on seeded random DAG and cyclic collections, both must
return identical ``connected``, ``connected_many``, ``intersect_many``,
``distance``, ``ancestors`` and ``descendants`` answers — after the
initial build and after arbitrary maintenance sequences (element /
edge / document insertion, edge / document deletion), which run the
same Section-6 algorithms over each representation. Each side
maintains its own collection/cover pair in lock-step (element-id
allocation is deterministic), and the product side is additionally
checked against a from-scratch closure, so the two cannot be
identically wrong.
"""

import random

import pytest

import repro.core.cover as cover_module
from cover_oracle import oracle_index
from repro.core.hopi import HopiIndex
from repro.graph.closure import distance_closure, transitive_closure
from repro.xmlmodel.generator import dblp_like
from repro.xmlmodel.model import Collection

TAGS = ("a", "b", "c")


def random_collection(seed: int, *, n_docs: int = 5, cyclic: bool = False) -> Collection:
    """A seeded random linked collection; DAG unless ``cyclic``.

    Tree edges always point from a smaller to a larger element id (ids
    are allocated in insertion order), so restricting links to
    ``source < target`` keeps the element graph acyclic.
    """
    rng = random.Random(seed)
    collection = Collection()
    elements = []
    for i in range(n_docs):
        root = collection.new_document(f"d{i}", "r")
        members = [root.eid]
        for _ in range(rng.randrange(2, 7)):
            parent = rng.choice(members)
            members.append(collection.add_child(parent, rng.choice(TAGS)).eid)
        elements.extend(members)
    for _ in range(rng.randrange(2, 3 * n_docs)):
        u, v = rng.choice(elements), rng.choice(elements)
        if u == v:
            continue
        if not cyclic and u > v:
            u, v = v, u
        collection.add_link(u, v)
    return collection


def assert_equivalent(sets_index: HopiIndex, arrays_index: HopiIndex) -> None:
    """The oracle (``sets_index``) and the cover (``arrays_index``)
    answer identically over the full node universe."""
    nodes = sorted(sets_index.collection.elements)
    assert sorted(arrays_index.collection.elements) == nodes
    assert set(sets_index.cover.nodes) == set(arrays_index.cover.nodes)
    distance = sets_index.is_distance_aware
    frozen = tuple(nodes)
    block = arrays_index.intersect_many(nodes, frozen)
    for u, row in zip(nodes, block):
        assert sets_index.descendants(u) == arrays_index.descendants(u), u
        assert sets_index.ancestors(u) == arrays_index.ancestors(u), u
        expected = [sets_index.connected(u, v) for v in nodes]
        # the sealed point probe, the sealed batch (list and tuple
        # translation paths) and the block probe
        assert [arrays_index.connected(u, v) for v in nodes] == expected, u
        assert arrays_index.connected_many(u, nodes) == expected, u
        assert arrays_index.connected_many(u, frozen) == expected, u
        assert row == [i for i, ok in enumerate(expected) if ok], u
        if distance:
            for v in nodes:
                assert sets_index.distance(u, v) == arrays_index.distance(u, v), (u, v)
    # ... and the unsealed point probe (galloping over the mutable rows)
    unsealed = arrays_index.cover.copy()
    assert not unsealed.sealed
    for u in nodes[:: max(len(nodes) // 8, 1)]:
        assert [unsealed.connected(u, v) for v in nodes] == [
            sets_index.connected(u, v) for v in nodes
        ], u


def build_pair(seed: int, *, cyclic: bool, distance: bool, **kwargs):
    """``(oracle index, cover index)`` over twin collections."""
    kwargs = kwargs or dict(
        strategy="recursive", partitioner="node_weight", partition_limit=8
    )
    arrays_index = HopiIndex.build(
        random_collection(seed, cyclic=cyclic), distance=distance, **kwargs
    )
    return oracle_index(arrays_index), arrays_index


# ---------------------------------------------------------------------------
# equivalence after the build
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("cyclic", [False, True])
def test_reachability_build_equivalence(seed, cyclic):
    sets_index, arrays_index = build_pair(seed, cyclic=cyclic, distance=False)
    assert_equivalent(sets_index, arrays_index)
    # and both are actually correct, not just identically wrong
    oracle = transitive_closure(arrays_index.collection.element_graph())
    arrays_index.cover.verify_against(oracle)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("cyclic", [False, True])
def test_distance_build_equivalence(seed, cyclic):
    sets_index, arrays_index = build_pair(seed, cyclic=cyclic, distance=True)
    assert_equivalent(sets_index, arrays_index)
    oracle = distance_closure(arrays_index.collection.element_graph())
    arrays_index.cover.verify_against(oracle)


@pytest.mark.parametrize("strategy", ["unpartitioned", "incremental", "recursive"])
def test_all_build_strategies_equivalent(strategy):
    kwargs = dict(strategy=strategy)
    if strategy != "unpartitioned":
        kwargs.update(partitioner="closure")
    sets_index, arrays_index = build_pair(
        3, cyclic=False, distance=False, **kwargs
    )
    assert_equivalent(sets_index, arrays_index)
    assert sets_index.cover.size == arrays_index.cover.size
    arrays_index.verify()


def test_every_backend_answers_the_descendant_step_identically(monkeypatch):
    """The batch shape the query engine issues for each ``//a//b`` step
    — a document root probed against every element of the most frequent
    tag — gets bit-identical answers from everything that can answer
    it: the oracle, the sealed cover (per-call list translation, cached
    tuple translation, the block probe) and the portable kernels."""
    collection = dblp_like(30, seed=7)
    index = HopiIndex.build(
        collection, strategy="recursive", partitioner="node_weight",
        partition_limit=max(collection.num_elements // 16, 1),
    )
    _, members = max(collection.tags().items(), key=lambda kv: (len(kv[1]), kv[0]))
    candidates = sorted(members)
    roots = sorted(d.root for d in collection.documents.values())
    oracle = oracle_index(index)
    expected = [oracle.connected_many(root, candidates) for root in roots]
    assert any(any(row) for row in expected)

    def answers():
        yield "list", [index.connected_many(r, candidates) for r in roots]
        frozen = tuple(candidates)
        yield "tuple", [index.connected_many(r, frozen) for r in roots]
        yield "block", [
            [i in hits for i in range(len(frozen))]
            for hits in map(set, index.intersect_many(roots, frozen))
        ]

    for how, got in answers():
        assert got == expected, how
    monkeypatch.setattr(cover_module, "_np", None)
    index.cover = index.cover.copy()  # reseal without numpy views
    for how, got in answers():
        assert got == expected, f"portable {how}"


# ---------------------------------------------------------------------------
# equivalence through maintenance sequences
# ---------------------------------------------------------------------------


def _maintenance_script(index: HopiIndex, rng: random.Random, n_ops: int):
    """A reproducible op list derived from the collection's structure."""
    ops = []
    collection = index.collection
    links = sorted(collection.inter_links) + sorted(
        link for d in collection.documents.values() for link in d.intra_links
    )
    docs = sorted(collection.documents)
    elements = sorted(collection.elements)
    for i in range(n_ops):
        kind = rng.choice(
            ["insert_element", "insert_edge", "delete_edge", "delete_document",
             "insert_document"]
        )
        if kind == "insert_element":
            ops.append(("insert_element", rng.choice(elements), rng.choice(TAGS)))
        elif kind == "insert_edge":
            u, v = rng.choice(elements), rng.choice(elements)
            if u != v:
                ops.append(("insert_edge", u, v))
        elif kind == "delete_edge" and links:
            ops.append(("delete_edge",) + links[rng.randrange(len(links))])
        elif kind == "delete_document" and len(docs) > 2:
            ops.append(("delete_document", docs[rng.randrange(len(docs))],
                        rng.random() < 0.3))
        elif kind == "insert_document":
            ops.append(("insert_document", f"new{i}", rng.choice(elements)))
    return ops


def _apply(index: HopiIndex, op) -> None:
    kind = op[0]
    collection = index.collection
    if kind == "insert_element":
        _, parent, tag = op
        if parent in collection.elements:
            index.insert_element(parent, tag)
    elif kind == "insert_edge":
        _, u, v = op
        if u in collection.elements and v in collection.elements:
            index.insert_edge(u, v)
    elif kind == "delete_edge":
        _, u, v = op
        still_link = (u, v) in collection.inter_links or any(
            (u, v) in d.intra_links for d in collection.documents.values()
        )
        if still_link:
            index.delete_edge(u, v)
    elif kind == "delete_document":
        _, doc_id, force_general = op
        if doc_id in collection.documents:
            index.delete_document(doc_id, force_general=force_general)
    elif kind == "insert_document":
        _, doc_id, link_target = op
        root = collection.new_document(doc_id, "r")
        child = collection.add_child(root.eid, "a")
        if link_target in collection.elements:
            collection.add_link(child.eid, link_target)
        index.insert_document(doc_id)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("cyclic", [False, True])
def test_maintenance_equivalence(seed, cyclic):
    sets_index, arrays_index = build_pair(seed, cyclic=cyclic, distance=False)
    assert sets_index.collection is not arrays_index.collection
    rng = random.Random(1000 + seed)
    ops = _maintenance_script(sets_index, rng, n_ops=8)
    for op in ops:
        _apply(sets_index, op)
        _apply(arrays_index, op)
        assert_equivalent(sets_index, arrays_index)
    # the maintained array cover still matches a from-scratch oracle
    oracle = transitive_closure(arrays_index.collection.element_graph())
    arrays_index.cover.verify_against(
        oracle, nodes=arrays_index.collection.elements
    )


@pytest.mark.parametrize("seed", range(3))
def test_maintenance_equivalence_distance(seed):
    sets_index, arrays_index = build_pair(seed, cyclic=False, distance=True)
    rng = random.Random(2000 + seed)
    ops = _maintenance_script(sets_index, rng, n_ops=8)
    for op in ops:
        _apply(sets_index, op)
        _apply(arrays_index, op)
        assert_equivalent(sets_index, arrays_index)
    oracle = distance_closure(arrays_index.collection.element_graph())
    arrays_index.cover.verify_against(
        oracle, nodes=arrays_index.collection.elements
    )


# ---------------------------------------------------------------------------
# the portable seal (what a host without numpy runs)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("distance", [False, True])
def test_portable_seal_matches_the_oracle(monkeypatch, distance):
    """With the cover module's numpy handle gone, the seal packs plain
    ``array`` slabs and the probes take the id-list / set-membership
    branches (``_desc_set``, ``_Slabs`` without ``np_data``) — the only
    paths a numpy-less host (CI) has. Same answers as the oracle, after
    the build and after every step of a maintenance script."""
    monkeypatch.setattr(cover_module, "_np", None)
    sets_index, arrays_index = build_pair(2, cyclic=not distance, distance=distance)
    assert_equivalent(sets_index, arrays_index)
    assert arrays_index.cover.sealed
    assert arrays_index.cover._slabs.np_data is None
    for op in _maintenance_script(sets_index, random.Random(77), n_ops=6):
        _apply(sets_index, op)
        _apply(arrays_index, op)
        assert_equivalent(sets_index, arrays_index)
    arrays_index.verify()
