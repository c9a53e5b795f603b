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

import gc
import random
import weakref

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import random_collections
from cover_oracle import oracle_index
from repro.core.cover import DistanceTwoHopCover, TwoHopCover
from repro.core.hopi import HopiIndex
from repro.graph.closure import distance_closure, transitive_closure
from repro.graph.traversal import descendants as graph_descendants
from repro.query.engine import QueryEngine
from repro.query.ontology import default_ontology
from repro.query.pathexpr import parse_path
from repro.storage.snapshot import canonical_snapshot_bytes
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
        # the point probe, the batch probe (list and tuple translation
        # paths) and the block probe
        assert [arrays_index.connected(u, v) for v in nodes] == expected, u
        assert arrays_index.connected_many(u, nodes) == expected, u
        assert arrays_index.connected_many(u, frozen) == expected, u
        assert row == [i for i, ok in enumerate(expected) if ok], u
        if distance:
            for v in nodes:
                assert sets_index.distance(u, v) == arrays_index.distance(u, v), (u, v)
    # ... and the point probe of a copy
    fresh = arrays_index.cover.copy()
    for u in nodes[:: max(len(nodes) // 8, 1)]:
        assert [fresh.connected(u, v) for v in nodes] == [
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


def test_every_backend_answers_the_descendant_step_identically():
    """The batch shape the query engine issues for each ``//a//b`` step
    — a document root probed against every element of the most frequent
    tag — gets bit-identical answers from everything that can answer
    it: the oracle and the cover (a list and a tuple, the block probe,
    and the block through the engine's kept center map)."""
    collection = dblp_like(30, seed=7)
    index = HopiIndex.build(
        collection, strategy="recursive", partitioner="node_weight",
        partition_limit=max(collection.num_elements // 16, 1),
    )
    tag, members = max(collection.tags().items(), key=lambda kv: (len(kv[1]), kv[0]))
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
        step = parse_path(f"//{tag}").steps[0]
        engine = engine_for(index)
        assert engine._memo(step).elems == frozen
        yield "engine", [
            [i in hits for i in range(len(frozen))]
            for hits in map(set, engine._reach_many(roots, step))
        ]

    for how, got in answers():
        assert got == expected, how


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
# the batch probes: one pure-Python center join
# ---------------------------------------------------------------------------


def _assert_groups(cover, candidates, groups) -> None:
    """``groups`` is ``center → ascending indices j`` of the active
    candidates whose ``Lin(c_j) ∪ {c_j}`` holds the center, recomputed
    here from the public labels."""
    expected = {}
    for j, c in enumerate(candidates):
        if c in cover.nodes:
            for w in sorted(set(cover.lin_of(c)) | {c}):
                expected.setdefault(w, []).append(j)
    assert groups == expected


def _assert_center_map(cover, candidates, cmap) -> None:
    """``cmap`` is the center map of ``candidates`` on ``cover`` with
    what it was built from: the active candidates, their ``Lin`` rows
    (the very objects) and the inactive candidates."""
    groups, (active, rows, inactive) = cmap
    nodes = cover.nodes
    assert active == [i for i in candidates if i in nodes]
    assert inactive == set(candidates) - nodes
    assert len(rows) == len(active)
    assert all(row is cover._lin[i] for i, row in zip(active, rows))
    _assert_groups(cover, candidates, groups)


def _assert_center_maps(engine) -> None:
    """Every center map an engine's step records hold is the map of the
    record's elements on the engine's cover, built or carried."""
    maps = [(m.elems, m.center_map) for m in engine._memos.values() if m.center_map]
    assert maps
    for elems, cmap in maps:
        _assert_center_map(engine.index.cover, elems, cmap)


@pytest.mark.parametrize("distance", [False, True])
def test_portable_seal_matches_the_oracle(distance):
    """The batch probes have one kernel everywhere, the center join
    in pure Python: the same answers as the oracle after the build and
    after every step of a maintenance script, with the center map of a
    candidate tuple (unknown ids in it too) built from exactly the
    basis it reports."""
    sets_index, arrays_index = build_pair(2, cyclic=not distance, distance=distance)

    def check():
        assert_equivalent(sets_index, arrays_index)
        cover = arrays_index.cover
        probed = tuple(sorted(arrays_index.collection.elements)) + (-1, 10**6, "ghost")
        _assert_center_map(cover, probed, cover.center_map(probed))

    check()
    for op in _maintenance_script(sets_index, random.Random(77), n_ops=6):
        _apply(sets_index, op)
        _apply(arrays_index, op)
        check()
    arrays_index.verify()


def _fork_ops(index):
    """``(name, op)`` for every maintenance op a write batch can run on
    ``index``'s ``dblp_like`` collection: each op takes the index to
    mutate. The separating delete takes a document whose root has an
    empty ``Lin``, so its root only changes activity."""
    collection = index.collection
    docs = collection.documents
    roots = {d: docs[d].root for d in sorted(docs)}
    separating = next(
        d for d in roots
        if index.document_separates(d) and not index.cover.lin_of(roots[d])
    )
    general = next(d for d in roots if not index.document_separates(d))
    author = min(collection.tags()["author"])
    cite = max(collection.tags()["cite"])
    u, v = min(collection.inter_links)

    def insert_document(index):
        root = index.collection.new_document("fresh", "article")
        child = index.collection.add_child(root.eid, "cite")
        index.collection.add_link(child.eid, roots[general])
        index.collection.add_link(cite, root.eid)
        index.insert_document("fresh")

    def delete(doc, separates):
        def op(index):
            assert index.delete_document(doc).separating is separates
        return op

    return [
        ("insert_element", lambda index: index.insert_element(author, "author")),
        ("insert_element_new_tag", lambda index: index.insert_element(author, "fresh")),
        ("insert_document", insert_document),
        ("insert_edge", lambda index: index.insert_edge(cite, roots[general])),
        ("delete_edge", lambda index: index.delete_edge(u, v)),
        ("delete_separating", delete(separating, True)),
        ("delete_theorem3", delete(general, False)),
        ("rebuild", lambda index: index.rebuild()),
    ]


#: the step keys the center-map tests probe, one step each
STEPS = [
    parse_path(path).steps[0]
    for path in ("//author", "//cite", "//title", "//article", "//*", "//~article")
]

#: one ontology for every engine, as the service keeps: engines adopt
#: step memos only from an engine with the same one
ONTOLOGY = default_ontology()


def engine_for(index, previous=None):
    return QueryEngine(index, ontology=ONTOLOGY, previous=previous)


@pytest.mark.parametrize("distance", [False, True])
def test_a_fork_reuses_a_center_map_exactly_when_its_rows_are_unchanged(distance):
    """A published epoch's center maps through ``cow_copy`` and every
    maintenance op, carried from engine to engine as the service builds
    them: behind a rolled-back trial, then on the second fork of a chain
    of two (the first engine never probed), then one epoch later. Each
    engine's forward probes answer like a fresh engine's over a
    ``copy()``, and it reuses a map (the same ``(groups, basis)``
    object) exactly when its step record was adopted and every
    candidate kept the very ``Lin`` row object it had. The cover's
    ``basis_holds`` is that rule for any candidate tuple, where activity
    moves too (an id no element holds yet is inactive until an insert
    takes it). An engine that probed lets go of what it carried."""
    collection = dblp_like(12, seed=3)
    published = HopiIndex.build(collection, distance=distance)
    tags = collection.tags()
    ghost = max(collection.elements) + 1  # the id the next insert takes
    roots = tuple(sorted(d.root for d in collection.documents.values()))
    lone = tuple(r for r in roots if not published.cover.lin_of(r))
    tuples = [tuple(sorted(tags[t])) for t in ("author", "cite")]
    tuples += [roots, lone, tuple(sorted(collection.elements)), roots + (ghost,)]

    def probe(engine):
        sources = sorted(engine.collection.elements)[::2] + [ghost, "nowhere"]
        return [engine._reach_many(sources, step) for step in STEPS]

    base_engine = engine_for(published)
    before = probe(base_engine)
    kept = {key: m.center_map for key, m in base_engine._memos.items()}
    seen = set()

    def check(fork, engine, base, name):
        fresh = engine_for(HopiIndex(fork.collection, fork.cover.copy()))
        assert probe(engine) == probe(fresh), name
        was, now = base.index.cover, fork.cover
        for step in STEPS:
            key = (step.tag, step.similar)
            theirs, mine = base._memos[key], engine._memos[key]
            adopted = mine.candidates is theirs.candidates
            rows = adopted and any(now._lin[i] is not was._lin[i] for i in mine.elems)
            reused = mine.center_map is theirs.center_map
            assert reused == (adopted and not rows), (name, key)
            assert mine.carried is None, (name, key)
            outcome = "reused" if reused else "rows" if adopted else "list"
            seen.add("engine " + outcome)
        _assert_center_maps(engine)
        for t in tuples:
            groups, basis = was.center_map(t)
            moved = any((i in was.nodes) != (i in now.nodes) for i in t)
            rows = any(now._lin[i] is not was._lin[i] for i in t if i in was.nodes)
            holds = now.basis_holds(basis)
            assert holds == (not (moved or rows)), (name, t[:4])
            if holds:
                assert now.center_map(t)[0] == groups, (name, t[:4])
            if not (moved and rows):
                seen.add("rows" if rows else "activity" if moved
                         else "ghost" if ghost in t else "reused")

    for name, op in _fork_ops(published):
        junk = published.cow_copy()
        op(junk)
        probe(engine_for(junk, previous=base_engine))  # a failed batch's trial
        first = published.cow_copy()
        op(first)
        first_engine = engine_for(first, previous=base_engine)  # never probes
        second = first.cow_copy()
        second_engine = engine_for(second, previous=first_engine)
        check(second, second_engine, base_engine, name)
        later = second.cow_copy()
        check(later, engine_for(later, previous=second_engine), second_engine,
              name + " +1 epoch")
        assert probe(base_engine) == before, name
        assert {key: m.center_map for key, m in base_engine._memos.items()} == kept
    assert seen == {"engine reused", "engine rows", "engine list",
                    "rows", "activity", "ghost", "reused"}


@pytest.mark.parametrize("cls", [TwoHopCover, DistanceTwoHopCover])
def test_a_map_no_generation_uses_dies_two_publishes_later(cls):
    """The carry is never cumulative: an engine carries the maps the
    last one used, so a map only one generation used is not kept alive
    two publishes later once the generations between are gone — here
    the ``Lin`` row its basis pins, which the next generation replaced.
    The engine after one no read reached still carries it."""
    distance = cls.is_distance_aware
    gen0 = HopiIndex.build(dblp_like(6, seed=3), distance=distance)
    assert type(gen0.cover) is cls
    author, title = parse_path("//author//title").steps
    key = (author.tag, author.similar)
    engine0 = engine_for(gen0)
    engine0._reach_many([0], author)
    a = next(i for i in engine0._memos[key].elems if gen0.cover._lin[i])
    alive = weakref.ref(gen0.cover._lin[a])
    idle = engine_for(gen0.cow_copy(), previous=engine0)  # never probes
    assert engine_for(gen0.cow_copy(), previous=idle)._memos[key].carried is (
        engine0._memos[key].center_map
    )
    gen1 = gen0.cow_copy()
    center = gen0.cover._lin[a][0]
    gen1.cover.discard_lin(a, center)  # the same centers on a new row object
    dist = (gen0.cover.lin_of(a)[center],) if distance else ()
    gen1.cover.add_lin(a, center, *dist)
    assert gen1.cover.lin_of(a) == gen0.cover.lin_of(a)
    engine1 = engine_for(gen1, previous=engine0)
    engine1._reach_many([0], title)  # probes another step only
    gen2 = gen1.cow_copy()
    engine2 = engine_for(gen2, previous=engine1)
    assert engine2._memos[key].carried is None
    del gen0, engine0, idle, gen1, engine1
    gc.collect()
    assert alive() is None
    sources = sorted(gen2.collection.elements)
    assert engine2._reach_many(sources, author) == engine_for(gen2)._reach_many(
        sources, author)


def _batch_answers(index, sources, candidates):
    """``connected_many`` per source and ``intersect_many`` over the
    block, both checked against a per-pair ``connected`` loop."""
    expected = [[index.connected(u, c) for c in candidates] for u in sources]
    assert [index.connected_many(u, candidates) for u in sources] == expected
    assert index.intersect_many(sources, candidates) == [
        [j for j, ok in enumerate(row) if ok] for row in expected
    ]
    return expected


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(3, 6), st.integers(2, 10), st.randoms(use_true_random=False),
       st.booleans())
def test_batch_probes_are_the_point_probe(n_docs, links, rng, distance):
    """``connected_many`` and ``intersect_many`` answer like ``connected``
    pair by pair, for candidate tuples and lists with duplicates, labels
    the cover never interned and nodes it removed, and for sources
    outside the cover: after the build, then on a ``cow_copy()`` fork
    probed before each of a Theorem-3 delete and inserts. The parent
    answers as it did before the fork."""
    c = random_collections.random_collection(n_docs=n_docs, inter_links=links, rng=rng)
    gone = sorted(c.elements_of(rng.choice(sorted(c.documents))))
    c.remove_document(c.elements[gone[0]].doc)
    parent = HopiIndex.build(c, distance=distance)
    ghosts = [-1, max(c.elements) + 1000, "ghost"] + gone
    pool = sorted(c.elements) + ghosts

    listed = rng.choices(pool, k=rng.randrange(1, 2 * len(pool)))
    frozen = tuple(listed)
    sources = rng.sample(pool, min(len(pool), 12)) + ghosts[:2]
    before = _batch_answers(parent, sources, frozen)
    assert _batch_answers(parent, sources, listed) == before
    fork = parent.cow_copy()
    docs = sorted(c.documents)
    general = [d for d in docs if not fork.document_separates(d)]
    victim = rng.choice(general or docs)
    anchor = rng.choice(sorted(set(c.elements) - c.elements_of(victim)))

    def delete_document(index):
        report = index.delete_document(victim, force_general=not general)
        assert report.separating is False  # Theorem 3, not Theorem 2

    def insert_document(index):
        root = index.collection.new_document("new", "r")
        child = index.collection.add_child(root.eid, "a")
        index.collection.add_link(child.eid, anchor)
        index.collection.add_link(anchor, root.eid)
        index.insert_document("new")

    mutations = [
        delete_document,
        insert_document,
        lambda index: index.insert_element(anchor, "b"),
        lambda index: index.insert_edge(anchor, rng.choice(sorted(index.collection.elements))),
    ]
    for mutate in mutations:
        _batch_answers(fork, sources, frozen)  # probed before the op
        mutate(fork)
        fresh = sorted(fork.collection.elements)
        more_sources, more = fresh[:: max(len(fresh) // 10, 1)], tuple(fresh) + frozen
        for candidates in (frozen, listed, more, list(more)):
            _batch_answers(fork, sources + more_sources, candidates)
        assert _batch_answers(parent, sources, frozen) == before
        assert _batch_answers(parent, sources, listed) == before


# ---------------------------------------------------------------------------
# the Theorem-3 splice: interned ids against the oracle's node-level loops
# ---------------------------------------------------------------------------


def _disconnecting_link(collection):
    """A link whose removal disconnects its endpoints (so even a
    reachability ``delete_edge`` re-labels a region), or None."""
    links = sorted(collection.inter_links) + sorted(
        link for d in collection.documents.values() for link in d.intra_links
    )
    for u, v in links:
        probe = collection.copy()
        probe.remove_link(u, v)
        if v not in graph_descendants(probe.element_graph(), u):
            return u, v
    return None


def _assert_probes_answer_like_bfs(index):
    """``connected_many`` and ``intersect_many`` against a BFS of the
    current element graph."""
    graph = index.collection.element_graph()
    nodes = tuple(sorted(index.collection.elements))
    block = index.intersect_many(nodes, nodes)
    for u, row in zip(nodes, block):
        reach = graph_descendants(graph, u)
        expected = [v in reach for v in nodes]
        assert index.connected_many(u, nodes) == expected, u
        assert row == [i for i, ok in enumerate(expected) if ok], u


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(3, 6), st.integers(2, 12), st.randoms(use_true_random=False),
       st.booleans(), st.booleans())
def test_the_id_splice_is_the_node_splice(n_docs, links, rng, distance, force_general):
    """A Theorem-3 document delete and a re-covering ``delete_edge`` on a
    ``cow_copy()`` fork probed before each op: the fork ends
    entry for entry where the frozen oracle ends with its node-level
    splice, the parent's bytes never move, and the batch probes answer
    like BFS after each op. The collections have document-level cycles,
    intra-links (one parallel to a tree edge, one self-loop) and the id
    gaps a deleted document leaves."""
    c = random_collections.random_collection(n_docs=n_docs, inter_links=links, rng=rng)
    c.remove_document(rng.choice(sorted(c.documents)))
    x = rng.choice(sorted(c.elements))
    c.add_link(x, c.add_child(x, "a").eid)
    c.add_link(x, x)
    a, b = rng.sample(sorted(c.documents), 2)
    c.add_link(rng.choice(sorted(c.elements_of(a))), rng.choice(sorted(c.elements_of(b))))
    c.add_link(rng.choice(sorted(c.elements_of(b))), rng.choice(sorted(c.elements_of(a))))
    parent = HopiIndex.build(c, distance=distance)
    nodes = tuple(sorted(c.elements))
    parent.connected_many(nodes[0], nodes)
    baseline = canonical_snapshot_bytes(parent.cover)
    fork, oracle = parent.cow_copy(), oracle_index(parent)
    docs = sorted(c.documents)
    general = [d for d in docs if not fork.document_separates(d)]
    force_general = force_general or not general
    victim = rng.choice(docs if force_general else general)

    def apply(op):
        _assert_probes_answer_like_bfs(fork)  # probed before the op
        report, expected = op(fork), op(oracle)
        assert report.separating is expected.separating is False
        assert report.entries_delta == expected.entries_delta
        assert sorted(fork.cover.entries()) == sorted(oracle.cover.entries())
        assert canonical_snapshot_bytes(parent.cover) == baseline
        _assert_probes_answer_like_bfs(fork)

    apply(lambda index: index.delete_document(victim, force_general=force_general))
    edge = _disconnecting_link(fork.collection)
    if edge is not None:
        apply(lambda index: index.delete_edge(*edge))
