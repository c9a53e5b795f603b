"""Step memos a new generation's engine inherits from the last one.

The service builds one :class:`QueryEngine` per published epoch and
hands it the previous epoch's engine, whose per-step-key records
(candidates, elements, scores, parent map, anchored count) it adopts
for every step key whose tag lists are the same objects. The contract
pinned here: after every maintenance op an inheriting engine answers
``evaluate`` and ``count`` exactly like a fresh one, the records of
untouched tags carry their state over as the same objects, and those of
a changed tag — or, for ``*`` and ``~tag`` keys, any changed list or tag
set — are not. No probe answer is carried over: each generation's
engine starts with empty probe memos. Reads write nothing to the
cover: whatever a query derives stays in its engine. The center maps
records carry are pinned in ``tests/test_equivalence.py``.
"""

import sys
import threading

import pytest

from repro.core.hopi import HopiIndex
from repro.core.ops import apply_update_op
from repro.query.engine import QueryEngine
from repro.query.ontology import default_ontology
from repro.service import QueryService
from repro.xmlmodel.generator import dblp_like

#: ``*``, child axes, anchored paths, ``~tag`` steps, predicates and
#: windows (the window term plans some of these at their head)
QUERIES = [
    "//article//author",
    "//*//cite limit 7",
    "//*/title",
    "/article//cite",
    "/article/title",
    "//article/author offset 2",
    "//~article//author",
    "//~article",
    "//~paper/title",
    "//cite//title limit 10",
    "//article[//cite]//title",
    "//article[author]//year limit 5",
    "//publication",
    "/*//erratum",
]

ONTOLOGY = default_ontology()


def engine_for(index, previous=None):
    return QueryEngine(
        index, ontology=ONTOLOGY, max_results=10**9, previous=previous
    )


#: what a record derives from its candidate list (the last three on
#: first use)
FIELDS = ("candidates", "elems", "_scores", "_parents", "_anchored")


def answers(engine):
    """Every query's ranked list and count (this also fills the
    engine's memos for the next generation to adopt)."""
    return {
        path: (
            [(r.bindings, r.score) for r in engine.evaluate(path)],
            engine.count(path),
        )
        for path in QUERIES
    }


def find_document(index, separating):
    """A document whose delete is (or is not) separating, found by
    deleting it on a throwaway fork."""
    for doc_id in sorted(index.collection.documents):
        trial = index.cow_copy()
        report = apply_update_op(trial, {"op": "delete_document", "doc_id": doc_id})
        if report["separating"] is separating:
            return doc_id
    raise AssertionError(f"no document with separating={separating}")


def operations(index):
    """The op script: each entry is ``(name, op or callable(index) ->
    op, step keys whose memos must be kept, step keys that must be
    dropped)``."""
    roots = sorted(d.root for d in index.collection.documents.values())
    return [
        ("insert_element existing tag",
         {"op": "insert_element", "parent": roots[0], "tag": "author"},
         [("title", False), ("cite", False)],
         [("author", False), ("*", False), ("article", True)]),
        ("insert_element new tag",
         {"op": "insert_element", "parent": roots[1], "tag": "publication"},
         [("title", False), ("author", False)],
         [("article", True), ("paper", True), ("*", False)]),
        ("insert_document",
         {"op": "insert_document", "doc_id": "fresh", "root_tag": "article",
          "children": [
              {"ref": "t", "tag": "title"},
              {"ref": "c", "tag": "cite"},
              {"ref": "a", "parent": "t", "tag": "author"},
          ],
          "links": [["c", roots[2]], [roots[3], "root"]]},
         [("year", False)],
         [("article", False), ("title", False), ("cite", False)]),
        ("delete_document separating",
         lambda idx: {"op": "delete_document",
                      "doc_id": find_document(idx, True)},
         [], [("*", False), ("article", True)]),
        ("delete_document theorem 3",
         lambda idx: {"op": "delete_document",
                      "doc_id": find_document(idx, False)},
         [], [("*", False), ("article", True)]),
        ("insert_edge",
         {"op": "insert_edge", "source": roots[4], "target": roots[6]},
         "all", []),
        ("delete_edge",
         {"op": "delete_edge", "source": roots[4], "target": roots[6]},
         "all", []),
        ("rebuild", {"op": "rebuild"}, "all", []),
    ]


@pytest.mark.parametrize("distance", [False, True])
def test_an_inheriting_engine_answers_like_a_fresh_one(distance):
    index = HopiIndex.build(dblp_like(14, seed=48), distance=distance)
    previous = engine_for(index)
    answers(previous)
    for name, op, kept, dropped in operations(index):
        fork = index.cow_copy()
        apply_update_op(fork, op(fork) if callable(op) else op)
        inheriting = engine_for(fork, previous)
        fresh = engine_for(fork)
        # probe answers depend on the labels: none is carried over
        assert previous._forward or previous._backward, name
        assert not inheriting._forward and not inheriting._backward, name
        assert inheriting.probe_stats()["size"] == 0, name
        if kept == "all":
            kept = [k for k, v in previous._memos.items() if v.candidates]
        for key in kept:
            theirs = previous._memos[key]
            assert theirs.candidates, (name, key)
            for field in FIELDS:
                assert getattr(inheriting._memos[key], field) is getattr(
                    theirs, field), (name, key, field)
        for key in dropped:
            assert key in previous._memos, (name, key)
            assert key not in inheriting._memos, (name, key)
        assert answers(inheriting) == answers(fresh), name
        index, previous = fork, inheriting


def test_a_new_similar_tag_reaches_the_inheriting_engine():
    """``~article`` gains the ``publication`` list: the inheriting
    engine must not answer from the previous candidate list."""
    index = HopiIndex.build(dblp_like(6, seed=3))
    previous = engine_for(index)
    before = previous.count("//~article")
    fork = index.cow_copy()
    root = min(d.root for d in fork.collection.documents.values())
    added = fork.insert_element(root, "publication")
    inheriting = engine_for(fork, previous)
    assert inheriting.count("//~article") == before + 1
    assert added in {r.target for r in inheriting.evaluate("//~article")}


def test_nothing_is_adopted_across_ontologies():
    index = HopiIndex.build(dblp_like(6, seed=3))
    previous = engine_for(index)
    answers(previous)
    other = QueryEngine(index.cow_copy(), previous=previous)
    assert other.ontology is not previous.ontology
    assert not other._memos


def test_the_service_hands_each_epoch_the_last_engines_memos():
    index = HopiIndex.build(dblp_like(10, seed=9))
    service = QueryService(index)
    before = service._holder.current.engine
    service.query("//article//author")
    service.query("//cite//title limit 5")
    root = min(d.root for d in service.index.collection.documents.values())
    service.update([{"op": "insert_element", "parent": root, "tag": "author"}])
    after = service._holder.current.engine
    assert after is not before
    assert after._memos[("cite", False)].candidates is (
        before._memos[("cite", False)].candidates
    )
    assert ("author", False) not in after._memos
    fresh = QueryEngine(service.index)
    for path in ("//article//author", "//cite//title limit 5"):
        assert service.query(path).results == fresh.evaluate(path)


def test_publishes_race_readers_filling_the_memos():
    """Readers of the published epoch fill its engine's memos while the
    writer copies them into the next epoch's engine: with a tiny switch
    interval and more threads than cores, every update commits, no
    reader fails, and the last epoch answers like a fresh engine."""
    index = HopiIndex.build(dblp_like(8, seed=9))
    service = QueryService(index, result_cache_size=1)
    tags = sorted(index.collection.tags())
    paths = [f"//{t}" for t in tags] + [f"//~{t}//*" for t in tags]
    # absent tags memoise empty lists, which are never adopted: every
    # epoch's readers keep adding keys while the next epoch copies
    paths += [f"//absent{i}" for i in range(300)]
    root = min(d.root for d in index.collection.documents.values())
    errors = []
    stop = threading.Event()

    def reader(k):
        try:
            i = k
            while not stop.is_set():
                service.count(paths[i % len(paths)])
                i += 3
        except BaseException as exc:  # reported by the assertion below
            errors.append(exc)
            raise

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    threads = [threading.Thread(target=reader, args=(k,)) for k in range(4)]
    try:
        for t in threads:
            t.start()
        for j in range(60):
            service.update([{
                "op": "insert_element", "parent": root,
                "tag": tags[j % len(tags)],
            }])
    finally:
        stop.set()
        for t in threads:
            t.join(timeout=30)
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors
    assert service.epoch == 60
    fresh = QueryEngine(service.index)
    for path in paths:
        assert service.count(path)[1] == fresh.count(path), path


def cover_state(cover):
    """Every attribute of the cover, by object identity."""
    return {name: id(value) for name, value in vars(cover).items()}


@pytest.mark.parametrize("distance", [False, True])
def test_reads_never_write_the_cover(distance):
    """Ranked, windowed and count reads of a published epoch, and of the
    next one whose engine carries the last one's center maps, leave the
    cover's attributes the very objects they were."""
    service = QueryService(HopiIndex.build(dblp_like(10, seed=9), distance=distance))
    paths = ["//article//author", "//*//cite limit 7", "//cite//title limit 10",
             "//article[//cite]//title", "/article/title offset 2", "//~article"]
    root = min(d.root for d in service.index.collection.documents.values())
    for epoch in range(2):
        if epoch:
            service.update([{"op": "insert_element", "parent": root, "tag": "note"}])
        engine = service._holder.current.engine
        before = cover_state(engine.index.cover)
        for path in paths:
            engine.evaluate(path)
            engine.count(path)
        assert cover_state(engine.index.cover) == before, epoch
