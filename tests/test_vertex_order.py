"""The stored vertex order: one rank per interned id, kept by the cover.

The product build stores each vertex's PLL sort key as its rank; inserts
store one for their new vertices; a Theorem-3 region re-label sorts the
region by ``(rank descending, id)`` instead of recomputing the key over
the whole collection. These tests pin the order itself, that a delete
pays nothing per collection for it, and that it survives the durable
store's ``cover.snap``.
"""

import io
from collections import Counter

import pytest

from repro.core import cover_builder, maintenance
from repro.core.cover_builder import build_pll_cover, reach_multiplier
from repro.core.hopi import HopiIndex
from repro.graph.traversal import descendants as graph_descendants
from repro.service.service import QueryService
from repro.storage.snapshot import (
    canonical_snapshot_bytes, dump_ranked_snapshot, dump_snapshot, read_snapshot,
    snapshot_to_bytes,
)
from repro.storage.wal import DurableIndexStore
from random_collections import random_collection
from repro.xmlmodel import Collection, dblp_like


def _non_separating(index):
    """The first document (by id) whose delete takes Theorem 3."""
    return next(
        d for d in sorted(index.collection.documents)
        if not index.document_separates(d)
    )


def _fresh_key(multiplier, x, graph):
    succ = graph.successors(x) - {x}
    pred = graph.predecessors(x) - {x}
    return (len(succ) + 1) * (len(pred) + 1) * multiplier.get(x, 1)


@pytest.mark.parametrize("distance", [False, True])
def test_a_fresh_build_stores_the_reach_key_as_its_ranks(distance):
    """Every element's stored rank is ``(out + 1) * (in + 1)`` on the
    element graph times :func:`reach_multiplier`: the key the build
    sorted by, on a corpus with document-level cycles and intra-links
    too."""
    cyclic = random_collection(n_docs=12, inter_links=30, seed=8)
    for c in (dblp_like(20, seed=5), cyclic):
        cover = HopiIndex.build(c, distance=distance).cover
        multiplier = reach_multiplier(c)
        graph = c.element_graph()
        nodes = sorted(c.elements)
        assert cover.ranks(nodes) == [
            _fresh_key(multiplier, x, graph) for x in nodes
        ]


@pytest.mark.parametrize("distance", [False, True])
def test_a_region_relabels_in_the_stored_order(monkeypatch, distance):
    """The Theorem-3 re-label is ``build_pll_cover`` on the region's
    part of the element graph in the order ``(stored rank descending,
    id)``, an inserted leaf (rank 2) and an inserted document (ranks by
    its own degrees) in the region included."""
    c = dblp_like(30, seed=5)
    index = HopiIndex.build(c, distance=distance)
    victim = _non_separating(index)
    # a leaf under, and a document citing, the root of a document that
    # links into the victim: both land in its region
    source = next(u for u, v in sorted(c.inter_links) if c.doc(v) == victim)
    root = c.documents[c.doc(source)].root
    leaf = index.insert_element(root, "note")
    fresh_doc = c.new_document("fresh", "article")
    cite = c.add_child(c.add_child(fresh_doc.eid, "citations").eid, "cite")
    c.add_link(cite.eid, root)
    index.insert_document("fresh")
    assert index.cover.ranks([leaf]) == [2]
    # the root has one child and no parent, the cite a parent and no
    # child: inter-document links do not count
    assert index.cover.ranks([fresh_doc.eid, cite.eid]) == [2, 2]
    seen = []
    real = maintenance.build_pll_cover

    def spy(nodes, succ, **kwargs):
        fresh = real(nodes, succ, **kwargs)
        seen.append((sorted(set(nodes)), kwargs["order"], fresh))
        return fresh

    monkeypatch.setattr(maintenance, "build_pll_cover", spy)
    assert index.delete_document(victim).separating is False
    monkeypatch.undo()
    (region, order, fresh), = seen
    assert {leaf, fresh_doc.eid, cite.eid} <= set(region)
    ranks = dict(zip(region, index.cover.ranks(region)))
    assert all(ranks.values())
    expected_order = sorted(region, key=lambda x: (-ranks[x], x))
    assert order == expected_order
    graph = c.element_graph()
    edges = [(u, v) for u in region for v in graph.successors(u)]
    assert set(v for _, v in edges) <= set(region)  # closed under reach
    expected = build_pll_cover(region, edges, distance=distance, order=expected_order)
    assert snapshot_to_bytes(fresh) == snapshot_to_bytes(expected)
    index.verify()


def _disconnecting_link(c, avoid):
    """An inter-document link away from the documents ``avoid`` whose
    removal disconnects its endpoints (so ``delete_edge`` re-labels)."""
    for u, v in sorted(c.inter_links):
        if {c.doc(u), c.doc(v)} & set(avoid):
            continue
        probe = c.copy()
        probe.remove_link(u, v)
        if v not in graph_descendants(probe.element_graph(), u):
            return u, v
    raise AssertionError("no disconnecting link")


@pytest.mark.parametrize("distance", [False, True])
def test_theorem3_deletes_on_a_pll_index_pay_nothing_per_collection(
    monkeypatch, distance
):
    """Once the collection keeps its link index (the separator test
    that picked the victim built it), a non-separating delete, a
    re-covering ``delete_edge`` and a separating delete on a PLL-built
    index call no ``reach_multiplier`` and build no document graph and
    no whole link list."""
    c = dblp_like(20, seed=5)
    index = HopiIndex.build(c, distance=distance)
    victim = _non_separating(index)
    separating = next(
        d for d in sorted(c.documents) if d != victim and index.document_separates(d)
    )
    edge = _disconnecting_link(c, avoid=(victim, separating))
    calls = Counter()
    for owner, name in [
        (maintenance, "reach_multiplier"),
        (cover_builder, "reach_multiplier"),
        (Collection, "document_graph"),
        (Collection, "all_links"),
        (Collection, "element_graph"),
    ]:
        real = getattr(owner, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    reports = [
        index.delete_document(victim),
        index.delete_edge(*edge),
        index.delete_document(separating),
    ]
    assert [r.separating for r in reports] == [False, False, True]
    assert not calls, calls
    monkeypatch.undo()
    index.verify()


# ---------------------------------------------------------------------------
# durability
# ---------------------------------------------------------------------------


def _serving(tmp_path, index):
    store = DurableIndexStore(str(tmp_path / "store"), checkpoint_interval=100)
    store.initialize(index)
    return QueryService(index, durable_store=store), store


def _insert_document_op(target):
    return {
        "op": "insert_document", "doc_id": "fresh", "root_tag": "article",
        "children": [
            {"ref": "c", "parent": "root", "tag": "citations"},
            {"ref": "x", "parent": "c", "tag": "cite"},
        ],
        "links": [["x", target]],
    }


def test_cover_snap_round_trips_the_ranks(tmp_path):
    """The checkpointed ``cover.snap`` holds a rank for every active
    node, the build's and an inserted document's, and recovery reads
    them back."""
    index = HopiIndex.build(dblp_like(12, seed=3))
    service, store = _serving(tmp_path, index)
    root = index.collection.documents["dblp2"].root
    service.update([_insert_document_op(root)])
    store.checkpoint(service.index)
    live = service.index.cover
    nodes = sorted(live.nodes)
    with open(store.cover_path, "rb") as fh:
        fh.read(8)  # the epoch
        snapped = read_snapshot(fh)
    assert snapped.ranks(nodes) == live.ranks(nodes)
    assert all(snapped.ranks(nodes))
    recovered = DurableIndexStore(store.root).recover()
    assert recovered.cover.ranks(nodes) == live.ranks(nodes)


@pytest.mark.parametrize("distance", [False, True])
def test_a_replayed_theorem3_delete_ends_where_the_live_one_did(tmp_path, distance):
    """A checkpoint after an inserted document, then a Theorem-3 delete
    in the WAL tail: the store recovered from ``cover.snap`` replays the
    delete in the stored order and ends byte for byte at the live
    index."""
    index = HopiIndex.build(dblp_like(20, seed=5), distance=distance)
    service, store = _serving(tmp_path, index)
    victim = _non_separating(index)
    citing = next(
        u for u, v in sorted(index.collection.inter_links)
        if index.collection.doc(v) == victim
    )
    citing_root = index.collection.documents[index.collection.doc(citing)].root
    service.update([_insert_document_op(citing_root)])
    store.checkpoint(service.index)
    reports = service.update([{"op": "delete_document", "doc_id": victim}])["reports"]
    assert reports[0]["separating"] is False
    live = service.index
    recovered = DurableIndexStore(store.root).recover()
    assert recovered.epoch == live.epoch
    assert canonical_snapshot_bytes(recovered.cover) == canonical_snapshot_bytes(
        live.cover
    )
    nodes = sorted(live.cover.nodes)
    assert recovered.cover.ranks(nodes) == live.cover.ranks(nodes)
    recovered.verify()


@pytest.mark.parametrize("distance", [False, True])
def test_a_snapshot_without_ranks_loads_and_deletes_like_bfs(distance):
    """A snapshot with no rank section (``dump_snapshot``'s, or a
    ``cover.snap`` written before ranks were stored) loads as a cover
    that stores none; a Theorem-3 delete on it gives each region node
    the key a fresh build would, keeps it, and answers like BFS. The
    ranked encoding is the plain one plus its last section."""
    c = dblp_like(20, seed=5)
    built = HopiIndex.build(c, distance=distance).cover
    plain, ranked = io.BytesIO(), io.BytesIO()
    dump_snapshot(plain, built)
    dump_ranked_snapshot(ranked, built)
    assert ranked.getvalue().startswith(plain.getvalue())
    assert len(ranked.getvalue()) > len(plain.getvalue())
    plain.seek(0)
    cover = read_snapshot(plain)
    nodes = sorted(c.elements)
    assert not any(cover.ranks(nodes))
    index = HopiIndex(c, cover)
    victim = _non_separating(index)
    report = index.delete_document(victim)
    assert report.separating is False
    index.verify()
    assert sum(map(bool, cover.ranks(sorted(c.elements)))) == (
        report.recovered_region_size
    )
