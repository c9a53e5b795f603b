"""Incremental index maintenance (Section 6 of the paper).

All operations mutate the collection *and* its 2-hop cover in lock-step,
so that after any sequence of operations the cover represents exactly
the connections of the current element-level graph — the invariant the
paper's Theorems 2 and 3 establish and our property tests check against
a from-scratch rebuild.

* **Insertions** (Section 6.1): isolated nodes are trivial; a new edge
  ``(u, v)`` creates the connections ``a ⇝ u -> v ⇝ d``, and each edge
  gets whichever of three sound rules adds the fewest label entries:
  Section 3.3's rule (``v`` the center of every new connection), *push*
  (every ancestor of ``u`` inherits ``{v} ∪ Lout(v)``) or *pull* (every
  descendant of ``v`` inherits ``{u} ∪ Lin(u)``). A new leaf thus costs
  its parent's ``Lin`` plus one entry, not one entry per ancestor. This
  deliberately departs from the paper, which uses Section 3.3's rule
  for every edge; the offline join still does. A new document is
  treated as a fresh partition — its cover is computed standalone,
  unioned in, and its incident links are integrated one at a time.

* **Deletions** (Section 6.2): deleting a document ``d_i`` takes the
  **fast path of Theorem 2** when ``d_i`` *separates* the document-level
  graph (every ancestor-to-descendant path runs through it): labels of
  ancestor elements drop all centers in ``V_di ∪ V_D``, labels of
  descendant elements drop all centers in ``V_di ∪ V_A``, and ``d_i``'s
  elements disappear. Otherwise the **general algorithm of Theorem 3**
  partially recomputes the closure: the region reachable from the
  surviving ancestors of ``d_i``'s elements is walked over the
  collection's own tree edges and links (never the whole element
  graph), cut into tree fragments — one per region element whose parent
  lies outside the region — and re-covered by the partitioned
  :class:`~repro.core.pipeline.BuildPipeline` with every fragment its
  own partition (Section 6.1's "new partition" rule, applied to the
  region). The fresh cover is spliced into the old one (ancestors'
  ``Lout`` are replaced; descendants' ``Lin`` drop ancestor-side
  centers and gain the fresh ones).

* **Edge deletion**: same structure as general document deletion, with
  a fast path — if the edge's endpoints remain connected after removal
  (the same walk, stopping at the target), a reachability cover is
  unchanged (distance covers always take the general path: a lost
  shortest path changes distances even when connectivity survives).

* **Modifications** (Section 6.3): drop and reinsert the document.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Set, Tuple, Union

from repro.core.cover import DistanceTwoHopCover, TwoHopCover
from repro.core.cover_builder import build_cover
from repro.core.distance import build_distance_cover
from repro.core.join import insert_link, insert_link_distance
from repro.core.pipeline import BuildPipeline
from repro.graph.traversal import (
    ancestors as graph_ancestors,
    descendants as graph_descendants,
    multi_source_reaches,
)
from repro.xmlmodel.model import Collection, DocId, Document, Element, ElementId

Cover = Union[TwoHopCover, DistanceTwoHopCover]


@dataclass
class MaintenanceReport:
    """What a maintenance operation did (consumed by the benchmarks)."""

    operation: str
    separating: Optional[bool] = None
    entries_delta: int = 0
    recovered_region_size: int = 0
    seconds: float = 0.0


#: Signature of the ``on_change`` hook every maintenance op accepts:
#: called exactly once per completed operation, with its report, before
#: the op returns. :class:`repro.core.hopi.HopiIndex` threads its epoch
#: counter through this, and the service layer uses the epoch to
#: invalidate caches and publish hot-swapped indexes.
ChangeHook = Callable[[MaintenanceReport], None]


def _notify(on_change: Optional[ChangeHook], report: MaintenanceReport) -> MaintenanceReport:
    if on_change is not None:
        on_change(report)
    return report


def _is_distance(cover: Cover) -> bool:
    # class attribute, not isinstance: subclasses and the test oracle
    # go through the same algorithms
    return cover.is_distance_aware


# ---------------------------------------------------------------------------
# insertions (Section 6.1)
# ---------------------------------------------------------------------------


def _label_entries(cover: Cover, nodes: Iterable[ElementId]) -> int:
    """``Σ |Lin(x)| + |Lout(x)|`` over ``nodes``."""
    return sum(len(cover.lin_of(x)) + len(cover.lout_of(x)) for x in nodes)


def _inherit(
    nodes: Iterable[ElementId],
    centers: Union[Set[ElementId], Mapping[ElementId, int]],
    add: Callable[..., bool],
    label_of: Callable[[ElementId], Mapping[ElementId, int]],
    base: Optional[Mapping[ElementId, int]],
) -> int:
    """``add`` every center to the label of every node — at distance
    ``base[node] + centers[center]`` on a distance cover, whose
    ``base`` is not None — and return how many entries are new."""
    ordered = sorted(centers)
    added = 0
    for x in sorted(nodes):
        if base is None:
            added += sum(add(x, c) for c in ordered)
            continue
        # a distance add also reports an improved entry: count new ones
        known = label_of(x)
        for c in ordered:
            added += c != x and c not in known
            add(x, c, base[x] + centers[c])
    return added


def _integrate_link(cover: Cover, u: ElementId, v: ElementId) -> int:
    """Integrate the new edge ``u -> v`` with the cheapest sound rule;
    returns the number of label entries added.

    The new connections are ``a ⇝ u -> v ⇝ d`` for ``a`` in ``anc(u)``
    and ``d`` in ``desc(v)``, both taken from the current cover. Each
    rule covers all of them:

    * **fig2** — Section 3.3's rule (:func:`~repro.core.join.insert_link`):
      ``v`` joins every ``Lout(a)`` and ``Lin(d)``; costs
      ``|anc(u)| + |desc(v)|``;
    * **push** — ``Lout(a) ∪= {v} ∪ Lout(v)``: ``a`` reaches ``d``
      through whichever center already witnesses ``v ⇝ d``; costs
      ``|anc(u)| · (1 + |Lout(v)|)``;
    * **pull** — ``Lin(d) ∪= {u} ∪ Lin(u)``, the mirror image; costs
      ``|desc(v)| · (1 + |Lin(u)|)``.

    The cheapest wins, ties in that order. On a distance cover push
    and pull carry ``dist(a, u) + 1 + dout`` and ``din + 1 + dist(v, d)``.
    A target with no descendants (a fresh leaf) takes pull without
    computing ``anc(u)``: ``Lin(u) ⊆ anc(u) \\ {u}``, so its
    ``1 + |Lin(u)|`` entries are never beaten. The choice reads label
    sizes only and every loop runs sorted, so replaying the same ops on
    a reloaded snapshot rebuilds the same cover.
    """
    cover.add_node(u)
    cover.add_node(v)
    distance = _is_distance(cover)
    down = cover.descendants(v)
    lin_u = cover.lin_of(u)
    rule = "pull"
    if len(down) > 1:
        up = cover.ancestors(u)
        lout_v = cover.lout_of(v)
        costs = {
            "fig2": len(up) + len(down),
            "push": len(up) * (1 + len(lout_v)),
            "pull": len(down) * (1 + len(lin_u)),
        }
        rule = min(costs, key=costs.__getitem__)
    # distances are read before any label changes
    if rule == "pull":
        centers = {u: 0, **lin_u} if distance else lin_u | {u}
        base = {d: cover.distance(v, d) + 1 for d in down} if distance else None
        return _inherit(down, centers, cover.add_lin, cover.lin_of, base)
    if rule == "push":
        centers = {v: 0, **lout_v} if distance else lout_v | {v}
        base = {a: cover.distance(a, u) + 1 for a in up} if distance else None
        return _inherit(up, centers, cover.add_lout, cover.lout_of, base)
    if not distance:
        return insert_link(cover, u, v)
    touched = up | down
    before = _label_entries(cover, touched)
    insert_link_distance(cover, u, v)
    return _label_entries(cover, touched) - before


def insert_element(
    collection: Collection,
    cover: Cover,
    parent: ElementId,
    tag: str,
    *,
    on_change: Optional[ChangeHook] = None,
) -> ElementId:
    """Insert a new element under ``parent`` and its tree edge.

    The element is added to the collection, then the parent-child edge is
    integrated like any other edge — for a fresh leaf that is the *pull*
    rule, ``Lin(leaf) = {parent} ∪ Lin(parent)``.
    """
    element = collection.add_child(parent, tag)
    cover.add_node(element.eid)
    insert_edge(
        collection,
        cover,
        parent,
        element.eid,
        _already_in_collection=True,
        on_change=on_change,
    )
    return element.eid


def insert_edge(
    collection: Collection,
    cover: Cover,
    u: ElementId,
    v: ElementId,
    *,
    _already_in_collection: bool = False,
    on_change: Optional[ChangeHook] = None,
) -> MaintenanceReport:
    """Insert the edge/link ``u -> v`` (Section 6.1).

    The edge is integrated by :func:`_integrate_link`: Figure 2's rule,
    *push* or *pull*, whichever adds the fewest label entries. On a
    *complete* cover a single integration pass is exact under any of
    them, including for distance covers: any pair whose shortest path
    uses the new edge decomposes as ``a ->* u -> v ->* d`` where the
    sub-distances are unchanged by the insertion (a shortest path cannot
    traverse the new edge twice).
    """
    start = time.perf_counter()
    if not _already_in_collection:
        collection.add_link(u, v)
    added = _integrate_link(cover, u, v)
    return _notify(
        on_change,
        MaintenanceReport(
            operation="insert_edge",
            entries_delta=added,
            seconds=time.perf_counter() - start,
        ),
    )


def insert_document(
    collection: Collection,
    cover: Cover,
    doc_id: DocId,
    *,
    on_change: Optional[ChangeHook] = None,
) -> MaintenanceReport:
    """Integrate a document already present in the collection.

    "A new document with outgoing and incoming links can be inserted by
    considering the document as a new partition, computing the 2–hop
    cover for this partition and applying the algorithm for merging
    partitions" — the document's standalone cover is unioned in and each
    incident inter-document link is integrated with the link rule.

    The caller builds the document (``new_document`` / ``add_child`` /
    ``add_link``) first, then calls this once.
    """
    start = time.perf_counter()
    doc = collection.documents[doc_id]
    doc_graph = doc.element_graph()
    if _is_distance(cover):
        local: Cover = build_distance_cover(doc_graph, cover_factory=type(cover))
    else:
        local = build_cover(doc_graph, cover_factory=type(cover))
    # the document's elements are new to the cover, so every local
    # entry is a new one
    cover.union(local)
    added = local.size
    incident = sorted(
        (u, v)
        for (u, v) in collection.inter_links
        if u in doc.elements or v in doc.elements
    )
    for u, v in incident:
        added += _integrate_link(cover, u, v)
    return _notify(
        on_change,
        MaintenanceReport(
            operation="insert_document",
            entries_delta=added,
            seconds=time.perf_counter() - start,
        ),
    )


# ---------------------------------------------------------------------------
# the separator test (Section 6.2, Figure 6)
# ---------------------------------------------------------------------------


def document_separates(collection: Collection, doc_id: DocId) -> bool:
    """Does ``doc_id`` separate the document-level graph ``G_D(X)``?

    True iff every ancestor document and descendant document of
    ``doc_id`` are connected *only* through paths containing it — after
    removing it, no ancestor reaches any descendant (multi-source BFS).
    Documents on a document-level cycle through ``doc_id`` (ancestor and
    descendant at once) void the precondition of Theorem 2, so the test
    conservatively returns False in that case.
    """
    return _separation(collection, doc_id)[0]


def _separation(
    collection: Collection, doc_id: DocId
) -> Tuple[bool, Set[DocId], Set[DocId]]:
    """:func:`document_separates` plus the strict ancestor and
    descendant documents it computed, which the Theorem-2 delete needs
    next."""
    doc_graph = collection.document_graph()
    anc = graph_ancestors(doc_graph, doc_id, strict=True)
    desc = graph_descendants(doc_graph, doc_id, strict=True)
    if not anc or not desc:
        separates = True  # vacuously separating (e.g. link-free collections)
    elif anc & desc:
        separates = False  # document-level cycle through doc_id
    else:
        separates = not multi_source_reaches(
            doc_graph, anc, desc, forbidden={doc_id}
        )
    return separates, anc, desc


# ---------------------------------------------------------------------------
# deletions (Section 6.2)
# ---------------------------------------------------------------------------


def _delete_document_separating(
    collection: Collection,
    cover: Cover,
    doc_id: DocId,
    anc_docs: Set[DocId],
    desc_docs: Set[DocId],
) -> None:
    """Theorem 2: filter labels, no recomputation."""
    v_di: Set[ElementId] = set(collection.elements_of(doc_id))
    v_a: Set[ElementId] = set()
    for d in anc_docs:
        v_a |= collection.elements_of(d)
    v_d: Set[ElementId] = set()
    for d in desc_docs:
        v_d |= collection.elements_of(d)

    # for all a in VA: Lout(a) \= (Vdi ∪ VD) — walk the backward index
    for center in v_di | v_d:
        for node in list(cover.nodes_with_lout_center(center)):
            if node in v_a:
                cover.discard_lout(node, center)
    # for all d in VD: Lin(d) \= (Vdi ∪ VA)
    for center in v_di | v_a:
        for node in list(cover.nodes_with_lin_center(center)):
            if node in v_d:
                cover.discard_lin(node, center)
    cover.remove_nodes(v_di)
    collection.remove_document(doc_id)


def _cover_ancestors_of_set(cover: Cover, nodes: Set[ElementId]) -> Set[ElementId]:
    result: Set[ElementId] = set()
    for v in nodes:
        result |= cover.ancestors(v)
    return result


def _cover_descendants_of_set(cover: Cover, nodes: Set[ElementId]) -> Set[ElementId]:
    result: Set[ElementId] = set()
    for v in nodes:
        result |= cover.descendants(v)
    return result


def _splice_fresh_cover(
    cover: Cover,
    fresh: Cover,
    affected_out: Set[ElementId],
    affected_in: Set[ElementId],
) -> None:
    """Theorem 3's label surgery.

    ``L' := L ∪ L̂`` except: for every surviving ancestor ``a`` the out
    label is **replaced** by the fresh one; for every surviving
    descendant ``d`` the in label drops ancestor-side centers and gains
    the fresh ones.
    """
    distance = _is_distance(cover)
    for a in affected_out:
        if a not in cover.nodes:
            continue
        if distance:
            cover.set_lout(a, dict(fresh.lout_of(a)))
        else:
            cover.set_lout(a, set(fresh.lout_of(a)))
    for d in affected_in:
        if d not in cover.nodes:
            continue
        if distance:
            kept = {
                c: dist
                for c, dist in cover.lin_of(d).items()
                if c not in affected_out
            }
            for c, dist in fresh.lin_of(d).items():
                if c not in kept or dist < kept[c]:
                    kept[c] = dist
            cover.set_lin(d, kept)
        else:
            kept = {c for c in cover.lin_of(d) if c not in affected_out}
            kept |= set(fresh.lin_of(d))
            cover.set_lin(d, kept)
    # remaining fresh labels (nodes in the recomputed region that are
    # neither ancestors nor descendants) are unioned in — sound because
    # every fresh entry witnesses a real path in the new graph.
    for node in fresh.nodes:
        if node in affected_out and node in affected_in:
            continue
        if node not in affected_out:
            if distance:
                for c, dist in fresh.lout_of(node).items():
                    cover.add_lout(node, c, dist)
            else:
                for c in fresh.lout_of(node):
                    cover.add_lout(node, c)
        if node not in affected_in:
            if distance:
                for c, dist in fresh.lin_of(node).items():
                    cover.add_lin(node, c, dist)
            else:
                for c in fresh.lin_of(node):
                    cover.add_lin(node, c)


def _link_targets(collection: Collection) -> Dict[ElementId, List[ElementId]]:
    """``source -> [targets]`` over every intra- and inter-document link."""
    targets: Dict[ElementId, List[ElementId]] = {}
    for u, v in collection.all_links():
        targets.setdefault(u, []).append(v)
    return targets


def _reach(
    collection: Collection,
    links: Dict[ElementId, List[ElementId]],
    seeds: Iterable[ElementId],
    stop: Optional[ElementId] = None,
) -> Set[ElementId]:
    """Every element reachable from ``seeds`` (themselves included) over
    tree edges and ``links`` — returned early, holding ``stop``, as soon
    as ``stop`` is reached."""
    elements, documents = collection.elements, collection.documents
    seen = set(seeds)
    stack = list(seen)
    while stack:
        x = stack.pop()
        children = documents[elements[x].doc].children[x]
        for y in chain(children, links.get(x, ())):
            if y not in seen:
                seen.add(y)
                if y == stop:
                    return seen
                stack.append(y)
    return seen


def _region_fragments(
    collection: Collection,
    links: Dict[ElementId, List[ElementId]],
    region: Set[ElementId],
) -> Collection:
    """The region — closed under reachability, so under tree children —
    as a collection of tree fragments: one per region element whose
    parent lies outside it, keeping global element ids. A link inside
    one fragment becomes an intra-link, one between fragments an
    inter-link. Fragment ids come from root ids and every set is filled
    in sorted order, so the cover built on the result depends neither
    on ``PYTHONHASHSEED`` nor on how the collection was loaded."""
    elements = collection.elements
    fragments = Collection()
    for root in sorted(x for x in region if elements[x].parent not in region):
        frag_id = f"@{root}"
        source = collection.documents[elements[root].doc]
        fragment = fragments.documents[frag_id] = Document(frag_id, root)
        stack = [root]
        while stack:
            x = stack.pop()
            e = elements[x]
            parent = None if x == root else e.parent
            fragments.elements[x] = Element(x, e.tag, frag_id, parent)
            for child in source.children[x]:
                fragment.add_child(x, child)
                stack.append(child)
    for u in sorted(region):
        for v in sorted(links.get(u, ())):
            fragments.add_link(u, v)
    return fragments


def _rebuild_region(
    collection: Collection,
    cover: Cover,
    seeds: Set[ElementId],
    links: Dict[ElementId, List[ElementId]],
) -> Tuple[Cover, int]:
    """Re-cover the part of the new graph reachable from ``seeds``: walk
    it, cut it into tree fragments, and build their cover with every
    fragment its own partition."""
    region = _reach(collection, links, seeds)
    fragments = _region_fragments(collection, links, region)
    fresh, _ = BuildPipeline(
        fragments, partitioner="single", distance=_is_distance(cover)
    ).run()
    return fresh, len(region)


def delete_document(
    collection: Collection,
    cover: Cover,
    doc_id: DocId,
    *,
    force_general: bool = False,
    on_change: Optional[ChangeHook] = None,
) -> MaintenanceReport:
    """Delete a document and update the cover incrementally (Section 6.2).

    Uses the Theorem-2 fast path when the document separates the
    document-level graph, the Theorem-3 general algorithm otherwise
    (or always, with ``force_general=True``, which the ablation
    benchmark uses to quantify the fast path's benefit).
    """
    start = time.perf_counter()
    before = cover.size
    separating = False
    if not force_general:
        separating, anc_docs, desc_docs = _separation(collection, doc_id)
    if separating:
        _delete_document_separating(collection, cover, doc_id, anc_docs, desc_docs)
        return _notify(
            on_change,
            MaintenanceReport(
                operation="delete_document",
                separating=True,
                entries_delta=cover.size - before,
                seconds=time.perf_counter() - start,
            ),
        )
    # ---- Theorem 3: partial recomputation -----------------------------
    v_di: Set[ElementId] = set(collection.elements_of(doc_id))
    a_di = _cover_ancestors_of_set(cover, v_di)
    d_di = _cover_descendants_of_set(cover, v_di)
    collection.remove_document(doc_id)
    cover.remove_nodes(v_di)
    seeds = a_di - v_di
    fresh, region_size = _rebuild_region(
        collection, cover, seeds, _link_targets(collection)
    )
    _splice_fresh_cover(cover, fresh, a_di - v_di, d_di - v_di)
    return _notify(
        on_change,
        MaintenanceReport(
            operation="delete_document",
            separating=False,
            entries_delta=cover.size - before,
            recovered_region_size=region_size,
            seconds=time.perf_counter() - start,
        ),
    )


def delete_edge(
    collection: Collection,
    cover: Cover,
    u: ElementId,
    v: ElementId,
    *,
    on_change: Optional[ChangeHook] = None,
) -> MaintenanceReport:
    """Delete the edge/link ``u -> v`` ("a similar algorithm can be
    applied for deleting a single edge", Section 6.2).

    Fast path for reachability covers: when ``v`` stays reachable from
    ``u`` after the removal, no connection is lost and every label entry
    remains a valid witness, so the cover is untouched. Distance covers
    always take the general path because surviving connections may have
    grown longer.
    """
    start = time.perf_counter()
    before = cover.size
    sdoc = collection.doc(u)
    is_intra = sdoc == collection.doc(v)
    exists = (
        (u, v) in collection.documents[sdoc].intra_links
        if is_intra
        else (u, v) in collection.inter_links
    )
    if not exists:
        raise KeyError(
            f"({u}, {v}) is not a link; only links (not tree edges) can be deleted"
        )
    collection.remove_link(u, v)
    links = _link_targets(collection)
    if not _is_distance(cover) and v in _reach(collection, links, (u,), stop=v):
        return _notify(
            on_change,
            MaintenanceReport(
                operation="delete_edge",
                separating=True,  # "separating" here: removal was absorbed
                entries_delta=0,
                seconds=time.perf_counter() - start,
            ),
        )
    a_e = cover.ancestors(u)  # includes u
    d_e = cover.descendants(v)  # includes v
    fresh, region_size = _rebuild_region(collection, cover, a_e, links)
    _splice_fresh_cover(cover, fresh, a_e, d_e)
    return _notify(
        on_change,
        MaintenanceReport(
            operation="delete_edge",
            separating=False,
            entries_delta=cover.size - before,
            recovered_region_size=region_size,
            seconds=time.perf_counter() - start,
        ),
    )


def modify_document(
    collection: Collection,
    cover: Cover,
    doc_id: DocId,
    rebuild: Callable[[Collection], None],
    *,
    on_change: Optional[ChangeHook] = None,
) -> MaintenanceReport:
    """Modify a document (Section 6.3): drop it and reinsert the new
    version.

    The hook fires once for the whole modification, not for the inner
    delete/insert pair — a modification is one logical change.

    Args:
        collection: the collection.
        cover: the cover kept in sync.
        doc_id: the document to replace.
        rebuild: callback that recreates the document (and its links)
            in the collection under the same id.
    """
    start = time.perf_counter()
    before = cover.size
    delete_document(collection, cover, doc_id)
    rebuild(collection)
    report = insert_document(collection, cover, doc_id)
    return _notify(
        on_change,
        MaintenanceReport(
            operation="modify_document",
            entries_delta=cover.size - before,
            recovered_region_size=report.recovered_region_size,
            seconds=time.perf_counter() - start,
        ),
    )
