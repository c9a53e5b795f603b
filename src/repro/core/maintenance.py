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
  treated as a fresh partition — its cover is computed standalone by
  pruned landmark labelling, unioned in, and its incident links are
  integrated one at a time. New vertices store the rank key they were
  labelled by: their degrees in their own document's graph.

* **Deletions** (Section 6.2): deleting a document ``d_i`` takes the
  **fast path of Theorem 2** when ``d_i`` *separates* the document-level
  graph (every ancestor-to-descendant path runs through it): labels of
  ancestor elements drop all centers in ``V_di ∪ V_D``, labels of
  descendant elements drop all centers in ``V_di ∪ V_A``, and ``d_i``'s
  elements disappear. Otherwise the **general algorithm of Theorem 3**
  partially recomputes the closure: the region reachable from the
  surviving ancestors of ``d_i``'s elements is walked over the
  collection's own tree edges and its kept link map (never the whole
  element graph) and re-labelled by pruned landmark labelling
  (:func:`~repro.core.cover_builder.build_pll_cover`) in the cover's
  stored vertex order (:meth:`~repro.core.cover.TwoHopCover.ranks`:
  the build's, with inserted vertices placed among it) where the paper
  re-covers it by its partitioned join. The cover splices the fresh
  labels in row by row (``splice_region``): every region node's
  ``Lout`` is replaced (the region is closed under reachability, so the
  fresh labels cover every connection out of it); ``Lin`` labels gain
  the fresh centers, and those of surviving descendants first drop the
  ancestors. Only rows
  that change are rewritten. Every delete reports its entry delta from
  the rows it touched, never from a scan of the whole cover, and reads
  the link map and the document-level graph the collection keeps
  (:meth:`~repro.xmlmodel.model.Collection.link_targets`,
  :meth:`~repro.xmlmodel.model.Collection.document_links`): the
  separator test, the walk and the re-label cost what the victim's
  neighbourhood and its region cost, not the collection.

* **Edge deletion**: same structure as general document deletion, with
  a fast path — if the edge's endpoints remain connected after removal
  (the same walk, stopping at the target), a reachability cover is
  unchanged (distance covers always take the general path: a lost
  shortest path changes distances even when connectivity survives).

A modification (Section 6.3) is :func:`delete_document` followed by
:func:`insert_document` of the new version.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import chain
from typing import (
    Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple, Union,
)

from repro.core.cover import DistanceTwoHopCover, TwoHopCover
from repro.core.cover_builder import build_pll_cover, reach_multiplier
from repro.core.join import insert_link, insert_link_distance
from repro.graph.traversal import (
    ancestors as graph_ancestors,
    descendants as graph_descendants,
    multi_source_reaches,
)
from repro.xmlmodel.model import Collection, DocId, ElementId

Cover = Union[TwoHopCover, DistanceTwoHopCover]


@dataclass
class MaintenanceReport:
    """What a maintenance operation did (consumed by the benchmarks)."""

    operation: str
    separating: Optional[bool] = None
    entries_delta: int = 0
    recovered_region_size: int = 0
    seconds: float = 0.0


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
) -> ElementId:
    """Insert a new element under ``parent`` and its tree edge.

    The element is added to the collection, then the parent-child edge is
    integrated like any other edge — for a fresh leaf that is the *pull*
    rule, ``Lin(leaf) = {parent} ∪ Lin(parent)``. The leaf stores the
    rank key of its degrees in its document, ``(0 + 1) * (1 + 1)``.
    """
    element = collection.add_child(parent, tag)
    cover.add_node(element.eid)
    cover.ranks((element.eid,), lambda missing: [2])
    insert_edge(collection, cover, parent, element.eid, _already_in_collection=True)
    return element.eid


def insert_edge(
    collection: Collection,
    cover: Cover,
    u: ElementId,
    v: ElementId,
    *,
    _already_in_collection: bool = False,
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
    return MaintenanceReport(
        operation="insert_edge",
        entries_delta=added,
        seconds=time.perf_counter() - start,
    )


def insert_document(
    collection: Collection,
    cover: Cover,
    doc_id: DocId,
) -> MaintenanceReport:
    """Integrate a document already present in the collection.

    "A new document with outgoing and incoming links can be inserted by
    considering the document as a new partition, computing the 2–hop
    cover for this partition and applying the algorithm for merging
    partitions" — the document's standalone cover, built by
    :func:`~repro.core.cover_builder.build_pll_cover` on its own graph
    (which has no inter-document links, so the product's rank rule is
    its degree order), gives the document's rows, and each incident
    inter-document link is integrated with the link rule. The document's elements
    keep the ranks the local labelling stored, the key of their degrees
    in the document's own graph.

    The caller builds the document (``new_document`` / ``add_child`` /
    ``add_link``) first, then calls this once.
    """
    start = time.perf_counter()
    doc = collection.documents[doc_id]
    local = build_pll_cover(
        doc.elements, list(doc.graph_edges()), distance=_is_distance(cover)
    )
    # the document's elements are new to the cover: their rows are the
    # local ones, and every local entry is a new one
    nodes = sorted(doc.elements)
    cover.add_nodes(nodes)
    for x in nodes:
        cover.set_lin(x, local.lin_of(x))
        cover.set_lout(x, local.lout_of(x))
    cover.ranks(nodes, local.ranks)
    added = _label_entries(local, nodes)
    for u, v in collection.incident_inter_links(doc_id):
        added += _integrate_link(cover, u, v)
    return MaintenanceReport(
        operation="insert_document",
        entries_delta=added,
        seconds=time.perf_counter() - start,
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
    next. It walks the document-level graph the collection keeps."""
    doc_graph = collection.document_links()
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
) -> int:
    """Theorem 2: filter labels, no recomputation; returns the change
    in entries."""
    v_di: Set[ElementId] = set(collection.elements_of(doc_id))
    v_a: Set[ElementId] = set()
    for d in anc_docs:
        v_a |= collection.elements_of(d)
    v_d: Set[ElementId] = set()
    for d in desc_docs:
        v_d |= collection.elements_of(d)

    filtered = 0
    # for all a in VA: Lout(a) \= (Vdi ∪ VD) — walk the backward index
    for center in v_di | v_d:
        for node in list(cover.nodes_with_lout_center(center)):
            if node in v_a:
                cover.discard_lout(node, center)
                filtered += 1
    # for all d in VD: Lin(d) \= (Vdi ∪ VA)
    for center in v_di | v_a:
        for node in list(cover.nodes_with_lin_center(center)):
            if node in v_d:
                cover.discard_lin(node, center)
                filtered += 1
    removed = _entries_naming(cover, v_di)
    cover.remove_nodes(v_di)
    collection.remove_document(doc_id)
    return -(filtered + removed)


def _entries_naming(cover: Cover, nodes: Set[ElementId]) -> int:
    """How many entries ``cover.remove_nodes(nodes)`` drops: the nodes'
    own labels and every entry with one of them as its center, an entry
    that is both counted once."""
    own = inner = 0
    for x in nodes:
        for label in (cover.lin_of(x), cover.lout_of(x)):
            own += len(label)
            inner += sum(c in nodes for c in label)
    named = sum(
        len(cover.nodes_with_lin_center(c)) + len(cover.nodes_with_lout_center(c))
        for c in nodes
    )
    return own + named - inner


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


def _reach(
    collection: Collection,
    seeds: Iterable[ElementId],
    stop: Optional[ElementId] = None,
) -> Set[ElementId]:
    """Every element reachable from ``seeds`` (themselves included) over
    tree edges and the collection's link map — returned early, holding
    ``stop``, as soon as ``stop`` is reached."""
    elements, documents = collection.elements, collection.documents
    links = collection.link_targets()
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


def _rebuild_region(
    collection: Collection,
    cover: Cover,
    seeds: Set[ElementId],
    descendants: Set[ElementId],
) -> Tuple[int, int]:
    """Re-label the part of the new graph reachable from ``seeds`` by
    pruned landmark labelling, splice the labels in
    (the cover's ``splice_region``), and return
    the region's size and the change in entries.

    The vertex order is the cover's stored one, restricted to the
    region: higher rank first, ties broken by id — on a PLL-built cover
    the order its build took, with the vertices inserted since placed
    by the keys they stored. A region node without a stored rank (a
    cover built greedily or by the paper's pipeline, or read from a
    snapshot that holds none) first gets the key a fresh build would
    give it now (:func:`_build_keys`) and keeps it. Nothing here reads
    more of the collection than the region and its link map rows."""
    region = _reach(collection, seeds)
    elements, documents = collection.elements, collection.documents
    links = collection.link_targets()
    # successor rows free of self-loops and of links parallel to a tree
    # edge, as build_pll_cover's mapping form wants them (a row without
    # links is the document's own children list, only read)
    succ: Dict[ElementId, List[ElementId]] = {}
    for x in region:
        row = documents[elements[x].doc].children[x]
        targets = links.get(x)
        if targets:
            row = row + [v for v in targets if v != x and elements[v].parent != x]
        succ[x] = row
    nodes = sorted(region)
    rank = cover.ranks(
        nodes, lambda missing: _build_keys(collection, region, succ, missing)
    )
    # a stable sort (reversed too) of the sorted ids breaks rank ties by id
    ranked = sorted(range(len(nodes)), key=rank.__getitem__, reverse=True)
    order = [nodes[i] for i in ranked]
    fresh = build_pll_cover(nodes, succ, distance=_is_distance(cover), order=order)
    return len(region), cover.splice_region(fresh, seeds, descendants)


def _build_keys(
    collection: Collection,
    region: Set[ElementId],
    succ: Mapping[ElementId, Sequence[ElementId]],
    missing: Sequence[ElementId],
) -> List[int]:
    """The rank key a fresh build of the current graph gives each of
    ``missing`` (region nodes), in that order: ``(out + 1) * (in + 1)``
    times :func:`~repro.core.cover_builder.reach_multiplier`, an
    in-degree counting links from outside the region. It costs a pass
    over every link and the document graph, paid once per id: the key
    is stored."""
    elements = collection.elements
    multiplier = reach_multiplier(collection, region)
    indegree = {x: int(elements[x].parent is not None) for x in missing}
    for u, targets in collection.link_targets().items():
        for v in targets:
            if v in indegree and v != u and elements[v].parent != u:
                indegree[v] += 1
    return [
        (len(succ[x]) + 1) * (indegree[x] + 1) * multiplier.get(x, 1)
        for x in missing
    ]


def delete_document(
    collection: Collection,
    cover: Cover,
    doc_id: DocId,
    *,
    force_general: bool = False,
) -> MaintenanceReport:
    """Delete a document and update the cover incrementally (Section 6.2).

    Uses the Theorem-2 fast path when the document separates the
    document-level graph, the Theorem-3 general algorithm otherwise
    (or always, with ``force_general=True``, which the ablation
    benchmark uses to quantify the fast path's benefit).
    """
    start = time.perf_counter()
    separating = False
    if not force_general:
        separating, anc_docs, desc_docs = _separation(collection, doc_id)
    if separating:
        delta = _delete_document_separating(
            collection, cover, doc_id, anc_docs, desc_docs
        )
        return MaintenanceReport(
            operation="delete_document",
            separating=True,
            entries_delta=delta,
            seconds=time.perf_counter() - start,
        )
    # ---- Theorem 3: partial recomputation -----------------------------
    v_di: Set[ElementId] = set(collection.elements_of(doc_id))
    a_di = _cover_ancestors_of_set(cover, v_di)
    d_di = _cover_descendants_of_set(cover, v_di)
    removed = _entries_naming(cover, v_di)
    collection.remove_document(doc_id)
    cover.remove_nodes(v_di)
    region_size, spliced = _rebuild_region(
        collection, cover, a_di - v_di, d_di - v_di
    )
    return MaintenanceReport(
        operation="delete_document",
        separating=False,
        entries_delta=spliced - removed,
        recovered_region_size=region_size,
        seconds=time.perf_counter() - start,
    )


def delete_edge(
    collection: Collection,
    cover: Cover,
    u: ElementId,
    v: ElementId,
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
    if not _is_distance(cover) and v in _reach(collection, (u,), stop=v):
        return MaintenanceReport(
            operation="delete_edge",
            separating=True,  # "separating" here: removal was absorbed
            entries_delta=0,
            seconds=time.perf_counter() - start,
        )
    a_e = cover.ancestors(u)  # includes u
    d_e = cover.descendants(v)  # includes v
    region_size, delta = _rebuild_region(collection, cover, a_e, d_e)
    return MaintenanceReport(
        operation="delete_edge",
        separating=False,
        entries_delta=delta,
        recovered_region_size=region_size,
        seconds=time.perf_counter() - start,
    )
