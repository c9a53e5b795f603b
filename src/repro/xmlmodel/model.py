"""The paper's formal model of linked XML document collections (Section 2).

* :class:`Element` — one XML element; elements carry dense global integer
  ids, and all index structures operate on those ids.
* :class:`Document` — the element-level tree ``T_E(d)`` plus the set
  ``L_I(d)`` of intra-document links; the element-level graph ``G_E(d)``
  is the tree extended by the intra-links.
* :class:`Collection` — a set of documents plus the set ``L`` of
  inter-document links; exposes the element-level graph ``G_E(X)``, the
  document mapping function ``doc``, and the weighted document-level
  graph ``G_D(X)``. It keeps the link map (source -> targets) and the
  document-level adjacency with link counts current as links and
  documents come and go, so maintenance never rebuilds them.

The model deliberately ignores element order (the paper's rationale: on
schema-less heterogeneous collections nobody queries "the second author
of the fifth reference"), but documents do keep their children lists in
insertion order so that serialisation is deterministic.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.graph.digraph import DiGraph

ElementId = int
DocId = str
Link = Tuple[ElementId, ElementId]


@dataclass
class Element:
    """One XML element of some document.

    Attributes:
        eid: dense global integer id (unique across the collection).
        tag: the element name.
        doc: id of the owning document.
        parent: id of the parent element, or ``None`` for the root.
        attributes: XML attributes (kept mainly for parsed documents).
        text: concatenated text content directly under the element.
    """

    eid: ElementId
    tag: str
    doc: DocId
    parent: Optional[ElementId] = None
    attributes: Dict[str, str] = field(default_factory=dict)
    text: str = ""


class Document:
    """The element-level tree of one document plus its intra-links."""

    def __init__(self, doc_id: DocId, root: ElementId) -> None:
        self.doc_id = doc_id
        self.root = root
        self.elements: Set[ElementId] = {root}
        self.children: Dict[ElementId, List[ElementId]] = {root: []}
        self.intra_links: Set[Link] = set()

    # -- structure ------------------------------------------------------
    def add_child(self, parent: ElementId, child: ElementId) -> None:
        if parent not in self.elements:
            raise KeyError(f"parent {parent} not in document {self.doc_id}")
        self.elements.add(child)
        self.children[parent].append(child)
        self.children[child] = []

    def add_intra_link(self, source: ElementId, target: ElementId) -> None:
        if source not in self.elements or target not in self.elements:
            raise KeyError("intra-document link endpoints must be in the document")
        self.intra_links.add((source, target))

    @property
    def num_elements(self) -> int:
        return len(self.elements)

    def tree_edges(self) -> Iterator[Link]:
        """Parent-child edges ``E'_E(d)``."""
        for parent, kids in self.children.items():
            for child in kids:
                yield (parent, child)

    def graph_edges(self) -> Iterator[Link]:
        """Edges of the element-level graph ``G_E(d)`` (tree + intra-links)."""
        yield from self.tree_edges()
        yield from self.intra_links

    def element_graph(self) -> DiGraph:
        g = DiGraph()
        for e in self.elements:
            g.add_node(e)
        g.add_edges(self.graph_edges())
        return g

    # -- tree statistics --------------------------------------------------
    def tree_counts(self) -> Dict[ElementId, Tuple[int, int]]:
        """Per-element ``(anc, desc)`` counts within the element-level tree.

        Both counts include the element itself, matching Figure 5 of the
        paper where the root of an 8-element document is annotated
        ``(1, 8)``. Intra-document links are *not* followed — the paper
        annotates tree ancestors/descendants.
        """
        counts: Dict[ElementId, Tuple[int, int]] = {}
        # depth (= #ancestors incl. self) via preorder walk, descendants via
        # postorder accumulation; both iterative.
        anc: Dict[ElementId, int] = {self.root: 1}
        stack = [self.root]
        order: List[ElementId] = []
        while stack:
            v = stack.pop()
            order.append(v)
            for c in self.children[v]:
                anc[c] = anc[v] + 1
                stack.append(c)
        desc: Dict[ElementId, int] = {}
        for v in reversed(order):
            desc[v] = 1 + sum(desc[c] for c in self.children[v])
        for v in self.elements:
            counts[v] = (anc[v], desc[v])
        return counts


class DocumentLinks:
    """The document-level graph ``G_D(X)`` as a collection keeps it:
    ``out[d][e]`` (and ``into[e][d]``) is the number of links from
    document ``d`` to ``e``, and every document has a row in both.

    It reads like a :class:`~repro.graph.digraph.DiGraph`
    (``successors``, ``predecessors``, ``in``), so the traversals of
    :mod:`repro.graph.traversal` walk it. A live view, read only: later
    changes to the collection show through.
    """

    __slots__ = ("out", "into")

    def __init__(
        self, out: Dict[DocId, Dict[DocId, int]], into: Dict[DocId, Dict[DocId, int]]
    ) -> None:
        self.out = out
        self.into = into

    def __contains__(self, doc_id: DocId) -> bool:
        return doc_id in self.out

    def successors(self, doc_id: DocId) -> Iterable[DocId]:
        return self.out[doc_id].keys()

    def predecessors(self, doc_id: DocId) -> Iterable[DocId]:
        return self.into[doc_id].keys()


class Collection:
    """A collection ``X = (D, L)`` of XML documents with links.

    Element ids are allocated by the collection (dense, global). The
    collection is mutable — documents and links can be added and removed,
    which is what Section 6's incremental maintenance operates on.
    """

    def __init__(self) -> None:
        self.documents: Dict[DocId, Document] = {}
        self.elements: Dict[ElementId, Element] = {}
        self.inter_links: Set[Link] = set()
        self._next_id: ElementId = 0
        # COW bookkeeping: documents shared with a fork sibling (see
        # fork()); a shared document is deep-copied by _own_doc() before
        # its first in-place mutation. Empty outside forks.
        self._shared_docs: Set[DocId] = set()
        # the tag index (tag -> sorted ids): None until the first tags()
        # call builds it, then kept up to date by _allocate and
        # remove_document. Lists in _shared_tags are also held by a fork
        # sibling or by a dict tags() returned; _own_tag() copies one
        # before its first in-place change.
        self._tags: Optional[Dict[str, List[ElementId]]] = None
        self._shared_tags: Set[str] = set()
        # the link index: None until the first link_targets() /
        # document_links() / remove_document() call builds it, then
        # kept current by add_link, remove_link, new_document and
        # remove_document. _link_map rows are tuples, replaced on
        # change, so a fork shares them as they are; the document rows
        # of _doc_out / _doc_in (document -> {document: links}) are
        # dicts changed in place, so those of the documents in
        # _shared_adj are copied by _own_adj() before their first change.
        self._link_map: Optional[Dict[ElementId, Tuple[ElementId, ...]]] = None
        self._doc_out: Dict[DocId, Dict[DocId, int]] = {}
        self._doc_in: Dict[DocId, Dict[DocId, int]] = {}
        self._shared_adj: Set[DocId] = set()

    # ------------------------------------------------------------------
    # copy-on-write forking
    # ------------------------------------------------------------------
    def fork(self) -> "Collection":
        """A copy-on-write fork of the collection.

        Observationally identical to :meth:`copy`, but it creates no
        ``Document`` or ``Element`` objects: it copies the element map
        and the inter-link set (one C-level pass each, O(elements +
        inter-links) pointer copies) and the document and tag maps
        (O(documents + tags)). ``Element`` objects are immutable after
        creation (maintenance only ever adds or removes whole elements),
        so they are simply shared. Documents, per-tag id lists and the
        link index's document rows are shared until a mutation touches
        them: both siblings mark every one shared and copy it on its
        first in-place change. The link map's rows are immutable and
        shared as they are.
        """
        clone = Collection.__new__(Collection)
        clone.documents = dict(self.documents)
        clone.elements = dict(self.elements)
        clone.inter_links = set(self.inter_links)
        clone._next_id = self._next_id
        shared = set(self.documents)
        clone._shared_docs = set(shared)
        self._shared_docs = shared
        clone._tags = None if self._tags is None else dict(self._tags)
        shared_tags = set(self._tags or ())
        clone._shared_tags = set(shared_tags)
        self._shared_tags = shared_tags
        clone._link_map = None if self._link_map is None else dict(self._link_map)
        clone._doc_out = dict(self._doc_out)
        clone._doc_in = dict(self._doc_in)
        shared_adj = set(self._doc_out)
        clone._shared_adj = set(shared_adj)
        self._shared_adj = shared_adj
        return clone

    def _own_doc(self, doc_id: DocId) -> Document:
        """``documents[doc_id]``, deep-copied first if still shared with
        a fork sibling."""
        doc = self.documents[doc_id]
        if doc_id in self._shared_docs:
            dup = Document(doc_id, doc.root)
            dup.elements = set(doc.elements)
            dup.children = {p: list(kids) for p, kids in doc.children.items()}
            dup.intra_links = set(doc.intra_links)
            self.documents[doc_id] = doc = dup
            self._shared_docs.discard(doc_id)
        return doc

    def _own_tag(self, tag: str) -> List[ElementId]:
        """The tag index's list for ``tag``, copied first if still
        shared with a fork sibling or a dict :meth:`tags` returned."""
        ids = self._tags[tag]
        if tag in self._shared_tags:
            ids = self._tags[tag] = list(ids)
            self._shared_tags.discard(tag)
        return ids

    def _own_adj(self, doc_id: DocId) -> Tuple[Dict[DocId, int], Dict[DocId, int]]:
        """The link index's ``(out, in)`` rows of ``doc_id``, copied
        first if still shared with a fork sibling."""
        if doc_id in self._shared_adj:
            self._doc_out[doc_id] = dict(self._doc_out[doc_id])
            self._doc_in[doc_id] = dict(self._doc_in[doc_id])
            self._shared_adj.discard(doc_id)
        return self._doc_out[doc_id], self._doc_in[doc_id]

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _allocate(self, tag: str, doc: DocId, parent: Optional[ElementId]) -> Element:
        e = Element(self._next_id, tag, doc, parent)
        self._next_id += 1
        self.elements[e.eid] = e
        if self._tags is not None:
            if tag in self._tags:
                insort(self._own_tag(tag), e.eid)
            else:
                self._tags[tag] = [e.eid]
        return e

    def new_document(self, doc_id: DocId, root_tag: str = "root") -> Element:
        """Create a document with a fresh root element; returns the root."""
        if doc_id in self.documents:
            raise ValueError(f"document {doc_id!r} already exists")
        root = self._allocate(root_tag, doc_id, None)
        self.documents[doc_id] = Document(doc_id, root.eid)
        if self._link_map is not None:
            self._doc_out[doc_id] = {}
            self._doc_in[doc_id] = {}
        return root

    def add_child(self, parent: ElementId, tag: str) -> Element:
        """Append a child element under ``parent``; returns the new element."""
        p = self.elements[parent]
        e = self._allocate(tag, p.doc, parent)
        self._own_doc(p.doc).add_child(parent, e.eid)
        return e

    def add_link(self, source: ElementId, target: ElementId) -> None:
        """Add a link; classified as intra- or inter-document automatically."""
        sdoc = self.elements[source].doc
        tdoc = self.elements[target].doc
        link = (source, target)
        if sdoc == tdoc:
            if link in self.documents[sdoc].intra_links:
                return
            self._own_doc(sdoc).add_intra_link(source, target)
        elif link in self.inter_links:
            return
        else:
            self.inter_links.add(link)
            if self._link_map is not None:
                self._count_doc_link(sdoc, tdoc, 1)
        if self._link_map is not None:
            self._link_map[source] = self._link_map.get(source, ()) + (target,)

    def remove_link(self, source: ElementId, target: ElementId) -> None:
        sdoc = self.elements[source].doc
        tdoc = self.elements[target].doc
        link = (source, target)
        if sdoc == tdoc:
            if link not in self.documents[sdoc].intra_links:
                return
            self._own_doc(sdoc).intra_links.discard(link)
        elif link not in self.inter_links:
            return
        else:
            self.inter_links.discard(link)
            if self._link_map is not None:
                self._count_doc_link(sdoc, tdoc, -1)
        if self._link_map is not None:
            self._drop_targets(source, {target})

    def remove_document(self, doc_id: DocId) -> Set[ElementId]:
        """Remove a document, its elements, and all incident inter-links.

        The inter-links dropped are the victim's own, found through the
        link index (:meth:`incident_inter_links`), not by a pass over
        every link.

        Returns:
            The set of element ids that were removed.
        """
        incident = self.incident_inter_links(doc_id)
        doc = self.documents.pop(doc_id)
        self._shared_docs.discard(doc_id)
        removed = set(doc.elements)
        for e in removed:
            tag = self.elements.pop(e).tag
            if self._tags is not None:
                ids = self._own_tag(tag)
                del ids[bisect_left(ids, e)]
                if not ids:
                    del self._tags[tag]
        self.inter_links.difference_update(incident)
        links = self._link_map
        for e in removed:
            links.pop(e, None)
        for u in {u for u, _ in incident if u not in removed}:
            self._drop_targets(u, removed)
        for other in self._doc_out.pop(doc_id):
            del self._own_adj(other)[1][doc_id]
        for other in self._doc_in.pop(doc_id):
            del self._own_adj(other)[0][doc_id]
        self._shared_adj.discard(doc_id)
        return removed

    # -- the link index ---------------------------------------------------
    def _link_index(self) -> Dict[ElementId, Tuple[ElementId, ...]]:
        """The link map, built on first use (the one pass over every
        link), with the document rows beside it."""
        if self._link_map is None:
            targets: Dict[ElementId, List[ElementId]] = {}
            for u, v in self.all_links():
                targets.setdefault(u, []).append(v)
            self._link_map = {u: tuple(vs) for u, vs in targets.items()}
            self._doc_out = {d: {} for d in self.documents}
            self._doc_in = {d: {} for d in self.documents}
            self._shared_adj = set()
            for u, v in self.inter_links:
                self._count_doc_link(self.elements[u].doc, self.elements[v].doc, 1)
        return self._link_map

    def _count_doc_link(self, sdoc: DocId, tdoc: DocId, step: int) -> None:
        """Add ``step`` to the links counted from ``sdoc`` to ``tdoc``;
        a pair whose count drops to 0 leaves the adjacency."""
        out, into = self._own_adj(sdoc)[0], self._own_adj(tdoc)[1]
        for row, key in ((out, tdoc), (into, sdoc)):
            count = row.get(key, 0) + step
            if count:
                row[key] = count
            else:
                del row[key]

    def _drop_targets(self, source: ElementId, gone: Set[ElementId]) -> None:
        """Take the targets in ``gone`` out of ``source``'s link map row."""
        kept = tuple(v for v in self._link_map.get(source, ()) if v not in gone)
        if kept:
            self._link_map[source] = kept
        else:
            self._link_map.pop(source, None)

    def link_targets(self) -> Dict[ElementId, Tuple[ElementId, ...]]:
        """``source -> (targets, ...)`` over every intra- and
        inter-document link (a source without links has no row).

        The collection keeps this map current; it is a live view, read
        only, that later changes to the collection show through.
        """
        return self._link_index()

    def document_links(self) -> DocumentLinks:
        """The document-level graph ``G_D(X)`` with its link counts, as
        the collection keeps it (:meth:`document_graph` builds a fresh
        :class:`~repro.graph.digraph.DiGraph` instead)."""
        self._link_index()
        return DocumentLinks(self._doc_out, self._doc_in)

    def incident_inter_links(self, doc_id: DocId) -> List[Link]:
        """The inter-document links out of and into ``doc_id``, sorted:
        its own elements' link map rows, and those of the documents the
        kept adjacency says link into it."""
        links = self._link_index()
        documents, elements = self.documents, self.elements
        incident = []
        for u in documents[doc_id].elements:
            incident += ((u, v) for v in links.get(u, ()) if elements[v].doc != doc_id)
        for other in self._doc_in[doc_id]:
            for u in documents[other].elements:
                incident += (
                    (u, v) for v in links.get(u, ()) if elements[v].doc == doc_id
                )
        incident.sort()
        return incident

    # ------------------------------------------------------------------
    # the formal model's derived objects
    # ------------------------------------------------------------------
    def doc(self, eid: ElementId) -> DocId:
        """The document mapping function ``doc: V_E(X) -> D``."""
        return self.elements[eid].doc

    def all_links(self) -> Iterator[Link]:
        """``L(X)`` — inter-document links plus every intra-document link."""
        yield from self.inter_links
        for d in self.documents.values():
            yield from d.intra_links

    def element_graph(self) -> DiGraph:
        """The element-level graph ``G_E(X)`` of the whole collection."""
        g = DiGraph()
        for e in self.elements:
            g.add_node(e)
        for d in self.documents.values():
            g.add_edges(d.graph_edges())
        g.add_edges(self.inter_links)
        return g

    def document_graph(self) -> DiGraph:
        """The document-level graph ``G_D(X)``.

        An edge ``(d_i, d_j)`` exists iff some inter-document link goes
        from an element of ``d_i`` to an element of ``d_j``.
        """
        g = DiGraph()
        for doc_id in self.documents:
            g.add_node(doc_id)
        for u, v in self.inter_links:
            g.add_edge(self.doc(u), self.doc(v))
        return g

    def document_link_counts(self) -> Dict[Tuple[DocId, DocId], int]:
        """Edge weights of ``G_D(X)``: number of links per document pair.

        This is the paper's original edge-weight function for the
        partitioner (Section 3.3); Section 4.3's ``A*D`` / ``A+D``
        weights are computed by :mod:`repro.core.skeleton`.
        """
        counts: Dict[Tuple[DocId, DocId], int] = {}
        for u, v in self.inter_links:
            key = (self.doc(u), self.doc(v))
            counts[key] = counts.get(key, 0) + 1
        return counts

    def document_weights(self) -> Dict[DocId, int]:
        """Node weights of ``G_D(X)``: number of elements per document."""
        return {d.doc_id: d.num_elements for d in self.documents.values()}

    def subcollection(self, doc_ids: Iterable[DocId]) -> "Collection":
        """The subcollection induced by ``doc_ids`` (a partition, Section 2).

        Documents are shared by reference (they are not copied); only
        inter-links with both endpoints inside are kept. Element ids are
        preserved, so covers computed on partitions can be unioned.
        Documents keep the order of ``doc_ids`` (repeats dropped), so the
        element graph, and a greedy cover of it, is the same in every
        process: document ids are strings, whose set order is not.
        """
        keep = dict.fromkeys(doc_ids)
        sub = Collection()
        for doc_id in keep:
            doc = self.documents[doc_id]
            sub.documents[doc_id] = doc
            for e in doc.elements:
                sub.elements[e] = self.elements[e]
        # the kept documents' link map rows: a partition's cost, not the
        # collection's
        links, elements = self._link_index(), self.elements
        sub.inter_links = {
            (u, v)
            for doc_id in keep
            for u in self.documents[doc_id].elements
            for v in links.get(u, ())
            if elements[v].doc != doc_id and elements[v].doc in keep
        }
        sub._next_id = self._next_id
        return sub

    def copy(self) -> "Collection":
        """A structurally independent deep copy of the collection.

        Unlike :meth:`subcollection` (which shares ``Document`` objects
        for cheap partitioning), the copy owns fresh ``Document`` and
        ``Element`` objects, so maintenance on the copy never leaks into
        the original — this is what lets the service layer mutate a
        shadow collection while readers keep answering on the published
        one. Element ids are preserved.
        """
        fresh = Collection()
        for doc_id, doc in self.documents.items():
            dup = Document(doc_id, doc.root)
            dup.elements = set(doc.elements)
            dup.children = {p: list(kids) for p, kids in doc.children.items()}
            dup.intra_links = set(doc.intra_links)
            fresh.documents[doc_id] = dup
        for eid, e in self.elements.items():
            fresh.elements[eid] = Element(
                e.eid, e.tag, e.doc, e.parent, dict(e.attributes), e.text
            )
        fresh.inter_links = set(self.inter_links)
        fresh._next_id = self._next_id
        return fresh

    # ------------------------------------------------------------------
    # statistics (Table 1)
    # ------------------------------------------------------------------
    @property
    def num_documents(self) -> int:
        return len(self.documents)

    @property
    def num_elements(self) -> int:
        return len(self.elements)

    @property
    def num_links(self) -> int:
        """``|L(X)|`` — inter-document plus intra-document links."""
        return len(self.inter_links) + sum(
            len(d.intra_links) for d in self.documents.values()
        )

    def elements_of(self, doc_id: DocId) -> Set[ElementId]:
        return self.documents[doc_id].elements

    def tags(self) -> Dict[str, List[ElementId]]:
        """Inverted tag index: tag name -> sorted element ids.

        The first call scans every element; later calls cost O(tags),
        since the collection keeps the index up to date as elements
        come and go. The returned dict is a snapshot that later
        maintenance never changes (its lists are shared with the
        collection until their first change, so callers must not
        mutate them).
        """
        if self._tags is None:
            index: Dict[str, List[ElementId]] = {}
            for e in self.elements.values():
                index.setdefault(e.tag, []).append(e.eid)
            for ids in index.values():
                ids.sort()
            self._tags = index
        self._shared_tags = set(self._tags)
        return dict(self._tags)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"Collection(docs={self.num_documents}, elements={self.num_elements}, "
            f"links={self.num_links})"
        )
