"""Partitioning the document-level graph (Sections 3.3 and 4.3).

HOPI never materialises the closure of the whole collection; it
partitions the *document-level* graph so that every partition's
element-level transitive closure fits in memory, covers each partition
independently, and joins the covers (:mod:`repro.core.join`).

Two partitioners are implemented:

* :func:`partition_by_node_weight` — the **original** (EDBT 2004)
  algorithm: documents are greedily grown into partitions around random
  seeds, "conservatively limiting the sum of node weights within a single
  partition and minimizing the weight of cross-partition edges". The
  node weight of a document is its element count; the default edge
  weight is the number of links between the two documents. Table 2's
  ``P5 .. P50`` rows use this partitioner with different node limits.

* :func:`partition_by_closure_size` — the **new** (Section 4.3)
  algorithm: while growing a partition it tracks the exact
  transitive-closure size of the partition's element graph (an
  :class:`IncrementalClosureCounter`, updated per candidate document
  rather than recomputed) and only "continues with the next partition
  when the transitive closure is as large as the available memory".
  This yields partitions of balanced
  closure size (the paper's argument for near-linear parallel speedup)
  and far fewer, larger partitions than conservative node counting.
  Table 2's ``N10 .. N100`` rows use this partitioner.

Both accept a custom edge-weight function so the Section 4.3 ``A*D`` /
``A+D`` connection-based weights (computed on the skeleton graph, see
:mod:`repro.core.skeleton`) can be plugged in.
"""

from __future__ import annotations

import math
import random
import warnings
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

from repro.graph.digraph import DiGraph
from repro.xmlmodel.model import Collection, DocId, ElementId, Link

EdgeWeight = Callable[[DocId, DocId], float]


@dataclass
class Partitioning:
    """A partitioning ``P(X) = ({P1..Pm}, LP)`` of a collection.

    Attributes:
        partitions: disjoint document-id groups covering the collection.
        cross_links: ``LP`` — the element-level inter-document links whose
            endpoints lie in different partitions.
        part_of: the partition map ``part: D -> {P1..Pm}`` as indexes
            into ``partitions``.
    """

    partitions: List[List[DocId]]
    cross_links: List[Link] = field(default_factory=list)
    part_of: Dict[DocId, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.part_of:
            self.part_of = {
                d: i for i, docs in enumerate(self.partitions) for d in docs
            }

    @property
    def num_partitions(self) -> int:
        """``m`` — how many partitions the collection was split into."""
        return len(self.partitions)


def compute_cross_links(
    collection: Collection, part_of: Dict[DocId, int]
) -> List[Link]:
    """The links of ``L`` whose documents lie in different partitions."""
    return [
        (u, v)
        for (u, v) in sorted(collection.inter_links)
        if part_of[collection.doc(u)] != part_of[collection.doc(v)]
    ]


def link_count_edge_weight(collection: Collection) -> EdgeWeight:
    """The original edge weight: number of links between two documents."""
    counts = collection.document_link_counts()

    def weight(a: DocId, b: DocId) -> float:
        return float(counts.get((a, b), 0) + counts.get((b, a), 0))

    return weight


def _bits(row: int) -> Iterator[int]:
    """The positions of the set bits of ``row``, lowest first."""
    while row:
        low = row & -row
        yield low.bit_length() - 1
        row ^= low


class IncrementalClosureCounter:
    """Exact closure size of a partition that grows document by document.

    Section 4.3 grows a partition "until the transitive closure is as
    large as the available memory" — which needs the closure's *size*
    after every candidate, not the closure. The counter keeps, for the
    current member documents, one reflexive descendant row and one
    reflexive ancestor row per element as Python-int bitsets over a
    partition-local dense id space (bit ``i`` = the ``i``-th element
    added), plus the running number of strict connections
    :attr:`pairs`. Adding a document costs its own tree closure plus
    one edge-insertion update per link, instead of a from-scratch
    closure of the whole partition.

    Rows are as wide as the partition's element count; a budget bounds
    the number of set bits, not the width.
    """

    def __init__(self, collection: Collection) -> None:
        self.collection = collection
        #: strict connections ``(u, v), u != v`` among the members
        self.pairs = 0
        self._index: Dict[ElementId, int] = {}
        self._desc: List[int] = []
        self._anc: List[int] = []
        # inter-document links by the documents they touch (both ends)
        self._links: Dict[DocId, List[Link]] = {}
        for link in collection.inter_links:
            for eid in link:
                self._links.setdefault(collection.doc(eid), []).append(link)

    def clear(self) -> None:
        """Forget every member (start the next partition)."""
        self.pairs = 0
        self._index.clear()
        self._desc.clear()
        self._anc.clear()

    def try_add(self, doc_id: DocId, budget: float = math.inf) -> bool:
        """Add a document if the members' closure then fits ``budget``.

        Appends the document's tree closure, then inserts its
        intra-document links and every inter-document link joining it
        to a current member (either direction; cycles allowed). Stops
        at the first moment :attr:`pairs` exceeds ``budget`` — the
        count only grows, so the final size would exceed it too — and
        rolls the counter back to its state before the call.

        Returns:
            True when the document was added; False when it was
            rejected and rolled back.
        """
        doc = self.collection.documents[doc_id]
        index, desc, anc = self._index, self._desc, self._anc
        base = len(desc)
        pairs_before = self.pairs
        children = doc.children
        # breadth-first ids: parents before children
        order = [doc.root]
        above = [0]  # per queued element, its parent's ancestor row
        for i, v in enumerate(order, base):
            index[v] = i
            row = above[i - base] | 1 << i
            anc.append(row)
            kids = children[v]
            if kids:
                order.extend(kids)
                above.extend([row] * len(kids))
        desc.extend([0] * len(order))
        pairs = pairs_before
        for i in range(len(desc) - 1, base - 1, -1):  # children before parents
            row = 1 << i
            for child in children[order[i - base]]:
                row |= desc[index[child]]
            desc[i] = row
            pairs += row.bit_count() - 1
        self.pairs = pairs
        # rows of earlier members overwritten by this call, oldest first
        undo: List[Tuple[List[int], int, int]] = []
        fits = pairs <= budget
        if fits:
            for u, v in (*doc.intra_links, *self._links.get(doc_id, ())):
                # an inter-document link counts once both ends are members
                if u in index and v in index and not self._insert_edge(
                    index[u], index[v], budget, base, undo
                ):
                    fits = False
                    break
        if not fits:
            for rows, i, old in reversed(undo):
                rows[i] = old
            del desc[base:], anc[base:]
            for v in order:
                del index[v]
            self.pairs = pairs_before
        return fits

    def _insert_edge(
        self,
        u: int,
        v: int,
        budget: float,
        base: int,
        undo: List[Tuple[List[int], int, int]],
    ) -> bool:
        """Edge-insertion update for ``u -> v`` (local ids): every
        ancestor of ``u`` gains every descendant of ``v`` and vice
        versa. Overwritten rows below ``base`` are logged to ``undo``.
        Returns False — leaving the rows half-updated, for the caller
        to roll back — as soon as :attr:`pairs` exceeds ``budget``."""
        desc, anc = self._desc, self._anc
        if desc[u] >> v & 1:
            return True
        gained, gaining = desc[v], anc[u]
        for a in _bits(gaining):
            old = desc[a]
            new = old | gained
            if new != old:
                if a < base:
                    undo.append((desc, a, old))
                desc[a] = new
                self.pairs += (new ^ old).bit_count()
                if self.pairs > budget:
                    return False
        for d in _bits(gained):
            old = anc[d]
            new = old | gaining
            if new != old:
                if d < base:
                    undo.append((anc, d, old))
                anc[d] = new
        return True


def _grow_partition(
    doc_graph: DiGraph,
    seed_doc: DocId,
    unassigned: Set[DocId],
    edge_weight: EdgeWeight,
    can_add: Callable[[DocId], bool],
) -> List[DocId]:
    """Greedy graph-growing: repeatedly absorb the unassigned neighbour
    with the heaviest connecting weight while ``can_add`` allows it."""
    partition = [seed_doc]
    members: Set[DocId] = {seed_doc}
    unassigned.discard(seed_doc)
    # frontier: candidate -> accumulated connecting weight
    frontier: Dict[DocId, float] = {}

    def extend_frontier(doc: DocId) -> None:
        for nb in set(doc_graph.successors(doc)) | set(doc_graph.predecessors(doc)):
            if nb in members or nb not in unassigned:
                continue
            frontier[nb] = frontier.get(nb, 0.0) + edge_weight(doc, nb)

    extend_frontier(seed_doc)
    while frontier:
        # heaviest edge first; deterministic tiebreak on the doc id
        candidate = max(frontier, key=lambda d: (frontier[d], str(d)))
        del frontier[candidate]
        if candidate not in unassigned:
            continue
        if not can_add(candidate):
            continue
        partition.append(candidate)
        members.add(candidate)
        unassigned.discard(candidate)
        extend_frontier(candidate)
    return partition


def partition_by_node_weight(
    collection: Collection,
    max_nodes: int,
    *,
    edge_weight: Optional[EdgeWeight] = None,
    seed: int = 0,
) -> Partitioning:
    """The original randomized partitioner (Section 3.3).

    Args:
        collection: the collection to partition.
        max_nodes: conservative limit on the sum of document node weights
            (element counts) per partition; the paper's ``Px`` runs use
            ``x * 10^4``.
        edge_weight: cross-document edge weight to greedily maximise
            inside partitions (default: link counts).
        seed: seed for the randomized choice of partition seeds.
    """
    if max_nodes <= 0:
        raise ValueError("max_nodes must be positive")
    edge_weight = edge_weight or link_count_edge_weight(collection)
    rng = random.Random(seed)
    doc_graph = collection.document_graph()
    weights = collection.document_weights()
    unassigned: Set[DocId] = set(collection.documents)
    order = sorted(unassigned)
    rng.shuffle(order)

    partitions: List[List[DocId]] = []
    for doc in order:
        if doc not in unassigned:
            continue
        # running node-weight budget of the partition being grown
        cell = [weights[doc]]

        def can_add(candidate: DocId) -> bool:
            if cell[0] + weights[candidate] > max_nodes:
                return False
            cell[0] += weights[candidate]
            return True

        partitions.append(
            _grow_partition(doc_graph, doc, unassigned, edge_weight, can_add)
        )
    part_of = {d: i for i, docs in enumerate(partitions) for d in docs}
    return Partitioning(partitions, compute_cross_links(collection, part_of), part_of)


def partition_by_closure_size(
    collection: Collection,
    max_closure_connections: int,
    *,
    edge_weight: Optional[EdgeWeight] = None,
    seed: int = 0,
) -> Partitioning:
    """The new closure-size-aware partitioner (Section 4.3).

    While incrementally growing a partition, the exact size of the
    transitive closure of the partition's element-level graph is
    maintained by an :class:`IncrementalClosureCounter` (a candidate is
    abandoned as soon as it pushes the count over the budget) and the
    partition is closed as soon as the budget is reached. "This allows
    much more connections to be covered by the partition covers and
    reduces the number of cross-partition links."

    Documents are atomic: when a *single* document's element-level
    closure already exceeds the budget, the partitioner cannot split it
    further, so it falls back gracefully — the document becomes a
    singleton partition, and a single :class:`UserWarning` summarising
    every such document is emitted so the over-budget partitions are
    visible to the caller.

    Args:
        collection: the collection to partition.
        max_closure_connections: the memory budget expressed as a number
            of closure connections; the paper's ``Nx`` runs use
            ``x * 10^5``.
        edge_weight: cross-document edge weight (default: link counts;
            pass the skeleton-graph ``A*D`` weight for the paper's best
            variant).
        seed: seed for the randomized choice of partition seeds.
    """
    if max_closure_connections <= 0:
        raise ValueError("max_closure_connections must be positive")
    edge_weight = edge_weight or link_count_edge_weight(collection)
    rng = random.Random(seed)
    doc_graph = collection.document_graph()
    unassigned: Set[DocId] = set(collection.documents)
    order = sorted(unassigned)
    rng.shuffle(order)

    counter = IncrementalClosureCounter(collection)
    partitions: List[List[DocId]] = []
    oversized: List[DocId] = []
    for doc in order:
        if doc not in unassigned:
            continue
        counter.clear()
        # A seed over budget on its own stays a singleton: closures only
        # grow, so no candidate can fit next to it.
        seed_fits = counter.try_add(doc, max_closure_connections)
        if not seed_fits:
            oversized.append(doc)

        def can_add(candidate: DocId) -> bool:
            return seed_fits and counter.try_add(
                candidate, max_closure_connections
            )

        partitions.append(
            _grow_partition(doc_graph, doc, unassigned, edge_weight, can_add)
        )
    if oversized:
        warnings.warn(
            f"{len(oversized)} document(s) have a transitive closure "
            f"larger than the partition budget of "
            f"{max_closure_connections} connections "
            f"(e.g. {oversized[0]!r}); they were kept as over-budget "
            "singleton partitions — raise max_closure_connections (or "
            "partition_limit) to restore balanced partitions",
            UserWarning,
            stacklevel=2,
        )
    part_of = {d: i for i, docs in enumerate(partitions) for d in docs}
    return Partitioning(partitions, compute_cross_links(collection, part_of), part_of)


def single_document_partitioning(collection: Collection) -> Partitioning:
    """Every document its own partition — Table 2's "naive" ``single`` row."""
    partitions = [[d] for d in sorted(collection.documents)]
    part_of = {d: i for i, (d,) in enumerate(partitions)}
    return Partitioning(partitions, compute_cross_links(collection, part_of), part_of)
