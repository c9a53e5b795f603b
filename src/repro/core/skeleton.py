"""Skeleton graphs (Definitions 1 and 2 of the paper).

Two closely related "small" graphs summarise how connectivity crosses
document / partition borders:

* the **skeleton graph** ``S(X)`` (Definition 2, Figure 5): nodes are
  sources and targets of inter-document links; edges are the links plus,
  for every link target ``t``, an edge to every link source ``s`` of the
  same document that ``t`` reaches *within* that document. Annotated
  with per-document tree ancestor/descendant counts, a bounded
  breadth-first traversal estimates each link's global number of
  ancestors ``A`` and descendants ``D``, giving the Section 4.3
  connection-aware edge weights ``A*D`` and ``A+D`` for the partitioner.

* the **partition-level skeleton graph** (PSG) ``S(P)`` (Definition 1,
  Figure 3): same construction one level up — nodes are endpoints of
  *cross-partition* links ``LP``; edges are ``LP`` plus edges between
  link targets and link sources connected within the same partition.
  The PSG is the input of the structurally recursive cover join
  (Section 4.1, :mod:`repro.core.join`).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.core.partitioning import Partitioning
from repro.graph.digraph import DiGraph
from repro.graph.traversal import ancestors, bfs_distances, descendants
from repro.xmlmodel.model import Collection, DocId, ElementId


def build_skeleton_graph(collection: Collection) -> DiGraph:
    """The skeleton graph ``S(X)`` of a collection (Definition 2).

    Within-document reachability ``t ->* s`` is evaluated on the
    document's element-level graph ``G_E(d)`` (tree plus intra-document
    links); the Definition's ``T_E(doc(v))`` wording covers the common
    case of link-free trees, but following intra-links is what actually
    preserves connectivity, and coincides with it on tree documents.
    """
    sources: Set[ElementId] = {u for (u, _) in collection.inter_links}
    targets: Set[ElementId] = {v for (_, v) in collection.inter_links}
    graph = DiGraph()
    for v in sources | targets:
        graph.add_node(v)
    for u, v in collection.inter_links:
        graph.add_edge(u, v)
    # per-document: connect each link target to the link sources it reaches
    by_doc_sources: Dict[DocId, List[ElementId]] = {}
    for s in sources:
        by_doc_sources.setdefault(collection.doc(s), []).append(s)
    for t in targets:
        doc_id = collection.doc(t)
        doc_sources = by_doc_sources.get(doc_id)
        if not doc_sources:
            continue
        reachable = descendants(
            collection.documents[doc_id].element_graph(), t
        )
        for s in doc_sources:
            if s in reachable and s != t:
                graph.add_edge(t, s)
    return graph


def annotate_tree_counts(
    collection: Collection, nodes: Iterable[ElementId]
) -> Dict[ElementId, Tuple[int, int]]:
    """``(anc, desc)`` tree counts (both including self) for skeleton
    nodes, as in Figure 5's node annotations."""
    needed_by_doc: Dict[DocId, List[ElementId]] = {}
    for v in nodes:
        needed_by_doc.setdefault(collection.doc(v), []).append(v)
    result: Dict[ElementId, Tuple[int, int]] = {}
    for doc_id, members in needed_by_doc.items():
        counts = collection.documents[doc_id].tree_counts()
        for v in members:
            result[v] = counts[v]
    return result


def estimate_global_counts(
    skeleton: DiGraph,
    tree_counts: Dict[ElementId, Tuple[int, int]],
    link_sources: Set[ElementId],
    *,
    max_depth: int = 6,
) -> Tuple[Dict[ElementId, int], Dict[ElementId, int]]:
    """Approximate global ancestor/descendant counts ``A(x)`` / ``D(x)``.

    Implements Section 4.3's bounded breadth-first estimation: starting
    from every skeleton node ``x``, traverse up to ``max_depth`` edges;
    whenever a cross-document link ``(u, v)`` is traversed, ``D(x)`` is
    increased by ``desc(v)``; whenever an edge into a link source ``s``
    (a within-document target-to-source edge) is traversed, ``A(s)`` is
    increased by ``anc(x)``. "As S(X) may contain long paths, the
    computation is limited to paths of a certain length, hence the
    resulting numbers are only approximates."

    Returns:
        ``(A, D)`` dictionaries over the skeleton nodes.
    """
    a_count: Dict[ElementId, int] = {}
    d_count: Dict[ElementId, int] = {}
    for x in skeleton:
        anc_x, desc_x = tree_counts[x]
        a_count.setdefault(x, 0)
        d_count.setdefault(x, 0)
        a_count[x] += anc_x
        d_count[x] += desc_x
    for x in skeleton:
        anc_x, _ = tree_counts[x]
        level = bfs_distances(skeleton, x, max_depth=max_depth)
        for node, dist in level.items():
            if dist == 0:
                continue
            # classify the edge by its head: heads that are link sources
            # were reached over within-document (target -> source) edges;
            # all other heads were reached over cross-document links.
            if node in link_sources:
                a_count[node] += anc_x
            else:
                d_count[x] += tree_counts[node][1]
    return a_count, d_count


def connection_edge_weight(
    collection: Collection,
    *,
    mode: str = "AxD",
    max_depth: int = 6,
) -> Callable[[DocId, DocId], float]:
    """Section 4.3's connection-aware document edge weights.

    For every inter-document link ``(u, v)``, the number of ancestors
    ``A(u)`` of the source and descendants ``D(v)`` of the target are
    estimated on the skeleton graph; the weight of a document-graph edge
    is the sum over its links of ``A*D`` (number of connections over the
    link) or ``A+D`` (number of nodes connected over the link).

    Args:
        collection: the collection.
        mode: ``"AxD"`` or ``"A+D"``.
        max_depth: bounded-BFS depth for the estimation.

    Returns:
        An edge-weight function ``(doc_a, doc_b) -> float`` suitable for
        the partitioners.
    """
    if mode not in ("AxD", "A+D"):
        raise ValueError(f"unknown edge weight mode {mode!r}")
    skeleton = build_skeleton_graph(collection)
    tree_counts = annotate_tree_counts(collection, skeleton.nodes())
    link_sources = {u for (u, _) in collection.inter_links}
    a_count, d_count = estimate_global_counts(
        skeleton, tree_counts, link_sources, max_depth=max_depth
    )
    weights: Dict[Tuple[DocId, DocId], float] = {}
    for u, v in collection.inter_links:
        a, d = a_count[u], d_count[v]
        w = float(a * d) if mode == "AxD" else float(a + d)
        key = (collection.doc(u), collection.doc(v))
        weights[key] = weights.get(key, 0.0) + w

    def weight(x: DocId, y: DocId) -> float:
        return weights.get((x, y), 0.0) + weights.get((y, x), 0.0)

    return weight


# ---------------------------------------------------------------------------
# partition-level skeleton graph (Definition 1)
# ---------------------------------------------------------------------------

def build_psg(
    collection: Collection,
    partitioning: Partitioning,
    partition_descendants: Callable[[int, ElementId], Set[ElementId]],
) -> DiGraph:
    """The partition-level skeleton graph ``S(P)`` (Definition 1).

    Args:
        collection: the collection.
        partitioning: a partitioning with cross-links ``LP``.
        partition_descendants: callable giving, for ``(partition index,
            element)``, the set of elements reachable from the element
            *within* that partition — the joiners pass the partition
            covers' ``descendants`` here, so the PSG construction needs
            no extra traversals.

    Returns:
        A digraph whose nodes are the endpoints of cross-partition links
        and whose edges are those links plus within-partition
        target-to-source connections.
    """
    cross = partitioning.cross_links
    sources: Set[ElementId] = {u for (u, _) in cross}
    targets: Set[ElementId] = {v for (_, v) in cross}
    psg = DiGraph()
    for v in sources | targets:
        psg.add_node(v)
    for u, v in cross:
        psg.add_edge(u, v)
    by_part_sources: Dict[int, List[ElementId]] = {}
    for s in sources:
        pid = partitioning.part_of[collection.doc(s)]
        by_part_sources.setdefault(pid, []).append(s)
    for t in targets:
        pid = partitioning.part_of[collection.doc(t)]
        part_sources = by_part_sources.get(pid)
        if not part_sources:
            continue
        reachable = partition_descendants(pid, t)
        for s in part_sources:
            if s != t and s in reachable:
                psg.add_edge(t, s)
    return psg


def psg_source_target_closure(
    psg: DiGraph,
    targets: Set[ElementId],
    *,
    sources: Optional[Iterable[ElementId]] = None,
) -> Dict[ElementId, Set[ElementId]]:
    """``H̄`` of Section 4.1: for every node, the link *targets* it
    reaches in the PSG.

    This is the paper's "adapted transitive closure algorithm" — only
    source-to-target reachability is needed, so plain per-node BFS
    collecting target hits suffices. ``H̄in(t) = {t}`` is implicit under
    the never-store-self convention and needs no representation.

    Args:
        psg: the partition-level skeleton graph.
        targets: the cross-partition link targets.
        sources: when given, compute ``H̄out`` only for these nodes —
            the joins distribute ``H̄out(s)`` for link *sources* only,
            so restricting the per-node BFS sweep to them skips every
            pure-target node.

    Returns:
        Mapping node -> set of reachable link targets (excluding the
        node itself; a target that is also a source still lists *other*
        targets it reaches).
    """
    wanted = list(psg if sources is None else sources)
    result: Dict[ElementId, Set[ElementId]] = {s: set() for s in wanted}
    if len(targets) < len(wanted):
        # sweep from the (fewer) targets over the reversed PSG instead
        # of one BFS per source — identical result, |targets| sweeps
        for t in targets:
            if t not in psg:
                continue
            for a in ancestors(psg, t, strict=True):
                reach = result.get(a)
                if reach is not None:
                    reach.add(t)
        return result
    for s in wanted:
        reached = descendants(psg, s, strict=True)
        result[s] = {t for t in reached if t in targets}
    return result
