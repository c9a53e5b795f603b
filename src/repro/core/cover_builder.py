"""Building a 2-hop cover (Sections 3.2 and 4.2 of the paper).

The exact minimum 2-hop cover is NP-hard; Cohen et al.'s greedy
approximation repeatedly picks the center node whose center graph has the
densest subgraph, labels the subgraph's node sets with that center, and
removes the covered connections. The paper's two accelerations are
implemented:

* a **lazy priority queue** over densest-subgraph densities — densities
  only decrease as connections get covered, so a node is popped, its
  density recomputed, and it is pushed back if stale ("we have to
  recompute the densest subgraphs for only few instead of all nodes");
* initial priorities come from the closed form for complete bipartite
  center graphs instead of an explicit densest-subgraph run ("initial
  center graphs are always their own densest subgraph").

Section 4.2's **center-node preselection** is also here: link targets
(of cross-partition links) can be forced as center nodes before the
greedy loop starts, which reduces redundant entries once partition
covers are joined.

:func:`build_cover` is the public entry point for arbitrary digraphs: it
condenses strongly connected components, covers the condensation DAG,
and expands the component labels back to the original nodes. The
paper's pipeline (:mod:`repro.core.pipeline`) runs it on each
partition's element graph, with the partition's cross-link targets
preselected; ties go by node order, which that graph fixes.

:func:`build_pll_cover` is the product's labelling, and an extension of
the paper: pruned landmark labelling (Akiba, Iwata & Yoshida, SIGMOD
2013) writes a 2-hop cover in the same ``Lin`` / ``Lout`` form from one
pruned breadth-first search pair per vertex, with no closure, no
partitions and no join. :func:`build_collection_pll_cover`, the product
build, runs it on a collection's element graph read straight from the
documents. A link-free document (no intra-document link, no element
an inter-document link endpoint) is a tree component of that graph,
and one closed-form walk over its ``children`` writes its labels
instead of searches: PLL labels are canonical, a pair being covered by
the highest-ranked vertex on its path, and a tree path is unique, so
the walk writes exactly the entries the searches would. The greedy builder above stays
as the reproduction and as the differential oracle.
"""

from __future__ import annotations

import functools
import gc
import heapq
from array import array
from itertools import chain
from typing import (
    Callable, Dict, Hashable, Iterable, Iterator, List, Mapping, Optional, Sequence,
    Set, Tuple, Union,
)

from repro.core.center_graph import densest_subgraph, initial_density_upper_bound
from repro.core.cover import (
    ID_TYPECODE, RANK_TYPECODE, DistanceTwoHopCover, TwoHopCover, rank_array,
)
from repro.graph.closure import TransitiveClosure, condensation_closure
from repro.graph.condensation import Condensation, tarjan_components
from repro.graph.digraph import DiGraph
from repro.xmlmodel.model import Collection, Document

Node = Hashable

#: A cover constructor, ``factory(nodes) -> cover``: ``TwoHopCover``, a
#: subclass, or anything with its ``add_lin`` / ``add_lout`` surface (the
#: test oracle) — the builders touch no more.
CoverFactory = Callable[[Iterable[Node]], "TwoHopCover"]


class _UncoveredSet:
    """The mutable set ``T'`` of not-yet-covered connections.

    Kept as forward and reverse adjacency so center graphs can be built
    by intersecting ancestor rows with descendant columns.
    """

    def __init__(self, closure: TransitiveClosure) -> None:
        self.fwd: Dict[Node, Set[Node]] = {
            u: set(vs) for u, vs in closure.reach.items() if vs
        }
        self.rev: Dict[Node, Set[Node]] = {}
        for u, vs in self.fwd.items():
            for v in vs:
                self.rev.setdefault(v, set()).add(u)
        self.count = sum(len(vs) for vs in self.fwd.values())

    def remove(self, u: Node, v: Node) -> None:
        targets = self.fwd.get(u)
        if targets and v in targets:
            targets.discard(v)
            self.rev[v].discard(u)
            self.count -= 1

    def __bool__(self) -> bool:
        return self.count > 0


def _center_graph_adj(
    uncovered: _UncoveredSet,
    cin: Set[Node],
    cout: Set[Node],
) -> Dict[Node, Set[Node]]:
    """Edges of the center graph: uncovered connections within Cin x Cout."""
    adj: Dict[Node, Set[Node]] = {}
    for u in cin:
        row = uncovered.fwd.get(u)
        if not row:
            continue
        hits = row & cout if len(row) >= len(cout) else {v for v in row if v in cout}
        if hits:
            adj[u] = hits
    return adj


def greedy_center_assignments(
    closure: TransitiveClosure,
    *,
    preselected_centers: Iterable[Node] = (),
) -> Iterator[Tuple[Node, Set[Node], Set[Node]]]:
    """The greedy 2-hop construction over a materialised DAG closure,
    as a stream of ``(center, in_side, out_side)`` assignments.

    Each assignment stands for the label entries ``center ∈ Lout(u)``
    for every ``u`` of ``in_side`` and ``center ∈ Lin(v)`` for every
    ``v`` of ``out_side``; together they cover every connection of the
    closure. The construction consults only the closure — never a
    cover — so callers are free to write the entries wherever (and
    under whatever node names) they like.

    Args:
        closure: the (strict) transitive closure of a DAG. Passing a
            closure with intra-component (cyclic) connections is invalid
            — use :func:`build_cover` for general graphs.
        preselected_centers: nodes to use as center nodes *first*
            (Section 4.2; HOPI passes cross-partition link targets).
            Each covers every uncovered connection running through it.
    """
    uncovered = _UncoveredSet(closure)

    # ---- Section 4.2: preselected centers (link targets) first --------
    for w in preselected_centers:
        if w not in closure.reach or not uncovered:
            continue
        cin = closure.ancestors_of(w) | {w}
        cout = closure.descendants_of(w) | {w}
        adj = _center_graph_adj(uncovered, cin, cout)
        if not adj:
            continue
        in_side: Set[Node] = set(adj)
        out_side: Set[Node] = set()
        for u, vs in adj.items():
            out_side.update(vs)
            for v in vs:
                uncovered.remove(u, v)
        yield w, in_side, out_side

    # ---- main greedy loop with the lazy priority queue -----------------
    # heap of (-density, tiebreak, node); stale entries are re-validated
    # on pop because densities only ever decrease.
    heap: List[Tuple[float, int, Node]] = []
    for i, w in enumerate(closure.reach):
        a = len(closure.ancestors_of(w)) + 1
        d = len(closure.descendants_of(w)) + 1
        priority = initial_density_upper_bound(a, d)
        if priority > 0:
            heap.append((-priority, i, w))
    heapq.heapify(heap)
    tiebreak = len(heap)

    while uncovered:
        if not heap:  # pragma: no cover - guaranteed non-empty (see below)
            raise RuntimeError("priority queue exhausted with uncovered connections")
        neg_priority, _, w = heapq.heappop(heap)
        cached = -neg_priority
        cin = closure.ancestors_of(w) | {w}
        cout = closure.descendants_of(w) | {w}
        adj = _center_graph_adj(uncovered, cin, cout)
        density, in_side, out_side = densest_subgraph(adj)
        if density <= 0.0:
            continue  # nothing through w is uncovered any more
        # Lazy re-validation: if stale and a better candidate may exist,
        # push back with the fresh density. (Every connection (u, v) in
        # T' keeps density(u) > 0, so the queue cannot run dry.)
        if heap and density < cached and -heap[0][0] > density:
            tiebreak += 1
            heapq.heappush(heap, (-density, tiebreak, w))
            continue
        for u in in_side:
            row = uncovered.fwd.get(u)
            if not row:
                continue
            for v in out_side & row if len(out_side) < len(row) else row & out_side:
                uncovered.remove(u, v)
        tiebreak += 1
        heapq.heappush(heap, (-density, tiebreak, w))
        yield w, in_side, out_side


def expand_component_cover(
    assignments: Iterable[Tuple[int, Set[int], Set[int]]],
    condensation: Condensation,
    *,
    cover_factory: CoverFactory = TwoHopCover,
) -> TwoHopCover:
    """Write center assignments over SCC ids as a cover over the
    original nodes.

    Every member of a component inherits the component's label entries
    with centers mapped to the component representatives; members of
    non-trivial components additionally get their own representative as
    a center in both labels, which encodes the intra-component
    connections (all members of an SCC reach each other).
    """
    cover = cover_factory(condensation.component_of.keys())
    members = condensation.members
    for w, in_side, out_side in assignments:
        center = members[w][0]
        for cid in in_side:
            for v in members[cid]:
                cover.add_lout(v, center)
        for cid in out_side:
            for v in members[cid]:
                cover.add_lin(v, center)
    for component in members:
        if len(component) > 1:
            for v in component:
                cover.add_lin(v, component[0])
                cover.add_lout(v, component[0])
    return cover


def build_cover(
    graph: DiGraph,
    *,
    preselected_centers: Iterable[Node] = (),
    cover_factory: CoverFactory = TwoHopCover,
) -> TwoHopCover:
    """Compute a 2-hop cover of an arbitrary directed graph.

    The graph is SCC-condensed, the condensation DAG's closure is
    covered greedily, and the component-level assignments are written
    straight into a cover over the original nodes
    (:func:`expand_component_cover`). For graphs that are already DAGs
    this adds only the id translation.

    Args:
        graph: any digraph (cycles allowed).
        preselected_centers: original-graph nodes to force as centers
            first (Section 4.2); mapped onto components internally.
        cover_factory: constructor for the result cover.
    """
    cond = Condensation(graph)
    dag_closure = condensation_closure(cond)
    comp_centers = []
    seen: Set[int] = set()
    for w in preselected_centers:
        cid = cond.component_of.get(w)
        if cid is not None and cid not in seen:
            seen.add(cid)
            comp_centers.append(cid)
    return expand_component_cover(
        greedy_center_assignments(dag_closure, preselected_centers=comp_centers),
        cond,
        cover_factory=cover_factory,
    )


def _collector_paused(build):
    """Run ``build`` with the cyclic collector off. A PLL build's
    adjacency lists and label lists form no cycles, and most die with
    the call; the label arrays that outlive it are few where the tree
    pass shares one ``Lin`` row per sibling group. A collector pass
    over them mid-build (on a 20k-element tree, one over the whole
    heap) is pure waste."""

    @functools.wraps(build)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return build(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()

    return paused


@_collector_paused
def build_pll_cover(
    nodes: Sequence[Node],
    edges: Union[Iterable[Tuple[Node, Node]], Mapping[Node, Iterable[Node]]],
    *,
    distance: bool = False,
    multiplier: Optional[Mapping[Node, int]] = None,
    order: Optional[Sequence[Node]] = None,
):
    """Pruned landmark labelling of an arbitrary digraph (cycles allowed).

    ``nodes`` are de-duplicated and sorted, and a vertex's BFS index is
    its position there; the cover gets each row at the vertex's own id
    (a skip when the nodes are ``0..n-1``). Vertices are taken by
    ``(out + 1) * (in + 1) * multiplier[v]`` descending (a vertex the
    sparse ``multiplier`` does not list counts 1), ties broken by node
    id, unless ``order`` lists them (every vertex once, first labelled
    first). The pruning is sound in any order; the product passes
    :func:`reach_multiplier`, which ranks the elements that reach
    across documents first. For each vertex ``w`` a
    forward BFS adds ``w`` to ``Lin(v)`` of every ``v`` it reaches, then
    a backward BFS adds ``w`` to ``Lout(u)`` of every ``u`` that reaches
    it. A vertex whose connection to ``w`` the labels written so far
    already answer (for distance: at a labelled distance no longer than
    its BFS depth) is skipped and not expanded; a BFS whose every first
    step is skipped so is never launched. The vertices one BFS
    labels, sorted, are ``w``'s row of the backward index, so the cover
    is handed over as finished tables, each row its own array. For a
    fixed order the labels do not depend on the order in which edges
    are listed. Without ``order``, each vertex's key ``(out + 1) * (in
    + 1) * multiplier`` is stored as its rank
    (:meth:`~repro.core.cover.TwoHopCover.ranks`), the order later
    maintenance keeps.

    Args:
        nodes: every vertex (isolated ones included; duplicates are
            ignored).
        edges: the directed edges as ``(u, v)`` pairs, duplicates
            ignored, or as a mapping ``u -> successors`` whose rows are
            duplicate-free; self-loops are ignored either way.
        distance: build a :class:`DistanceTwoHopCover` instead.
        multiplier: a rank factor per vertex, above 1 where listed.
        order: the vertex order, when a caller labels a subgraph in its
            host graph's order (the Theorem-3 region re-label).

    Returns:
        The cover, table for table what ``from_entries`` builds from its
        entries (self entries are never stored).
    """
    labels = sorted(set(nodes))
    if labels and labels[0] < 0:
        raise ValueError(f"cover nodes are non-negative, not {labels[0]}")
    n = len(labels)
    index = {v: i for i, v in enumerate(labels)}
    succ: List[Sequence[int]] = [()] * n
    pred: List[Sequence[int]] = [()] * n
    if isinstance(edges, Mapping):
        for u, targets in edges.items():
            ui = index[u]
            row = [index[v] for v in targets if v != u]
            if row:
                succ[ui] = row
                for vi in row:
                    _append(pred, vi, ui)
    else:
        for u, v in dict.fromkeys(edges):
            if u != v:
                ui, vi = index[u], index[v]
                _append(succ, ui, vi)
                _append(pred, vi, ui)
    if order is None:
        key = [(s + 1) * (p + 1) for s, p in zip(map(len, succ), map(len, pred))]
        for v, factor in (multiplier or {}).items():
            key[index[v]] *= factor
        # a reversed sort is stable too: ties go by position, so by id
        ranked = sorted(range(n), key=key.__getitem__, reverse=True)
        rank = rank_array(key)
    else:
        ranked = [index[v] for v in order]
        rank = array(RANK_TYPECODE)  # the caller's order has no keys to store
    tables = _empty_tables(n, distance)
    _search(ranked, succ, pred, tables, distance)
    factory = DistanceTwoHopCover if distance else TwoHopCover
    # each row goes to its vertex's id (a skip when the nodes are 0..n-1)
    return factory._from_positions(labels, range(n), rank, **tables)


@_collector_paused
def build_collection_pll_cover(
    collection: Collection, *, distance: bool = False
) -> Tuple[TwoHopCover, int]:
    """The product build: the cover
    ``build_pll_cover(nodes, element-graph edges, distance=distance,
    multiplier=reach_multiplier(collection))`` builds, byte for byte,
    ranks included, and its number of label entries.

    Element ids index every working list directly, as they index the
    cover's tables: a gap a deleted document left is a ``None`` row of
    rank 0, exactly where the edge-list build's position→id remap puts
    nothing, so no id→position map is made.

    A link-free document (no intra-link, no inter-link endpoint) is a
    component of the element graph, and a tree: one walk over its
    ``children`` reads each vertex's parent and key and writes its
    labels in closed form (:func:`_label_trees`). PLL labels are
    canonical: a pair is covered by the highest-ranked vertex on its
    path, and in a tree that path is unique, so the closed form and the
    searches write the same entries. Only the linked documents' elements
    get adjacency rows, keys from them and searches; their graph is read
    from their ``children`` and ``intra_links`` and the collection's
    ``inter_links``: no edge tuples. An intra-link parallel to a tree
    edge and a self-loop are dropped, as the edge-list form drops them.

    The tree pass hands every child a parent outranks one shared row,
    so the cover comes out with no row owned (as both sides of a
    :meth:`~repro.core.cover.TwoHopCover.cow_copy` do): whatever writes
    a slot first copies its row.
    """
    elements = collection.elements
    ids = sorted(elements)  # one near-linear pass: ids come nearly sorted
    if ids and ids[0] < 0:
        raise ValueError(f"cover nodes are non-negative, not {ids[0]}")
    n = ids[-1] + 1 if ids else 0
    ends = set()
    for u, v in collection.inter_links:
        ends.add(elements[u].doc)
        ends.add(elements[v].doc)
    free, linked = [], []
    for doc_id, doc in collection.documents.items():
        (linked if doc.intra_links or doc_id in ends else free).append(doc)
    key = [0] * n  # a gap's rank is 0
    tables = _empty_tables(n, distance)
    entries = _label_trees(free, key, tables)
    if linked:
        succ: List[Sequence[int]] = [()] * n
        pred: List[Sequence[int]] = [()] * n
        searched = []
        for doc in linked:
            searched += doc.children
            for parent, kids in doc.children.items():
                if kids:
                    succ[parent] = kids[:]
                    up = (parent,)
                    for k in kids:
                        pred[k] = up
        links = chain(chain.from_iterable(doc.intra_links for doc in linked),
                      collection.inter_links)
        for u, v in links:
            if u != v and elements[v].parent != u:
                _append(succ, u, v)
                _append(pred, v, u)
        for x in searched:
            key[x] = (len(succ[x]) + 1) * (len(pred[x]) + 1)
        for v, factor in reach_multiplier(collection).items():
            key[v] *= factor
        # ids ascending first: a reversed sort is stable too, so ties
        # go by id
        searched.sort()
        ranked = sorted(searched, key=key.__getitem__, reverse=True)
        entries += _search(ranked, succ, pred, tables, distance)
    factory = DistanceTwoHopCover if distance else TwoHopCover
    cover = factory._from_tables(elements, rank_array(key), **tables)
    cover._disown()
    return cover, entries


def _append(rows: List[Sequence[int]], i: int, x: int) -> None:
    """Append ``x`` to ``rows[i]``. A tuple row (the empty one, or a
    tree edge's parent, shared by siblings) becomes a list first: most
    vertices of a tree have no successor and one predecessor."""
    row = rows[i]
    if type(row) is list:
        row.append(x)
    else:
        rows[i] = [*row, x]


def _empty_tables(n: int, distance: bool) -> Dict[str, List[Optional[array]]]:
    """A cover's per-node tables (``_from_tables`` keywords) over ``n``
    slots, every row ``None``."""
    names = ("lin", "lout", "inv_lin", "inv_lout")
    if distance:
        names += ("lin_dist", "lout_dist")
    return {name: [None] * n for name in names}


def _search(
    ranked: Sequence[int],
    succ: List[Sequence[int]],
    pred: List[Sequence[int]],
    tables: Dict[str, List[Optional[array]]],
    distance: bool,
) -> int:
    """The pruned searches of :func:`build_pll_cover` from the vertices
    ``ranked``, in that order, over the graph ``succ`` / ``pred`` (rows
    of slots, free of duplicates and self-loops): each vertex's finished
    label and backward-index rows written into ``tables``, and their
    number of entries returned. Every vertex a search reaches is in
    ``ranked``."""
    lin, lout = tables["lin"], tables["lout"]
    # label rows as lazily created lists (of center ids, or for distance
    # of (center id, distance) pairs), each turned into an array at the
    # end
    entries = 0
    seen = [-1] * len(succ)
    stamp = 0
    directions = (
        (succ, lout, lin, tables["inv_lin"]),   # forward: into Lin
        (pred, lin, lout, tables["inv_lout"]),  # backward: into Lout
    )
    for w in ranked:
        for adjacency, own, far, inv in directions:
            first = adjacency[w]
            if not first:
                continue
            label = own[w]
            # a BFS whose every first step the prune below skips labels
            # nothing: test the first steps before launching it
            if not label:
                hops = None
            elif distance:
                # a row holds a center once, at a distance of at least 1
                for x in first:
                    if (x, 1) in label:
                        continue
                    row = far[x]
                    if row is None or not _shares_center_within(dict(label), row, 1):
                        break
                else:
                    continue
                # the centers w's label reaches, and how far
                hops = dict(label)
            else:
                for x in first:
                    if x in label:
                        continue
                    row = far[x]
                    if row is None or set(label).isdisjoint(row):
                        break
                else:
                    continue
                hops = set(label)
            stamp += 1
            seen[w] = stamp
            frontier = [w]
            visited: List[int] = []
            depth = 0
            if hops is None:
                # nothing labelled connects w yet: every vertex reached
                # is labelled
                while frontier:
                    depth += 1
                    entry = (w, depth) if distance else w
                    reached = []
                    for v in frontier:
                        for x in adjacency[v]:
                            if seen[x] != stamp:
                                seen[x] = stamp
                                reached.append(x)
                    for x in reached:
                        row = far[x]
                        if row is None:
                            far[x] = [entry]
                        else:
                            row.append(entry)
                    visited += reached
                    frontier = reached
            elif distance:
                while frontier:
                    depth += 1
                    entry = (w, depth)
                    reached = []
                    for v in frontier:
                        for x in adjacency[v]:
                            if seen[x] == stamp:
                                continue
                            seen[x] = stamp
                            d = hops.get(x)
                            if d is not None and d <= depth:
                                continue
                            row = far[x]
                            if row is None:
                                far[x] = [entry]
                            elif _shares_center_within(hops, row, depth):
                                continue
                            else:
                                row.append(entry)
                            reached.append(x)
                    visited += reached
                    frontier = reached
            else:
                while frontier:
                    reached = []
                    for v in frontier:
                        for x in adjacency[v]:
                            if seen[x] == stamp:
                                continue
                            seen[x] = stamp
                            if x in hops:
                                continue
                            row = far[x]
                            if row is None:
                                far[x] = [w]
                            elif hops.isdisjoint(row):
                                row.append(w)
                            else:
                                continue
                            reached.append(x)
                    visited += reached
                    frontier = reached
            # not empty: the first step that let the BFS launch is labelled
            entries += len(visited)
            visited.sort()
            inv[w] = array(ID_TYPECODE, visited)
    for name, table in (("lin", lin), ("lout", lout)):
        if distance:
            dists = tables[name + "_dist"]
        for x in ranked:
            row = table[x]
            if row:
                row.sort()
                if distance:
                    table[x] = array(ID_TYPECODE, [c for c, _ in row])
                    dists[x] = array(ID_TYPECODE, [d for _, d in row])
                else:
                    table[x] = array(ID_TYPECODE, row)
    return entries


def _label_trees(
    docs: Iterable[Document], key: List[int], tables: Dict[str, List[Optional[array]]]
) -> int:
    """Write the PLL labels of the link-free documents ``docs``, trees
    whose elements are slots of ``key`` and ``tables``, into ``tables``
    as finished arrays and each vertex's key into ``key``; return their
    number of entries.

    One walk over each document's ``children``, which lists the
    elements in the order the collection created them, so parents
    first and ids ascending, gives each vertex its parent and its key
    ``(children + 1) * (2 if parent else 1)``. A parent's id is below
    its children's, so an ancestor ``a`` of ``x`` outranks it iff
    ``key[a] >= key[x]`` (ties go to the lower id). ``Lin(x)`` is then
    the chain of ancestors that outrank every vertex below them on the
    way to ``x``: ``Lin(p) + [p]`` when the parent ``p`` outranks ``x``,
    else the prefix of ``Lin(p)`` that outranks ``x``. And ``x`` joins
    ``Lout(u)`` of every ancestor ``u`` below the nearest one that
    outranks it. Every row comes out sorted. All the children a parent
    outranks hold its one ``Lin(p) + [p]`` array (and in a distance
    cover one distance row: siblings share a depth), so the cover that
    takes these tables must own none of its rows; every other row is
    its own array. A distance is a depth difference."""
    lin, lout = tables["lin"], tables["lout"]
    inv_lin, inv_lout = tables["inv_lin"], tables["inv_lout"]
    up = [-1] * len(key)  # each tree vertex's parent
    # Lin(p) + [p], made for p's first child that p outranks and held by
    # the others; p is a center from then on
    grown: List[Optional[array]] = [None] * len(key)
    centers = []
    sources = []  # the vertices with a Lout row
    for doc in docs:
        for x, kids in doc.children.items():
            for k in kids:
                up[k] = x
            p = up[x]
            if p < 0:  # the root
                key[x] = len(kids) + 1
                continue
            kx = key[x] = 2 * len(kids) + 2
            if key[p] >= kx:
                row = grown[p]
                if row is None:
                    head = lin[p]
                    tail = array(ID_TYPECODE, (p,))
                    row = grown[p] = head + tail if head else tail
                    inv_lin[p] = []
                    centers.append(p)
                lin[x] = row
            else:
                head = lin[p]
                j = len(head) if head else 0
                while j and key[head[j - 1]] < kx:
                    j -= 1
                if j:
                    row = lin[x] = head[:j]
                    stop = row[-1]
                else:
                    row = ()
                    stop = -1
                walked = []
                u = p
                while u != stop:
                    walked.append(u)
                    if lout[u] is None:
                        lout[u] = [x]
                        sources.append(u)
                    else:
                        lout[u].append(x)
                    u = up[u]
                walked.reverse()
                inv_lout[x] = array(ID_TYPECODE, walked)
            for c in row:
                inv_lin[c].append(x)
    entries = 0
    for c in centers:
        entries += len(inv_lin[c])
        inv_lin[c] = array(ID_TYPECODE, inv_lin[c])
    for u in sources:
        entries += len(lout[u])
        lout[u] = array(ID_TYPECODE, lout[u])
    if "lin_dist" in tables:
        depth = [0] * len(key)
        for x, p in enumerate(up):  # ids ascending: parents first
            if p >= 0:
                depth[x] = depth[p] + 1
        shared = {}
        for p in centers:
            d = depth[p] + 1
            shared[p] = array(ID_TYPECODE, [d - depth[c] for c in grown[p]])
        lin_dist, lout_dist = tables["lin_dist"], tables["lout_dist"]
        for x, p in enumerate(up):
            row = lin[x]
            if row:
                lin_dist[x] = shared[p] if row is grown[p] else array(
                    ID_TYPECODE, [depth[x] - depth[c] for c in row]
                )
        for u in sources:
            d = depth[u]
            lout_dist[u] = array(ID_TYPECODE, [depth[x] - d for x in lout[u]])
    return entries


def _shares_center_within(
    hops: Dict[int, int], row: List[Tuple[int, int]], depth: int
) -> bool:
    """Whether a center of ``row`` (``(center, distance)`` pairs) is in
    the BFS root's label ``hops`` at a total distance of at most
    ``depth``."""
    for c, dc in row:
        d = hops.get(c)
        if d is not None and d + dc <= depth:
            return True
    return False


def reach_multiplier(
    collection: Collection, within: Optional[Set[Node]] = None
) -> Dict[Node, int]:
    """The product's PLL rank factor ``(A + 1) * (D + 1)`` of every
    element where it is above 1 — the elements whose reach crosses
    documents.

    * ``D(x)``, non-zero only on ancestors-or-self of an inter-document
      link source, counts the elements of *other* documents reachable
      through the links that leave ``x``'s subtree;
    * ``A(t)``, non-zero only on link targets, counts the link-source
      ancestors-or-self, in other documents, that reach ``t``.

    Reach is taken on the document graph, exactly per component of its
    condensation: a document reached by a link reaches all its
    elements, and a component is counted once however many links reach
    it. Each component owns a run of bits as long as its weight (its
    elements for ``D``, its link-source ancestors-or-self for ``A``), so
    the weight of a union of reach sets is one ``bit_count()``. A
    link-free collection gets an empty map, so :func:`build_pll_cover`
    keeps its degree order there.

    Args:
        within: only the elements of this set, which is closed under
            reachability (a Theorem-3 region). Each gets the factor the
            whole collection gives it; the document graph, ~20x smaller
            than the element graph, is still taken whole.
    """
    elements = collection.elements
    if within is None:
        within = elements.keys()
    down: Dict[Hashable, Set[Hashable]] = {}
    links = []  # those into ``within``, which holds every link out of it
    # the ancestors-or-self of link sources, and how many per document
    marked: Set[Node] = set()
    weight: Dict[Hashable, int] = {}
    for u, v in collection.inter_links:
        du, dv = elements[u].doc, elements[v].doc
        if v in within:
            links.append((u, du, v, dv))
        if du in down:
            down[du].add(dv)
        else:
            down[du] = {dv}
        x = u
        while x is not None and x not in marked:
            marked.add(x)
            weight[du] = weight.get(du, 0) + 1
            x = elements[x].parent
    if not links:
        return {}
    sizes = {doc: len(d.elements) for doc, d in collection.documents.items()}
    comps = tarjan_components(down, lambda doc: down.get(doc, ()))
    comp_of = {doc: cid for cid, members in enumerate(comps) for doc in members}
    # D: what each component reaches, sinks first
    reach = []
    offset = 0
    for cid, members in enumerate(comps):
        size = 0
        for d in members:
            size += sizes[d]
        mask = ((1 << size) - 1) << offset
        offset += size
        for d in members:
            for e in down.get(d, ()):
                if comp_of[e] != cid:
                    mask |= reach[comp_of[e]]
        reach.append(mask)
    # A: what reaches each component, sources first
    reached = [0] * len(comps)
    offset = 0
    for cid in range(len(comps) - 1, -1, -1):
        size = 0
        for d in comps[cid]:
            size += weight.get(d, 0)
        mask = reached[cid] = reached[cid] | ((1 << size) - 1) << offset
        offset += size
        for d in comps[cid]:
            for e in down.get(d, ()):
                if comp_of[e] != cid:
                    reached[comp_of[e]] |= mask
    out: Dict[Node, int] = {}
    into: Dict[Node, int] = {}
    # the elements whose union holds their own document, through a
    # cycle of the document graph
    out_cyclic: Set[Node] = set()
    into_cyclic: Set[Node] = set()
    for u, du, v, dv in links:
        c = comp_of[dv]
        cycle = comp_of[du] == c
        mask = reach[c]
        x = u
        # the links out of x's subtree, accumulated up its ancestors
        while x is not None and x in within:
            old = out.get(x, 0)
            union = old | mask
            if union == old and (not cycle or x in out_cyclic):
                break  # and so does every ancestor's
            out[x] = union
            if cycle:
                out_cyclic.add(x)
            x = elements[x].parent
        into[v] = into.get(v, 0) | reached[comp_of[du]]
        if cycle:
            into_cyclic.add(v)
    factor: Dict[Node, int] = {}
    for x, mask in out.items():
        d = mask.bit_count() - (sizes[elements[x].doc] if x in out_cyclic else 0)
        if d:
            factor[x] = d + 1
    for t, mask in into.items():
        a = mask.bit_count() - (weight[elements[t].doc] if t in into_cyclic else 0)
        if a:
            factor[t] = factor.get(t, 1) * (a + 1)
    return factor

