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
and expands the component labels back to the original nodes.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, Hashable, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.core.center_graph import densest_subgraph, initial_density_upper_bound
from repro.core.cover import TwoHopCover
from repro.graph.closure import TransitiveClosure, condensation_closure
from repro.graph.condensation import Condensation
from repro.graph.digraph import DiGraph

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


def build_cover_for_closure(
    closure: TransitiveClosure,
    *,
    preselected_centers: Iterable[Node] = (),
    cover_factory: CoverFactory = TwoHopCover,
) -> TwoHopCover:
    """Compute a 2-hop cover for a materialised DAG closure
    (:func:`greedy_center_assignments` written into a fresh cover over
    the closure's nodes).

    Args:
        closure: the (strict) transitive closure of a DAG.
        preselected_centers: nodes to use as centers first (Section 4.2).
        cover_factory: constructor for the result cover.
    """
    cover = cover_factory(closure.reach.keys())
    for w, in_side, out_side in greedy_center_assignments(
        closure, preselected_centers=preselected_centers
    ):
        for u in in_side:
            cover.add_lout(u, w)
        for v in out_side:
            cover.add_lin(v, w)
    return cover


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
    closure: Optional[TransitiveClosure] = None,
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
        closure: optional precomputed closure *of the original graph*
            (used to skip recomputation when the caller already has it —
            only its node-level reach sets are consulted for DAG inputs).
        preselected_centers: original-graph nodes to force as centers
            first (Section 4.2); mapped onto components internally.
        cover_factory: constructor for the result cover.
    """
    cond = Condensation(graph)
    if cond.is_dag_input and closure is not None:
        # Fast path: ids coincide with components 1:1.
        return build_cover_for_closure(
            closure,
            preselected_centers=preselected_centers,
            cover_factory=cover_factory,
        )
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


def build_partition_cover(
    nodes: Sequence[Node],
    edges: Sequence[Tuple[Node, Node]],
    *,
    preselected_centers: Iterable[Node] = (),
    distance: bool = False,
) -> TwoHopCover:
    """Build the 2-hop cover of one partition from its raw graph data.

    The unit of work of the divide-and-conquer build: the partition's
    element graph arrives as plain node and edge lists (compact and
    picklable, so :mod:`repro.core.pipeline` can ship the same task to
    a ``multiprocessing`` worker or run it inline), the graph is
    reassembled, and the usual builder runs on it.

    Args:
        nodes: every element of the partition (isolated ones included).
        edges: the element-level edges with both endpoints inside.
        preselected_centers: cross-partition link targets to force as
            centers first (Section 4.2).
        distance: build a distance-aware cover (Section 5).

    Returns:
        The partition's cover in the requested flavour.
    """
    graph = DiGraph()
    for v in nodes:
        graph.add_node(v)
    graph.add_edges(edges)
    preselected = sorted(preselected_centers)
    if distance:
        from repro.core.distance import build_distance_cover

        return build_distance_cover(graph, preselected_centers=preselected)
    return build_cover(graph, preselected_centers=preselected)
