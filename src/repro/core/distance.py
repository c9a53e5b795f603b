"""Distance-aware 2-hop cover construction (Section 5 of the paper).

The construction mirrors the reachability builder with two changes:

* a center ``w`` may only cover the connection ``(u, v)`` if it lies **on
  a shortest path** from ``u`` to ``v``, i.e.
  ``d(u, w) + d(w, v) = d(u, v)`` — otherwise its label entries would
  report a wrong distance;
* because of that constraint, initial center graphs are **no longer
  complete bipartite**, so the cheap closed-form initial priority is a
  gross over-estimate. The paper replaces it with ``sqrt(E)/2`` where
  ``E`` is the number of center-graph edges, estimated by **sampling at
  most 13,600 candidate edges** and taking the upper bound of a 98%
  confidence interval on the edge fraction ("the initially estimated
  maximal density never exceeded the real maximal density" in their
  experiments; the same property is asserted by our test suite).

Distance covers operate on the original graph (no SCC condensation):
Cohen's distance formulation is valid on arbitrary digraphs, and XML
element graphs are nearly acyclic anyway.
"""

from __future__ import annotations

import heapq
import math
import random
from typing import Callable, Dict, Hashable, Iterable, List, Optional, Set, Tuple

from repro.core.center_graph import densest_subgraph
from repro.core.cover import DistanceTwoHopCover
from repro.graph.closure import DistanceClosure, distance_closure
from repro.graph.digraph import DiGraph

Node = Hashable

#: Sample budget for the initial-density estimation (Section 5.2: "a
#: sampling algorithm that checks at most 13,600 randomly chosen
#: candidate edges").
DENSITY_SAMPLE_BUDGET = 13_600

#: z-value of the 98% two-sided confidence interval; with 13,600 samples
#: the interval length is at most 2 * z * sqrt(.25/n) ≈ 0.02, matching
#: the paper's "at most length 0.02".
_Z_98 = 2.3263478740408408


def estimate_center_graph_edges(
    w: Node,
    dclosure: DistanceClosure,
    ancestors: Dict[Node, int],
    descendants: Dict[Node, int],
    rng: random.Random,
    *,
    sample_budget: int = DENSITY_SAMPLE_BUDGET,
) -> float:
    """Estimate the number of edges of ``w``'s initial center graph.

    A candidate pair ``(u, v)`` (``u`` ancestor, ``v`` descendant of
    ``w``) is an edge iff ``d(u, w) + d(w, v) == d(u, v)``. With ``a*d``
    candidates, testing all is infeasible; up to ``sample_budget`` pairs
    are sampled uniformly with replacement, the edge fraction ``e'`` is
    measured and the upper bound of its 98% confidence interval is
    scaled back to ``a * d``.

    Returns:
        The estimated edge count ``E`` (a float; callers only take
        ``sqrt(E)/2``).
    """
    # w itself belongs to both sides of its center graph (Cin/Cout are
    # reflexive), so pairs (w, v) and (u, w) are candidate edges too —
    # and are always shortest-path-consistent.
    anc = list(ancestors)
    desc = list(descendants)
    a, d = len(anc), len(desc)
    total = a * d
    if total <= 1:  # only the skipped diagonal pair (w, w)
        return 0.0
    if total <= sample_budget:
        # small center graphs are counted exactly
        edges = 0
        for u in anc:
            du_w = ancestors[u]
            row = dclosure.dist.get(u, {})
            for v in desc:
                if v == u:
                    continue
                duv = row.get(v)
                if duv is not None and du_w + descendants[v] == duv:
                    edges += 1
        return float(edges)
    hits = 0
    for _ in range(sample_budget):
        u = anc[rng.randrange(a)]
        v = desc[rng.randrange(d)]
        if u == v:
            continue
        duv = dclosure.dist.get(u, {}).get(v)
        if duv is not None and ancestors[u] + descendants[v] == duv:
            hits += 1
    fraction = hits / sample_budget
    half_width = _Z_98 * math.sqrt(max(fraction * (1.0 - fraction), 1e-12) / sample_budget)
    upper = min(1.0, fraction + half_width)
    return upper * total


def initial_distance_priority(estimated_edges: float) -> float:
    """The paper's density upper bound ``sqrt(E)/2``.

    "The maximal density is achieved when the number of nodes on both
    sides is balanced and the graph is as complete as possible":
    ``E / (2 * sqrt(E)) = sqrt(E)/2``.
    """
    return math.sqrt(estimated_edges) / 2.0 if estimated_edges > 0 else 0.0


class _UncoveredDistanceSet:
    """Uncovered distance connections ``T'`` with forward/reverse views."""

    def __init__(self, dclosure: DistanceClosure) -> None:
        self.fwd: Dict[Node, Dict[Node, int]] = {
            u: dict(vs) for u, vs in dclosure.dist.items() if vs
        }
        self.rev: Dict[Node, Set[Node]] = {}
        for u, vs in self.fwd.items():
            for v in vs:
                self.rev.setdefault(v, set()).add(u)
        self.count = sum(len(vs) for vs in self.fwd.values())

    def remove(self, u: Node, v: Node) -> None:
        row = self.fwd.get(u)
        if row and v in row:
            del row[v]
            self.rev[v].discard(u)
            self.count -= 1

    def __bool__(self) -> bool:
        return self.count > 0


def _distance_center_graph(
    uncovered: _UncoveredDistanceSet,
    dclosure: DistanceClosure,
    w: Node,
    din: Dict[Node, int],
    dout: Dict[Node, int],
) -> Dict[Node, Set[Node]]:
    """Edges (u, v) of CG_w: uncovered and w on a shortest u-v path."""
    adj: Dict[Node, Set[Node]] = {}
    for u, du_w in din.items():
        row = uncovered.fwd.get(u)
        if not row:
            continue
        hits = set()
        if len(row) <= len(dout):
            for v, duv in row.items():
                dw_v = dout.get(v)
                if dw_v is not None and du_w + dw_v == duv:
                    hits.add(v)
        else:
            for v, dw_v in dout.items():
                duv = row.get(v)
                if duv is not None and du_w + dw_v == duv:
                    hits.add(v)
        if hits:
            adj[u] = hits
    return adj


def build_distance_cover(
    graph: DiGraph,
    *,
    dclosure: Optional[DistanceClosure] = None,
    preselected_centers: Iterable[Node] = (),
    seed: int = 20_05,
    sample_budget: int = DENSITY_SAMPLE_BUDGET,
    cover_factory: Callable[[Iterable[Node]], DistanceTwoHopCover] = DistanceTwoHopCover,
) -> DistanceTwoHopCover:
    """Build a distance-aware 2-hop cover of an arbitrary digraph.

    Args:
        graph: input graph.
        dclosure: optional precomputed :class:`DistanceClosure`.
        preselected_centers: centers to use first (Section 4.2 carries
            over; they may only cover shortest-path-consistent pairs).
        seed: RNG seed for edge sampling (deterministic by default).
        sample_budget: see :func:`estimate_center_graph_edges`.
        cover_factory: distance-cover constructor.

    Returns:
        A distance cover whose ``distance`` matches BFS shortest
        distances exactly.
    """
    if dclosure is None:
        dclosure = distance_closure(graph)
    rng = random.Random(seed)
    cover = cover_factory(dclosure.dist.keys())
    uncovered = _UncoveredDistanceSet(dclosure)

    def label_and_remove(w, din, dout, in_side, out_side, adj):
        for u in in_side:
            cover.add_lout(u, w, din[u])
        for v in out_side:
            cover.add_lin(v, w, dout[v])
        for u in in_side:
            for v in adj.get(u, ()):
                if v in out_side:
                    uncovered.remove(u, v)

    # ---- preselected centers (Section 4.2) -----------------------------
    for w in preselected_centers:
        if w not in dclosure.dist or not uncovered:
            continue
        din = dict(dclosure.ancestors_of(w))
        din[w] = 0
        dout = dict(dclosure.descendants_of(w))
        dout[w] = 0
        adj = _distance_center_graph(uncovered, dclosure, w, din, dout)
        if not adj:
            continue
        in_side = set(adj)
        out_side = {v for vs in adj.values() for v in vs}
        label_and_remove(w, din, dout, in_side, out_side, adj)

    # ---- greedy loop with sampled initial priorities --------------------
    heap: List[Tuple[float, int, Node]] = []
    anc_cache: Dict[Node, Dict[Node, int]] = {}
    out_cache: Dict[Node, Dict[Node, int]] = {}
    for i, w in enumerate(dclosure.dist):
        din = dict(dclosure.ancestors_of(w))
        din[w] = 0
        dout = dict(dclosure.descendants_of(w))
        dout[w] = 0
        anc_cache[w] = din
        out_cache[w] = dout
        estimate = estimate_center_graph_edges(
            w, dclosure, din, dout, rng, sample_budget=sample_budget
        )
        priority = initial_distance_priority(estimate)
        # Guard: sqrt(E)/2 is the balanced-case optimum; an adversarially
        # unbalanced graph can exceed it only when E < 4, where the exact
        # density is at most E/2. Use the max of both bounds.
        priority = max(priority, min(estimate, 2.0))
        if priority > 0:
            heap.append((-priority, i, w))
    heapq.heapify(heap)
    tiebreak = len(heap)

    while uncovered:
        if not heap:  # pragma: no cover - defensive
            raise RuntimeError("priority queue exhausted with uncovered connections")
        neg_priority, _, w = heapq.heappop(heap)
        cached = -neg_priority
        din = anc_cache[w]
        dout = out_cache[w]
        adj = _distance_center_graph(uncovered, dclosure, w, din, dout)
        density, in_side, out_side = densest_subgraph(adj)
        if density <= 0.0:
            continue
        if heap and density < cached and -heap[0][0] > density:
            tiebreak += 1
            heapq.heappush(heap, (-density, tiebreak, w))
            continue
        label_and_remove(w, din, dout, in_side, out_side, adj)
        tiebreak += 1
        heapq.heappush(heap, (-density, tiebreak, w))
    return cover
