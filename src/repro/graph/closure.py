"""Transitive-closure engines.

The transitive closure is both the *input* of the 2-hop cover computation
(Section 3.2 takes ``C(G) = (V, T(G))``) and the *baseline* HOPI is
compared against (Table 2's compression ratios divide the number of
closure connections by the number of cover entries).

Three engines are provided:

* :func:`transitive_closure` — reachability sets via SCC condensation and
  set-union in reverse-topological order, optionally aborting when a
  connection budget is exceeded (this powers the closure-size-aware
  partitioner of Section 4.3).
* :func:`condensation_closure` — the same union pass over a graph that
  is already condensed, for callers that hold the
  :class:`~repro.graph.condensation.Condensation` (the cover builder).
* :func:`distance_closure` — per-source BFS producing shortest hop
  distances, the input of the distance-aware cover of Section 5.

All use the paper's *strict, reflexive-implicit* convention: the pair
``(u, u)`` is never stored. Reflexive reachability is always true by
definition, and the cover likewise keeps self-labels implicit. A node on
a cycle does reach distinct members of its component, and those pairs
*are* stored.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterator, Optional, Set, Tuple

from repro.graph.condensation import Condensation
from repro.graph.digraph import DiGraph, Node


class ClosureBudgetExceeded(Exception):
    """Raised when a closure computation exceeds ``max_connections``.

    Carries the number of connections counted so far in ``count`` (a
    lower bound on the true closure size).
    """

    def __init__(self, count: int) -> None:
        super().__init__(f"transitive closure exceeds budget (>= {count} connections)")
        self.count = count


class TransitiveClosure:
    """Materialised strict transitive closure ``T(G)``.

    ``reach[u]`` is the set of nodes ``v != u`` with a path ``u ->* v``.
    The ancestor view is derived lazily on first use.
    """

    def __init__(self, reach: Dict[Node, Set[Node]]) -> None:
        self.reach = reach
        self._coreach: Optional[Dict[Node, Set[Node]]] = None

    # -- queries --------------------------------------------------------
    def contains(self, u: Node, v: Node) -> bool:
        """True iff ``u ->* v`` (reflexively: always true for ``u == v``)."""
        if u == v:
            return u in self.reach
        targets = self.reach.get(u)
        return targets is not None and v in targets

    def descendants_of(self, u: Node) -> Set[Node]:
        """Strict descendants of ``u`` (no self unless on a cycle — never stored)."""
        return self.reach[u]

    def ancestors_of(self, v: Node) -> Set[Node]:
        """Strict ancestors of ``v``; the reverse map is built on first call."""
        if self._coreach is None:
            coreach: Dict[Node, Set[Node]] = {u: set() for u in self.reach}
            for u, targets in self.reach.items():
                for v2 in targets:
                    coreach[v2].add(u)
            self._coreach = coreach
        return self._coreach[v]

    def connections(self) -> Iterator[Tuple[Node, Node]]:
        for u, targets in self.reach.items():
            for v in targets:
                yield (u, v)

    @property
    def num_connections(self) -> int:
        return sum(len(t) for t in self.reach.values())

    @property
    def num_nodes(self) -> int:
        return len(self.reach)


def transitive_closure(
    graph: DiGraph,
    *,
    max_connections: Optional[int] = None,
) -> TransitiveClosure:
    """Compute the strict transitive closure of an arbitrary digraph.

    The graph is condensed into its SCC DAG; component reachability sets
    are accumulated by set union in reverse topological order (Tarjan
    emits components sinks-first, so a single forward pass suffices);
    node-level sets are then expanded from the component-level sets.

    Args:
        graph: input graph (cycles allowed).
        max_connections: optional budget; when the *node-level* connection
            count provably exceeds it, :class:`ClosureBudgetExceeded` is
            raised. Used by the Section-4.3 partitioner to grow partitions
            "until the transitive closure is as large as the available
            memory".

    Raises:
        ClosureBudgetExceeded: see ``max_connections``.
    """
    cond = Condensation(graph)
    k = len(cond)
    # comp_reach[c] = set of component ids reachable from c (strict).
    comp_reach: list[Set[int]] = [set() for _ in range(k)]
    sizes = [len(m) for m in cond.members]

    running = 0
    for cid in range(k):  # sinks first: components list is reverse topological
        acc: Set[int] = set()
        for succ in cond.dag.successors(cid):
            acc.add(succ)
            acc.update(comp_reach[succ])
        comp_reach[cid] = acc
        # node-level connections contributed by this component:
        #   |members| * (|members| - 1) intra-component pairs
        #   + |members| * sum of member counts of reachable components
        reach_nodes = sum(sizes[c] for c in acc)
        running += sizes[cid] * (sizes[cid] - 1) + sizes[cid] * reach_nodes
        if max_connections is not None and running > max_connections:
            raise ClosureBudgetExceeded(running)

    reach: Dict[Node, Set[Node]] = {}
    for cid, members in enumerate(cond.members):
        base: Set[Node] = set()
        for c in comp_reach[cid]:
            base.update(cond.members[c])
        if len(members) > 1:
            member_set = set(members)
            for v in members:
                targets = base | member_set
                targets.discard(v)
                reach[v] = targets
        else:
            reach[members[0]] = base
    return TransitiveClosure(reach)


def _reinserted(items: Set[int]) -> Set[int]:
    """A copy of ``items`` filled one element at a time, in iteration
    order.

    Equal to ``items`` as a set, but not always in iteration order:
    where two ids share a hash slot, the order follows insertion
    history. The cover builder breaks ties by the iteration order of
    closure rows, so :func:`condensation_closure` fills its sets the
    way ``transitive_closure(cond.dag)`` does: successor sets and rows
    pass through one such copy each.
    """
    return {item for item in items}


def condensation_closure(cond: Condensation) -> TransitiveClosure:
    """The strict transitive closure of ``cond.dag``, over component ids.

    Component ids are already a reverse topological order, so the
    reachability sets are unioned in one pass, sinks first, with no
    second SCC computation. Key order and the iteration order of every
    row equal those of ``transitive_closure(cond.dag)``.
    """
    comp_reach: list[Set[int]] = []
    reach: Dict[Node, Set[Node]] = {}
    for cid in range(len(cond)):
        acc: Set[int] = set()
        for succ in _reinserted(cond.dag.successors(cid)):
            acc.add(succ)
            acc.update(comp_reach[succ])
        comp_reach.append(acc)
        reach[cid] = _reinserted(acc)
    return TransitiveClosure(reach)


def transitive_closure_size(
    graph: DiGraph, *, max_connections: Optional[int] = None
) -> int:
    """Number of strict connections in ``T(G)`` without keeping node sets.

    Same budget semantics as :func:`transitive_closure` but only counts,
    which is what the partition grower needs.
    """
    cond = Condensation(graph)
    k = len(cond)
    comp_reach: list[Set[int]] = [set() for _ in range(k)]
    sizes = [len(m) for m in cond.members]
    running = 0
    for cid in range(k):
        acc: Set[int] = set()
        for succ in cond.dag.successors(cid):
            acc.add(succ)
            acc.update(comp_reach[succ])
        comp_reach[cid] = acc
        reach_nodes = sum(sizes[c] for c in acc)
        running += sizes[cid] * (sizes[cid] - 1) + sizes[cid] * reach_nodes
        if max_connections is not None and running > max_connections:
            raise ClosureBudgetExceeded(running)
    return running


class DistanceClosure:
    """Materialised shortest-path (hop count) closure.

    ``dist[u]`` maps each strict descendant ``v`` of ``u`` to the length
    of the shortest path ``u ->* v``; ``d(u, u) = 0`` is implicit.
    """

    def __init__(self, dist: Dict[Node, Dict[Node, int]]) -> None:
        self.dist = dist
        self._codist: Optional[Dict[Node, Dict[Node, int]]] = None

    def distance(self, u: Node, v: Node) -> Optional[int]:
        """Shortest distance ``u -> v`` or ``None`` when unreachable."""
        if u == v:
            return 0 if u in self.dist else None
        return self.dist.get(u, {}).get(v)

    def contains(self, u: Node, v: Node) -> bool:
        return self.distance(u, v) is not None

    def descendants_of(self, u: Node) -> Dict[Node, int]:
        return self.dist[u]

    def ancestors_of(self, v: Node) -> Dict[Node, int]:
        if self._codist is None:
            codist: Dict[Node, Dict[Node, int]] = {u: {} for u in self.dist}
            for u, targets in self.dist.items():
                for w, d in targets.items():
                    codist[w][u] = d
            self._codist = codist
        return self._codist[v]

    def connections(self) -> Iterator[Tuple[Node, Node, int]]:
        for u, targets in self.dist.items():
            for v, d in targets.items():
                yield (u, v, d)

    @property
    def num_connections(self) -> int:
        return sum(len(t) for t in self.dist.values())


def distance_closure(graph: DiGraph) -> DistanceClosure:
    """All-pairs shortest hop distances via one BFS per node.

    Quadratic in the worst case — exactly why the paper partitions the
    graph before running the cover computation.
    """
    dist: Dict[Node, Dict[Node, int]] = {}
    for source in graph:
        d: Dict[Node, int] = {}
        queue: deque[Node] = deque([source])
        level = {source: 0}
        while queue:
            v = queue.popleft()
            for w in graph.successors(v):
                if w not in level:
                    level[w] = level[v] + 1
                    d[w] = level[w]
                    queue.append(w)
        d.pop(source, None)
        dist[source] = d
    return DistanceClosure(dist)
