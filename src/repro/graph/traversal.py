"""Traversals and reachability primitives on :class:`~repro.graph.digraph.DiGraph`.

These are the building blocks of everything HOPI does: ancestor and
descendant sets (Section 3.2's ``Cin``/``Cout``), BFS distances for the
distance-aware cover (Section 5), and the bounded BFS used by the skeleton-
graph weight estimation (Section 4.3).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, Iterable, List, Optional, Set

from repro.graph.digraph import DiGraph, Node


def bfs_order(graph: DiGraph, source: Node) -> List[Node]:
    """Nodes reachable from ``source`` in breadth-first order (incl. source)."""
    seen: Set[Node] = {source}
    order: List[Node] = [source]
    queue: deque[Node] = deque([source])
    while queue:
        v = queue.popleft()
        for w in graph.successors(v):
            if w not in seen:
                seen.add(w)
                order.append(w)
                queue.append(w)
    return order


def bfs_distances(
    graph: DiGraph,
    source: Node,
    *,
    reverse: bool = False,
    max_depth: Optional[int] = None,
) -> Dict[Node, int]:
    """Shortest hop-count distances from ``source`` to reachable nodes.

    Args:
        graph: the graph to traverse.
        source: start node.
        reverse: traverse predecessor edges instead (distances *to* source).
        max_depth: stop expanding beyond this distance (used by the
            bounded skeleton-graph traversal of Section 4.3).

    Returns:
        Mapping node -> distance, including ``source`` at distance 0.
    """
    neighbours: Callable[[Node], Set[Node]]
    neighbours = graph.predecessors if reverse else graph.successors
    dist: Dict[Node, int] = {source: 0}
    queue: deque[Node] = deque([source])
    while queue:
        v = queue.popleft()
        d = dist[v]
        if max_depth is not None and d >= max_depth:
            continue
        for w in neighbours(v):
            if w not in dist:
                dist[w] = d + 1
                queue.append(w)
    return dist


def descendants(graph: DiGraph, source: Node, *, strict: bool = False) -> Set[Node]:
    """All nodes reachable from ``source``.

    With ``strict=True`` the source itself is excluded unless it lies on a
    cycle through itself (matching the reflexive-closure convention the
    paper uses: every node is an ancestor/descendant of itself).
    """
    reached = set(bfs_order(graph, source))
    if strict:
        reached.discard(source)
    return reached


def ancestors(graph: DiGraph, source: Node, *, strict: bool = False) -> Set[Node]:
    """All nodes that can reach ``source`` (via reverse BFS)."""
    seen: Set[Node] = {source}
    queue: deque[Node] = deque([source])
    while queue:
        v = queue.popleft()
        for w in graph.predecessors(v):
            if w not in seen:
                seen.add(w)
                queue.append(w)
    if strict:
        seen.discard(source)
    return seen


def is_reachable(graph: DiGraph, u: Node, v: Node) -> bool:
    """True iff there is a (possibly empty) path from ``u`` to ``v``.

    This is the naive online oracle the HOPI index replaces; it is used
    by tests and by the query-performance baseline benchmark (E16).
    """
    if u == v:
        return True
    seen: Set[Node] = {u}
    queue: deque[Node] = deque([u])
    while queue:
        x = queue.popleft()
        for w in graph.successors(x):
            if w == v:
                return True
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return False


def multi_source_reaches(
    graph: DiGraph,
    sources: Iterable[Node],
    targets: Set[Node],
    *,
    forbidden: Optional[Set[Node]] = None,
) -> bool:
    """True iff any node in ``sources`` reaches any node in ``targets``.

    ``forbidden`` nodes are never entered (they may appear in sources, in
    which case they are skipped). This is the separator test of Section
    6.2: does any ancestor of a document still reach any descendant once
    the document is removed from the document-level graph?
    """
    forbidden = forbidden or set()
    seen: Set[Node] = set()
    queue: deque[Node] = deque()
    for s in sources:
        if s in forbidden or s in seen or s not in graph:
            continue
        if s in targets:
            return True
        seen.add(s)
        queue.append(s)
    while queue:
        v = queue.popleft()
        for w in graph.successors(v):
            if w in forbidden or w in seen:
                continue
            if w in targets:
                return True
            seen.add(w)
            queue.append(w)
    return False
