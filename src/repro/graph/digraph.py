"""A compact mutable directed graph over hashable node ids.

The HOPI algorithms operate on three graphs of very different sizes: the
element-level graph (hundreds of thousands of nodes in the paper), the
document-level graph, and skeleton graphs. All of them are instances of
:class:`DiGraph`, which stores forward and reverse adjacency as
``dict[node, set[node]]``. Dense integer ids are recommended (the XML
layer assigns them) but any hashable id works, which keeps the document-
level graph readable in tests.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Iterator, Set, Tuple

Node = Hashable
Edge = Tuple[Node, Node]


class DiGraph:
    """Mutable directed graph with forward and reverse adjacency sets.

    Parallel edges are collapsed (edge sets); self-loops are allowed but
    the XML layer never produces them. All mutating operations keep the
    forward and reverse adjacency views consistent.
    """

    __slots__ = ("_succ", "_pred")

    def __init__(self, edges: Iterable[Edge] | None = None) -> None:
        self._succ: Dict[Node, Set[Node]] = {}
        self._pred: Dict[Node, Set[Node]] = {}
        if edges is not None:
            for u, v in edges:
                self.add_edge(u, v)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self, v: Node) -> None:
        """Add an isolated node (a no-op if it already exists)."""
        if v not in self._succ:
            self._succ[v] = set()
            self._pred[v] = set()

    def add_edge(self, u: Node, v: Node) -> None:
        """Add the edge ``u -> v``, creating endpoints as needed."""
        self.add_node(u)
        self.add_node(v)
        self._succ[u].add(v)
        self._pred[v].add(u)

    def add_edges(self, edges: Iterable[Edge]) -> None:
        for u, v in edges:
            self.add_edge(u, v)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def __contains__(self, v: Node) -> bool:
        return v in self._succ

    def __len__(self) -> int:
        return len(self._succ)

    def __iter__(self) -> Iterator[Node]:
        return iter(self._succ)

    def nodes(self) -> Iterator[Node]:
        return iter(self._succ)

    def edges(self) -> Iterator[Edge]:
        for u, targets in self._succ.items():
            for v in targets:
                yield (u, v)

    def has_edge(self, u: Node, v: Node) -> bool:
        targets = self._succ.get(u)
        return targets is not None and v in targets

    def successors(self, v: Node) -> Set[Node]:
        """The set of direct successors of ``v`` (do not mutate)."""
        return self._succ[v]

    def predecessors(self, v: Node) -> Set[Node]:
        """The set of direct predecessors of ``v`` (do not mutate)."""
        return self._pred[v]

    def num_edges(self) -> int:
        return sum(len(t) for t in self._succ.values())

    # ------------------------------------------------------------------
    # derived graphs
    # ------------------------------------------------------------------
    def copy(self) -> "DiGraph":
        g = DiGraph()
        g._succ = {v: set(t) for v, t in self._succ.items()}
        g._pred = {v: set(t) for v, t in self._pred.items()}
        return g

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"DiGraph(|V|={len(self)}, |E|={self.num_edges()})"
