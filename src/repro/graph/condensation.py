"""Strongly connected components and the condensation DAG.

2-hop reachability covers are naturally defined on DAGs: all members of a
strongly connected component reach exactly the same nodes, so HOPI labels
one representative per component and shares its labels. XML collections
are almost-trees, but inter-document links (citations, cross-references)
can close cycles, so the substrate must handle the general case.

Tarjan's algorithm is implemented iteratively — element-level graphs have
paths far deeper than CPython's recursion limit.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Set

from repro.graph.digraph import DiGraph, Node


def strongly_connected_components(graph: DiGraph) -> List[List[Node]]:
    """Tarjan's SCC algorithm, iteratively, in reverse topological order.

    Returns:
        A list of components; each component is a list of original nodes.
        Components are emitted in reverse topological order of the
        condensation (every edge goes from a later component to an
        earlier one in the returned list).
    """
    return tarjan_components(graph, graph.successors)


def tarjan_components(
    nodes: Iterable[Node], successors: Callable[[Node], Iterable[Node]]
) -> List[List[Node]]:
    """:func:`strongly_connected_components` of the graph reachable from
    ``nodes`` along ``successors``, for graphs held as something other
    than a :class:`DiGraph`."""
    index: Dict[Node, int] = {}
    lowlink: Dict[Node, int] = {}
    on_stack: Set[Node] = set()
    stack: List[Node] = []
    components: List[List[Node]] = []
    counter = 0

    for root in nodes:
        if root in index:
            continue
        # Each work item is (node, iterator over its successors).
        work = [(root, iter(successors(root)))]
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = lowlink[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(successors(w))))
                    advanced = True
                    break
                if w in on_stack:
                    lowlink[v] = min(lowlink[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[v])
            if lowlink[v] == index[v]:
                component: List[Node] = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    component.append(w)
                    if w == v:
                        break
                components.append(component)
    return components


class Condensation:
    """The condensation DAG of a directed graph.

    Every node of the original graph maps to the id of its component
    (``component_of``); component ids are dense integers ``0..k-1``
    assigned so that the condensation's edges always go from a component
    to one emitted earlier by Tarjan, i.e. ids form a reverse topological
    order. The condensation DAG itself is exposed as ``dag`` with the
    component ids as nodes.
    """

    def __init__(self, graph: DiGraph) -> None:
        comps = strongly_connected_components(graph)
        self.members: List[List[Node]] = comps
        self.component_of: Dict[Node, int] = {}
        for cid, comp in enumerate(comps):
            for v in comp:
                self.component_of[v] = cid
        self.dag = DiGraph()
        for cid in range(len(comps)):
            self.dag.add_node(cid)
        for u, v in graph.edges():
            cu, cv = self.component_of[u], self.component_of[v]
            if cu != cv:
                self.dag.add_edge(cu, cv)

    def __len__(self) -> int:
        return len(self.members)
