"""``is_acyclic``: the DAG check tests run on generated graphs.

No product code needs it (the cover builder condenses cycles instead of
rejecting them), so it lives with the tests.
"""

from collections import deque

from repro.graph.digraph import DiGraph


def is_acyclic(graph: DiGraph) -> bool:
    """True iff the graph is a DAG (Kahn's algorithm consumes every node)."""
    indeg = {v: len(graph.predecessors(v)) for v in graph}
    queue = deque(v for v, d in indeg.items() if d == 0)
    seen = 0
    while queue:
        v = queue.popleft()
        seen += 1
        for w in graph.successors(v):
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    return seen == len(graph)
