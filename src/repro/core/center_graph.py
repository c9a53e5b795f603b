"""Center graphs and the densest-subgraph 2-approximation (Section 3.2).

For a candidate center node ``w``, the *center graph* ``CG_w`` is an
undirected bipartite graph with one "in"-side node per ancestor
``u ∈ Cin(w)`` and one "out"-side node per descendant ``v ∈ Cout(w)``,
and an edge ``(u_out, v_in)`` for every **not yet covered** connection
``(u, v) ∈ T'`` that runs through ``w``. Choosing the densest subgraph
of ``CG_w`` yields the sets ``C'in``/``C'out`` that maximise Cohen's
benefit ratio ``r(w) = |S ∩ T'| / (|C'in| + |C'out|)`` (up to the
standard factor-2 approximation).

The densest subgraph is computed by the classical linear-time peeling
algorithm: iteratively remove a minimum-degree node; the density of the
best intermediate graph 2-approximates the optimum. A center graph is
passed around as its edge adjacency (in-side node -> out-side nodes),
which :mod:`repro.core.cover_builder` computes per candidate center.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

Node = object  # nodes are opaque hashables here


def densest_subgraph(
    adj: Dict[Node, Set[Node]],
) -> Tuple[float, Set[Node], Set[Node]]:
    """Densest-subgraph 2-approximation on a bipartite graph.

    Args:
        adj: mapping in-side node -> set of out-side nodes (edge list of
            the center graph). In- and out-side namespaces may overlap
            (the same original node can be both an ancestor and a
            descendant endpoint of uncovered connections); they are
            disambiguated internally.

    Returns:
        ``(density, in_side, out_side)`` of the best peel prefix. For an
        empty graph returns ``(0.0, set(), set())``.
    """
    # Internal node keys: (0, u) for in-side, (1, v) for out-side.
    degree: Dict[Tuple[int, Node], int] = {}
    neighbours: Dict[Tuple[int, Node], List[Tuple[int, Node]]] = {}
    num_edges = 0
    for u, vs in adj.items():
        if not vs:
            continue
        ku = (0, u)
        neighbours.setdefault(ku, [])
        for v in vs:
            kv = (1, v)
            neighbours[ku].append(kv)
            neighbours.setdefault(kv, []).append(ku)
            num_edges += 1
    if num_edges == 0:
        return 0.0, set(), set()
    for k, ns in neighbours.items():
        degree[k] = len(ns)

    num_nodes = len(neighbours)
    # bucket queue over degrees for O(V + E) peeling
    buckets: Dict[int, List[Tuple[int, Node]]] = {}
    for k, d in degree.items():
        buckets.setdefault(d, []).append(k)
    removed: Set[Tuple[int, Node]] = set()
    removal_order: List[Tuple[int, Node]] = []

    best_density = num_edges / num_nodes
    best_removed_upto = 0  # how many removals precede the best graph

    cur_edges, cur_nodes = num_edges, num_nodes
    cur_min = 0
    while cur_nodes > 0:
        # find current minimum non-empty bucket (min degree only decreases
        # by at most ... it can decrease; scan up from 0)
        while True:
            bucket = buckets.get(cur_min)
            while bucket:
                k = bucket.pop()
                if k in removed or degree[k] != cur_min:
                    continue
                break
            else:
                cur_min += 1
                continue
            break
        # remove k
        removed.add(k)
        removal_order.append(k)
        cur_nodes -= 1
        for nb in neighbours[k]:
            if nb in removed:
                continue
            cur_edges -= 1
            degree[nb] -= 1
            buckets.setdefault(degree[nb], []).append(nb)
            if degree[nb] < cur_min:
                cur_min = degree[nb]
        if cur_nodes > 0:
            density = cur_edges / cur_nodes
            if density > best_density:
                best_density = density
                best_removed_upto = len(removal_order)

    surviving = set(neighbours) - set(removal_order[:best_removed_upto])
    in_side = {k[1] for k in surviving if k[0] == 0}
    out_side = {k[1] for k in surviving if k[0] == 1}
    return best_density, in_side, out_side


def initial_density_upper_bound(n_ancestors: int, n_descendants: int) -> float:
    """Priority-queue seed for a fresh center node (Section 3.2).

    "The initial center graphs are always their own densest subgraph":
    before anything is covered, the center graph of ``w`` is the complete
    bipartite graph ``Cin(w) × Cout(w)`` (minus the reflexive diagonal),
    whose densest subgraph density is at most ``a*d / (a+d)``. Densities
    only decrease as connections get covered, so this is a valid upper
    bound for the lazy priority queue.
    """
    a, d = n_ancestors, n_descendants
    if a == 0 or d == 0:
        return 0.0
    return (a * d) / (a + d)
