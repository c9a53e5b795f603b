"""Directed-graph substrate used by the HOPI index.

This package implements, from scratch, every graph primitive the paper
relies on: a mutable directed graph over dense integer node ids
(:mod:`repro.graph.digraph`), traversals and reachability
(:mod:`repro.graph.traversal`), Tarjan strongly-connected components and
the condensation DAG (:mod:`repro.graph.condensation`), and several
transitive-closure engines including a distance-annotated closure
(:mod:`repro.graph.closure`).
"""

from repro.graph.digraph import DiGraph
from repro.graph.traversal import (
    ancestors,
    bfs_distances,
    bfs_order,
    descendants,
    is_reachable,
)
from repro.graph.condensation import Condensation, strongly_connected_components
from repro.graph.closure import (
    DistanceClosure,
    TransitiveClosure,
    distance_closure,
    transitive_closure,
    transitive_closure_size,
)

__all__ = [
    "DiGraph",
    "ancestors",
    "bfs_distances",
    "bfs_order",
    "descendants",
    "is_reachable",
    "Condensation",
    "strongly_connected_components",
    "DistanceClosure",
    "TransitiveClosure",
    "distance_closure",
    "transitive_closure",
    "transitive_closure_size",
]
