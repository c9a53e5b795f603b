"""Beyond XML: 2-hop reachability over a software dependency graph.

The paper's future work (Section 8) points out that compressing the
transitive closure is useful far beyond XML. This example indexes a
package dependency graph with the same cover builder HOPI uses: "does
upgrading X affect Y?" is a reachability query, "how far downstream?"
is a distance query, and publishing a release is incremental
maintenance (Section 3.3's link rule). The cover's nodes are ints, so
each package is its index in ``names``.

Run:  python examples/dependency_graph.py
"""

import random

from repro.core import build_distance_cover
from repro.core.join import insert_link_distance
from repro.graph import DiGraph, distance_closure, transitive_closure


def build_dependency_graph(n_packages=120, seed=5):
    """Layered synthetic package graph (apps -> libs -> core) over the
    package indexes, and the package names."""
    rng = random.Random(seed)
    g = DiGraph()
    names = [f"pkg{i}" for i in range(n_packages)]
    for i in range(n_packages):
        g.add_node(i)
    for i in range(n_packages):
        # depend on a few earlier (more fundamental) packages
        for _ in range(rng.randint(1, 4)):
            if i == 0:
                break
            g.add_edge(i, rng.randrange(i))
    return g, names


def main():
    graph, names = build_dependency_graph()
    closure = transitive_closure(graph)
    cover = build_distance_cover(graph)
    print(
        f"dependency graph: {len(graph)} packages, {graph.num_edges()} edges; "
        f"closure {closure.num_connections:,} pairs -> "
        f"{cover.size:,} label entries "
        f"({closure.num_connections / cover.size:.1f}x compression)\n"
    )

    # impact analysis: what does pkg3 transitively depend on?
    deps = cover.descendants(3) - {3}
    dependents = cover.ancestors(3) - {3}
    print(f"pkg3 depends on {len(deps)} packages "
          f"and is depended on by {len(dependents)}")
    print(f"pkg7 affected by an upgrade of pkg0: {cover.connected(7, 0)}")

    # hop distance = how indirect the dependency is
    fundamental = min(graph, key=lambda p: len(graph.successors(p)))
    chains = {
        p: cover.distance(p, fundamental)
        for p in sorted(dependents | {3}, key=names.__getitem__)
        if cover.distance(p, fundamental) is not None
    }
    deepest = max(chains.items(), key=lambda kv: kv[1], default=None)
    if deepest:
        print(f"longest dependency chain onto {names[fundamental]}: "
              f"{names[deepest[0]]} at {deepest[1]} hops")

    # maintenance: publishing a release adds a package and a dependency
    new = len(names)
    names.append("pkg-new")
    graph.add_edge(new, 3)
    insert_link_distance(cover, new, 3)
    print(f"\nafter publishing pkg-new -> pkg3: "
          f"pkg-new transitively depends on "
          f"{len(cover.descendants(new)) - 1} packages")
    cover.verify_against(distance_closure(graph))
    print("verified against the BFS oracle ✓")


if __name__ == "__main__":
    main()
