"""Beyond XML: 2-hop reachability over a software dependency graph.

The paper's future work (Section 8) points out that compressing the
transitive closure is useful far beyond XML. This example indexes a
package dependency graph with the same cover builder HOPI uses: "does
upgrading X affect Y?" is a reachability query, "how far downstream?"
is a distance query, and publishing a release is incremental
maintenance (Section 3.3's link rule).

Run:  python examples/dependency_graph.py
"""

import random

from repro.core import build_distance_cover
from repro.core.join import insert_link_distance
from repro.graph import DiGraph, distance_closure, transitive_closure


def build_dependency_graph(n_packages=120, seed=5):
    """Layered synthetic package graph (apps -> libs -> core)."""
    rng = random.Random(seed)
    g = DiGraph()
    names = [f"pkg{i}" for i in range(n_packages)]
    for name in names:
        g.add_node(name)
    for i, name in enumerate(names):
        # depend on a few earlier (more fundamental) packages
        for _ in range(rng.randint(1, 4)):
            if i == 0:
                break
            g.add_edge(name, names[rng.randrange(i)])
    return g


def main():
    graph = build_dependency_graph()
    closure = transitive_closure(graph)
    cover = build_distance_cover(graph)
    print(
        f"dependency graph: {len(graph)} packages, {graph.num_edges()} edges; "
        f"closure {closure.num_connections:,} pairs -> "
        f"{cover.size:,} label entries "
        f"({closure.num_connections / cover.size:.1f}x compression)\n"
    )

    # impact analysis: what does pkg3 transitively depend on?
    deps = cover.descendants("pkg3") - {"pkg3"}
    dependents = cover.ancestors("pkg3") - {"pkg3"}
    print(f"pkg3 depends on {len(deps)} packages "
          f"and is depended on by {len(dependents)}")
    print(f"pkg7 affected by an upgrade of pkg0: {cover.connected('pkg7', 'pkg0')}")

    # hop distance = how indirect the dependency is
    fundamental = min(graph, key=lambda p: len(graph.successors(p)))
    chains = {
        p: cover.distance(p, fundamental)
        for p in sorted(dependents | {"pkg3"})
        if cover.distance(p, fundamental) is not None
    }
    deepest = max(chains.items(), key=lambda kv: kv[1], default=None)
    if deepest:
        print(f"longest dependency chain onto {fundamental}: "
              f"{deepest[0]} at {deepest[1]} hops")

    # maintenance: publishing a release adds a package and a dependency
    graph.add_edge("pkg-new", "pkg3")
    insert_link_distance(cover, "pkg-new", "pkg3")
    print(f"\nafter publishing pkg-new -> pkg3: "
          f"pkg-new transitively depends on "
          f"{len(cover.descendants('pkg-new')) - 1} packages")
    cover.verify_against(distance_closure(graph))
    print("verified against the BFS oracle ✓")


if __name__ == "__main__":
    main()
