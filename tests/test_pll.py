"""The product builder: pruned landmark labelling over the whole graph.

PLL must answer exactly what the closures answer (cycles included, both
flavours), exactly what the paper's greedy pipeline answers, and give
the same bytes in every process.
"""

import hashlib
import os
import subprocess
import sys
from itertools import product

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from random_collections import random_collection
from repro.core.cover_builder import build_cover, build_pll_cover
from repro.core.distance import build_distance_cover
from repro.core.hopi import HopiIndex
from repro.core.pipeline import BuildPipeline
from repro.graph import DiGraph, distance_closure, transitive_closure
from repro.storage.snapshot import snapshot_to_bytes
from repro.xmlmodel.generator import dblp_like, inex_like

SETTINGS = settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def graphs(draw, max_nodes=16):
    """Node and edge lists of an arbitrary digraph: cycles, self-loops
    and repeated edges allowed."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    node = st.integers(min_value=0, max_value=n - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=3 * n))
    return list(range(n)), edges


@st.composite
def labelled_graphs(draw, max_nodes=16):
    """A digraph over non-contiguous node ids, listed shuffled and with
    repeats, and sometimes a vertex order to label it in."""
    ids = draw(st.lists(st.integers(0, 999), min_size=1,
                        max_size=max_nodes, unique=True))
    node = st.sampled_from(ids)
    edges = draw(st.lists(st.tuples(node, node), max_size=3 * len(ids)))
    repeats = draw(st.lists(node, max_size=4))
    nodes = draw(st.permutations(ids + repeats))
    order = draw(st.none() | st.permutations(ids))
    return nodes, edges, order


def _digraph(nodes, edges):
    g = DiGraph()
    for v in nodes:
        g.add_node(v)
    g.add_edges((u, v) for u, v in edges if u != v)
    return g


@SETTINGS
@given(graphs())
def test_pll_cover_equals_the_closure(graph):
    nodes, edges = graph
    cover = build_pll_cover(nodes, edges)
    cover.verify_against(transitive_closure(_digraph(nodes, edges)))
    assert all(node != center for _, node, center in cover.entries())


@SETTINGS
@given(graphs(max_nodes=12))
def test_pll_distance_cover_equals_bfs(graph):
    nodes, edges = graph
    cover = build_pll_cover(nodes, edges, distance=True)
    cover.verify_against(distance_closure(_digraph(nodes, edges)))
    assert all(node != center for _, node, center, _ in cover.entries())


@SETTINGS
@given(labelled_graphs(), st.booleans())
def test_pll_writes_the_tables_from_entries_builds(graph, distance):
    """The builder hands over finished tables: they equal, table for
    table, the batch constructor's from the same entries, and every row
    is sorted and duplicate-free."""
    nodes, edges, order = graph
    cover = build_pll_cover(nodes, edges, distance=distance, order=order)
    batch = type(cover).from_entries(nodes, cover.entries())
    assert cover.interner.labels() == batch.interner.labels() == sorted(set(nodes))
    assert cover._nodes == batch._nodes
    for name in cover._TABLE_NAMES:
        table = getattr(cover, name)
        assert table == getattr(batch, name), name
        assert len(table) == len(set(nodes))
        for row in table:
            assert row is None or len(row) > 0
        if not name.endswith("_dist"):
            for row in filter(None, table):
                assert list(row) == sorted(set(row))


#: sha256 of ``snapshot_to_bytes`` of the product build's cover, pinned
#: so that any change to what PLL writes is a visible test edit
PINNED_BUILD_SHA256 = {
    ("dblp", False): "f0b0a66566af2db45914d9f4b4ea94938644107e310493527bcf6920dd610ceb",
    ("dblp", True): "47b83f8a3fe7f2948cdd7d7b72aced15ec3bdf173050307b129272a51dd8ecb6",
    ("inex", False): "7dcd2a7d9556c301b2d7ae55c7c75c5189e4de496553a6489eaa7e3345d8aba8",
    ("inex", True): "a77500b500df143b5e25fe07ca3521de46a0a64de777ddb58968b7811ca6b720",
}


@pytest.mark.parametrize("corpus, distance", sorted(PINNED_BUILD_SHA256))
def test_pll_build_bytes_are_pinned(corpus, distance):
    c = dblp_like(40, seed=2) if corpus == "dblp" else inex_like(6, seed=3)
    cover = HopiIndex.build(c, distance=distance).cover
    digest = hashlib.sha256(snapshot_to_bytes(cover)).hexdigest()
    assert digest == PINNED_BUILD_SHA256[corpus, distance]


def test_pll_labels_do_not_depend_on_edge_order():
    nodes = list(range(8))
    edges = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (1, 5), (6, 7)]
    for distance in (False, True):
        forward = build_pll_cover(nodes, edges, distance=distance)
        backward = build_pll_cover(nodes[::-1], edges[::-1], distance=distance)
        assert sorted(forward.entries()) == sorted(backward.entries())


@pytest.mark.parametrize("seed", range(6))
def test_pll_answers_as_the_paper_pipeline(seed):
    """Differential: on small random collections (document-level cycles
    included) the product build and ``strategy="recursive"`` answer
    ``connected`` and ``distance`` identically on every pair."""
    c = random_collection(n_docs=5, inter_links=8, seed=seed)
    pairs = list(product(sorted(c.elements), repeat=2))
    for distance in (False, True):
        pll = HopiIndex.build(c, distance=distance)
        paper = HopiIndex.build(c, strategy="recursive", distance=distance)
        answer = "distance" if distance else "connected"
        assert [getattr(pll, answer)(u, v) for u, v in pairs] == [
            getattr(paper, answer)(u, v) for u, v in pairs
        ]


def test_pll_is_one_partition_with_nothing_to_join():
    c = random_collection(n_docs=6, inter_links=10, seed=3)
    pipeline = BuildPipeline(c, partitioner="node_weight")
    partitioning = pipeline.partition()
    assert partitioning.num_partitions == 1
    assert partitioning.cross_links == []
    (task,) = pipeline.partition_tasks(partitioning)
    assert task.pll and task.preselected == ()
    (result,) = pipeline.build_partition_covers([task])
    assert pipeline.join(partitioning, [result.cover]) is result.cover
    cover, stats = pipeline.run()
    assert sorted(cover.entries()) == sorted(result.cover.entries())
    assert (stats.strategy, stats.partitioner, stats.partition_limit) == (
        "pll", None, None
    )
    assert stats.num_partitions == 1


@pytest.mark.parametrize("distance", [False, True])
def test_unpartitioned_builds_the_greedy_cover_of_the_element_graph(distance):
    """The whole-collection task keeps ``element_graph()``'s node and
    edge order, so the greedy build is the one on that graph."""
    c = random_collection(n_docs=5, inter_links=8, seed=11)
    cover, stats = BuildPipeline(
        c, strategy="unpartitioned", distance=distance
    ).run()
    build = build_distance_cover if distance else build_cover
    assert sorted(cover.entries()) == sorted(build(c.element_graph()).entries())
    assert stats.num_partitions == 1


_HASH_SEED_SCRIPT = """
import hashlib
from repro.core.hopi import HopiIndex
from repro.storage.snapshot import canonical_snapshot_bytes
from repro.xmlmodel.generator import dblp_like

c = dblp_like(30, seed=5)
for distance in (False, True):
    cover = HopiIndex.build(c, distance=distance).cover
    print(hashlib.sha256(canonical_snapshot_bytes(cover)).hexdigest())
"""


def test_pll_build_is_independent_of_the_hash_seed():
    """Document ids are strings, so anything that walks them in set
    order differs between processes: the built cover must not."""
    tests = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(tests), "src")
    outputs = []
    for seed in ("0", "1"):
        done = subprocess.run(
            [sys.executable, "-c", _HASH_SEED_SCRIPT],
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr[-2000:]
        outputs.append(done.stdout)
    assert len(outputs[0].splitlines()) == 2
    assert outputs[0] == outputs[1]
