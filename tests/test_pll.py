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

import acyclic
from random_collections import random_collection
from repro.core.cover_builder import build_cover, build_pll_cover, reach_multiplier
from repro.core.distance import build_distance_cover
from repro.core.hopi import HopiIndex
from repro.core.maintenance import _reach, _rebuild_region
from repro.core.pipeline import BuildPipeline
from repro.graph import DiGraph, distance_closure, transitive_closure
from repro.graph.traversal import ancestors as graph_ancestors
from repro.graph.traversal import descendants as graph_descendants
from repro.storage.snapshot import snapshot_to_bytes
from repro.xmlmodel.generator import dblp_like, inex_like
from repro.xmlmodel.model import Collection

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
    assert sorted(cover.nodes) == sorted(batch.nodes) == sorted(set(nodes))
    assert cover._nodes == batch._nodes
    for name in cover._TABLE_NAMES:
        table = getattr(cover, name)
        assert table == getattr(batch, name), name
        assert len(table) == max(nodes) + 1
        for row in table:
            assert row is None or len(row) > 0
        if not name.endswith("_dist"):
            for row in filter(None, table):
                assert list(row) == sorted(set(row))


#: sha256 of ``snapshot_to_bytes`` of the product build's cover, pinned
#: so that any change to what PLL writes is a visible test edit
PINNED_BUILD_SHA256 = {
    ("dblp", False): "be36e95fd47400643b1a0092298c2552e35e73fac0828a4f3e2567d0ac4a5fd6",
    ("dblp", True): "df21a52ac4fb9dddb1dd9e0d06cecabdc4d38ccbf1f41de52e46e71454753261",
    ("inex", False): "7dcd2a7d9556c301b2d7ae55c7c75c5189e4de496553a6489eaa7e3345d8aba8",
    ("inex", True): "a77500b500df143b5e25fe07ca3521de46a0a64de777ddb58968b7811ca6b720",
    ("cyclic", False): "eb6b5ab4183335ab575d6e6d037e8fe4c5ec6e6a723fb8151ee085680b377797",
    ("cyclic", True): "9ad77d9ed2439120252477559e6945a1fae081646b9b10ea086967774cd960f9",
    ("mixed", False): "51d3dc002d48cfb4e02c5f4a3d0620678e6c3cbf4a22d56997a559661146cea1",
    ("mixed", True): "b802b4912b8f1e4b1bcec44e1dd34ba27b444a27002d3feff64999bd00ea5b70",
}


def _link_free(c):
    """The documents with no intra-link and no inter-link endpoint."""
    ends = {c.doc(x) for link in c.inter_links for x in link}
    return {d for d, doc in c.documents.items() if not doc.intra_links and d not in ends}


def _mixed():
    """Citation-linked documents, then three link-free article trees."""
    c = dblp_like(12, seed=5)
    trees = inex_like(3, seed=5)
    eids = {}
    for eid in sorted(trees.elements):
        e = trees.elements[eid]
        if e.parent is None:
            eids[eid] = c.new_document(e.doc, e.tag).eid
        else:
            eids[eid] = c.add_child(eids[e.parent], e.tag).eid
    return c


PINNED_CORPORA = {
    "dblp": lambda: dblp_like(40, seed=2),
    "inex": lambda: inex_like(6, seed=3),
    # document-level cycles and intra-document links
    "cyclic": lambda: random_collection(n_docs=14, inter_links=40, seed=6),
    # link-free documents labelled in closed form next to linked ones
    "mixed": _mixed,
}


@pytest.mark.parametrize("corpus, distance", sorted(PINNED_BUILD_SHA256))
def test_pll_build_bytes_are_pinned(corpus, distance):
    c = PINNED_CORPORA[corpus]()
    if corpus == "cyclic":
        assert not acyclic.is_acyclic(c.document_graph())
        assert any(doc.intra_links for doc in c.documents.values())
    if corpus == "mixed":
        assert _link_free(c) == {"inex0", "inex1", "inex2"}
    cover = HopiIndex.build(c, distance=distance).cover
    digest = hashlib.sha256(snapshot_to_bytes(cover)).hexdigest()
    assert digest == PINNED_BUILD_SHA256[corpus, distance]


def _tree_document(c, doc_id, parents):
    """A link-free document whose element ``i`` hangs under element
    ``parents[i]`` (the root's entry is ``None``)."""
    eids = [c.new_document(doc_id, "t").eid]
    for parent in parents[1:]:
        eids.append(c.add_child(eids[parent], "t").eid)


@settings(SETTINGS, max_examples=40)
@given(st.integers(3, 7), st.integers(0, 14), st.randoms(use_true_random=False),
       st.booleans())
def test_the_product_build_is_the_edge_list_build(n_docs, links, rng, distance):
    """The product build reads the element graph straight from the
    collection, and labels link-free documents in closed form. It
    writes the bytes, ranks and tables ``build_pll_cover`` writes from
    the element graph's edge list, each row its own array, and counts
    its entries, on collections with an intra-link parallel to a tree
    edge, a self-loop intra-link, a document-level cycle, the id gaps a
    deleted document leaves, and link-free documents next to linked
    ones: a chain, a star, equal keys among siblings and two levels
    apart, and a document grown interleaved with a linked one."""
    c = random_collection(n_docs=n_docs, inter_links=links, rng=rng)
    c.remove_document(rng.choice(sorted(c.documents)))
    x = rng.choice(sorted(c.elements))
    c.add_link(x, c.add_child(x, "a").eid)
    c.add_link(x, x)
    a, b = rng.sample(sorted(c.documents), 2)
    _tree_document(c, "chain", [None] + list(range(59)))
    _tree_document(c, "star", [None] + [0] * 9)
    # siblings 1 and 2 tie, and so does 1 with its grandchild 7
    _tree_document(c, "equal", [None, 0, 0, 1, 1, 2, 2, 3, 7, 7])
    mine, theirs = [c.new_document("interleaved", "t").eid], [c.documents[a].root]
    for _ in range(12):
        mine.append(c.add_child(rng.choice(mine), "t").eid)
        theirs.append(c.add_child(rng.choice(theirs), "a").eid)
    c.add_link(rng.choice(sorted(c.elements_of(a))), rng.choice(sorted(c.elements_of(b))))
    c.add_link(rng.choice(sorted(c.elements_of(b))), rng.choice(sorted(c.elements_of(a))))
    assert not acyclic.is_acyclic(c.document_graph())
    assert len(c.elements) < c._next_id
    free = _link_free(c)
    assert {"chain", "star", "equal", "interleaved"} <= free < set(c.documents)
    edges = list(c.inter_links)
    for doc in c.documents.values():
        edges += doc.graph_edges()
    expected = build_pll_cover(
        list(c.elements), edges, distance=distance, multiplier=reach_multiplier(c)
    )
    index = HopiIndex.build(c, distance=distance)
    cover = index.cover
    assert snapshot_to_bytes(cover) == snapshot_to_bytes(expected)
    assert index.stats.cover_size == expected.size
    nodes = sorted(c.elements)
    assert cover.ranks(nodes) == expected.ranks(nodes)
    rows = []
    for name in cover._TABLE_NAMES:
        assert getattr(cover, name) == getattr(expected, name), name
        rows += filter(None, getattr(cover, name))
    assert len(set(map(id, rows))) == len(rows)


def _reference_multiplier(c):
    """``(A + 1) * (D + 1)`` straight from its definition: document
    reach by one search per document, subtrees and ancestor chains
    walked element by element."""
    graph = c.document_graph()
    below = {d: graph_descendants(graph, d) for d in c.documents}
    above = {d: graph_ancestors(graph, d) for d in c.documents}
    marked = set()  # ancestors-or-self of an inter-document link source
    for u, _ in c.inter_links:
        while u is not None:
            marked.add(u)
            u = c.elements[u].parent
    expected = {}
    for x, element in c.elements.items():
        subtree, stack = set(), [x]
        while stack:
            subtree.add(stack[-1])
            stack += c.documents[element.doc].children[stack.pop()]
        reached = set()
        for u, v in c.inter_links:
            if u in subtree:
                reached |= below[c.doc(v)]
        reaching = set()
        for u, v in c.inter_links:
            if v == x:
                reaching |= above[c.doc(u)]
        d = sum(len(c.elements_of(e)) for e in reached - {element.doc})
        a = sum(c.doc(s) in reaching - {element.doc} for s in marked)
        if (a + 1) * (d + 1) > 1:
            expected[x] = (a + 1) * (d + 1)
    return expected


def _reordered(c, rng):
    """The same collection, its documents, elements and inter-document
    links inserted in another order."""
    other = Collection()
    docs = list(c.documents)
    rng.shuffle(docs)
    for doc_id in docs:
        other.documents[doc_id] = c.documents[doc_id]
    eids = list(c.elements)
    rng.shuffle(eids)
    for eid in eids:
        other.elements[eid] = c.elements[eid]
    links = sorted(c.inter_links)
    rng.shuffle(links)
    for link in links:
        other.inter_links.add(link)
    other._next_id = c._next_id
    return other


@settings(SETTINGS, max_examples=60)
@given(st.integers(2, 7), st.integers(0, 14), st.randoms(use_true_random=False),
       st.booleans())
def test_reach_multiplier_is_its_definition_in_any_insertion_order(
    n_docs, links, rng, distance
):
    """On random collections with document-level cycles the multiplier
    is its definition, whatever order documents and links were added
    in, also restricted to a region closed under reachability, and the
    build it orders answers like breadth-first search."""
    c = random_collection(n_docs=n_docs, inter_links=links, rng=rng)
    expected = _reference_multiplier(c)
    assert reach_multiplier(c) == expected
    assert reach_multiplier(_reordered(c, rng)) == expected
    region = _reach(c, rng.sample(sorted(c.elements), 2))
    assert reach_multiplier(c, region) == {
        x: factor for x, factor in expected.items() if x in region
    }
    cover = HopiIndex.build(c, distance=distance).cover
    closure = distance_closure if distance else transitive_closure
    cover.verify_against(closure(c.element_graph()))


@pytest.mark.parametrize("distance", [False, True])
def test_a_region_of_every_element_relabels_to_the_fresh_build(distance):
    """One rank rule: the Theorem-3 re-label of a region holding every
    element writes exactly the product build's labels, whatever cover
    it starts from."""
    c = random_collection(n_docs=12, inter_links=30, seed=8)
    assert not acyclic.is_acyclic(c.document_graph())
    for corpus in (c, dblp_like(30, seed=5)):
        cover = HopiIndex.build(corpus, strategy="recursive", distance=distance).cover
        everything = set(corpus.elements)
        _rebuild_region(corpus, cover, everything, everything)
        fresh = HopiIndex.build(corpus, distance=distance).cover
        assert sorted(cover.entries()) == sorted(fresh.entries())


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
    assert sorted(task.docs) == sorted(c.documents) and task.preselected == ()
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
    """The one partition lists the documents in collection order, so its
    graph is ``element_graph()`` and the greedy build the one on it."""
    build = build_distance_cover if distance else build_cover
    for c in (
        random_collection(n_docs=5, inter_links=8, seed=11),
        random_collection(n_docs=14, inter_links=40, seed=6),
    ):
        cover, stats = BuildPipeline(
            c, strategy="unpartitioned", distance=distance
        ).run()
        assert sorted(cover.entries()) == sorted(build(c.element_graph()).entries())
        assert stats.num_partitions == 1


_HASH_SEED_SCRIPT = """
import hashlib
from acyclic import is_acyclic
from random_collections import random_collection
from repro.core.hopi import HopiIndex
from repro.storage.snapshot import snapshot_to_bytes
from repro.xmlmodel.generator import dblp_like

cyclic = random_collection(n_docs=14, inter_links=40, seed=6)
assert not is_acyclic(cyclic.document_graph())
for c in (dblp_like(30, seed=5), cyclic):
    for distance in (False, True):
        cover = HopiIndex.build(c, distance=distance).cover
        print(hashlib.sha256(snapshot_to_bytes(cover)).hexdigest())
"""


_PAPER_HASH_SEED_SCRIPT = """
import hashlib
from random_collections import random_collection
from repro.core.hopi import HopiIndex
from repro.storage.snapshot import canonical_snapshot_bytes
from repro.xmlmodel.generator import dblp_like

def show(c, distance=False, **options):
    cover = HopiIndex.build(c, distance=distance, **options).cover
    print(hashlib.sha256(canonical_snapshot_bytes(cover)).hexdigest())

show(dblp_like(25, seed=7), strategy="recursive", partitioner="node_weight",
     edge_weight="AxD")
cyclic = random_collection(n_docs=10, inter_links=24, seed=6)
for options in (
    dict(strategy="recursive"),
    dict(strategy="recursive", partitioner="node_weight"),
    dict(strategy="recursive", partitioner="single"),
    dict(strategy="recursive", partitioner="node_weight", edge_weight="AxD"),
    dict(strategy="incremental"),
    dict(strategy="unpartitioned"),
):
    for distance in (False, True):
        show(cyclic, distance, **options)
"""


def _stdout_under_hash_seeds(script, seeds):
    """``script``'s output under each ``PYTHONHASHSEED``, the processes
    run side by side."""
    tests = os.path.dirname(os.path.abspath(__file__))
    path = os.pathsep.join([os.path.join(os.path.dirname(tests), "src"), tests])
    runs = [
        subprocess.Popen(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed},
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for seed in seeds
    ]
    outputs = []
    try:
        for run in runs:
            stdout, stderr = run.communicate(timeout=120)
            assert run.returncode == 0, stderr[-2000:]
            outputs.append(stdout)
    finally:
        for run in runs:
            if run.poll() is None:
                run.kill()
                run.communicate()
    return outputs


def test_pll_build_is_independent_of_the_hash_seed():
    """Document ids are strings, so anything that walks them in set
    order (the document graph's components, for the vertex order)
    differs between processes: the built cover must not, on a
    collection with document-level cycles too."""
    outputs = _stdout_under_hash_seeds(_HASH_SEED_SCRIPT, ("0", "1"))
    assert len(outputs[0].splitlines()) == 4
    assert outputs[0] == outputs[1]


def test_paper_builds_are_independent_of_the_hash_seed():
    """The greedy builder breaks ties by node order, so a partition's
    element graph must list its documents in an order no hash seed
    changes. Seeds 0 and 3 order these builds' documents differently as
    sets of string ids, enough to change greedy covers."""
    outputs = _stdout_under_hash_seeds(_PAPER_HASH_SEED_SCRIPT, ("0", "3"))
    assert len(outputs[0].splitlines()) == 13
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("nodes, error", [
    ([-1, 1], ValueError), ([-2, 5, 9], ValueError), (["a", "b"], TypeError),
])
def test_pll_refuses_what_a_cover_cannot_hold(nodes, error):
    """Vertices are non-negative ``int`` ids, each row at its own id: a
    negative or non-``int`` vertex is refused, never written at another
    slot (``[-1, 1]`` is two ids long, as ``0..1`` is)."""
    with pytest.raises(error):
        build_pll_cover(nodes, [(nodes[0], nodes[1])])
