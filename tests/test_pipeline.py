"""The build pipeline's paper strategies (Sections 4 and 5).

Partitioned builds are audited against a BFS closure on seeded random
collections, as built and after a round of Section-6 maintenance; the
phase plumbing, option validation and partition-task extraction are
pinned too. The ``arrays`` rows audit the built covers as they are; the
``sets`` rows first hand every built cover's entries to the oracle
(``tests/cover_oracle.py``), so the maintenance round and the
BFS-closure audit run on the reference semantics instead of the code
that built them.
"""

import random
import warnings

import pytest

from cover_oracle import index_in_state
from repro.core.hopi import HopiIndex
from repro.core.pipeline import BuildPipeline
from repro.storage.snapshot import canonical_snapshot_bytes
from repro.xmlmodel.model import Collection

TAGS = ("a", "b", "c")


def random_collection(seed: int, *, n_docs: int = 6) -> Collection:
    """A seeded random linked collection (DAG element graph)."""
    rng = random.Random(seed)
    collection = Collection()
    elements = []
    for i in range(n_docs):
        root = collection.new_document(f"d{i}", "r")
        members = [root.eid]
        for _ in range(rng.randrange(3, 8)):
            parent = rng.choice(members)
            members.append(collection.add_child(parent, rng.choice(TAGS)).eid)
        elements.extend(members)
    for _ in range(rng.randrange(3, 3 * n_docs)):
        u, v = rng.choice(elements), rng.choice(elements)
        if u != v:
            collection.add_link(min(u, v), max(u, v))
    return collection


def build(collection: Collection, state: str, **kwargs) -> HopiIndex:
    """``HopiIndex.build`` with the result put into cover ``state``."""
    return index_in_state(HopiIndex.build(collection, **kwargs), state)


def maintenance_round(index: HopiIndex, seed: int) -> None:
    """One deterministic round of Section-6 ops (same for any cover)."""
    rng = random.Random(seed)
    collection = index.collection
    elements = sorted(collection.elements)
    new_child = index.insert_element(rng.choice(elements), "m")
    index.insert_edge(rng.choice(elements), new_child)
    u, v = rng.sample(elements, 2)
    index.insert_edge(min(u, v), max(u, v))
    victim = sorted(collection.documents)[0]
    index.delete_document(victim)


@pytest.mark.parametrize("limit", [0, -5])
def test_partition_limit_below_one_is_rejected(limit):
    """Regression: ``partition_limit=0`` used to fall back to the
    derived default silently (the limit was tested for truthiness), and
    a negative one failed deep inside the partitioner."""
    collection = random_collection(8, n_docs=3)
    for partitioner in ("closure", "node_weight"):
        with pytest.raises(ValueError, match="partition_limit"):
            BuildPipeline(collection, partitioner=partitioner,
                          partition_limit=limit)
        with pytest.raises(ValueError, match="partition_limit"):
            HopiIndex.build(collection, partitioner=partitioner,
                            partition_limit=limit)


def test_pipeline_phases_accounted():
    """Phase timings and per-partition seconds land in BuildStats."""
    pipeline = BuildPipeline(
        random_collection(9),
        strategy="recursive",
        partitioner="node_weight",
        partition_limit=12,
    )
    cover, stats = pipeline.run()
    assert stats.num_partitions >= 2
    assert len(stats.partition_cover_seconds) == stats.num_partitions
    assert stats.seconds_total >= stats.seconds_join
    assert cover.size == stats.cover_size


def test_stats_record_the_partition_limit_actually_used():
    """Regression: a derived limit used to be recorded as ``None``."""
    collection = random_collection(12)
    elements = collection.num_elements
    paper = dict(strategy="recursive")
    derived = HopiIndex.build(collection, **paper)
    assert derived.stats.partition_limit == max(elements * 20, 1000)
    derived = HopiIndex.build(collection, partitioner="node_weight", **paper)
    assert derived.stats.partition_limit == max(elements // 8, 1)
    explicit = HopiIndex.build(collection, partition_limit=77, **paper)
    assert explicit.stats.partition_limit == 77
    single = HopiIndex.build(collection, partitioner="single", **paper)
    assert single.stats.partition_limit is None


@pytest.mark.parametrize("seed", range(4))
def test_partition_tasks_keep_subcollection_graph_order(seed):
    """Tasks are assembled from one scan of the inter-links, in exactly
    the node and edge order of ``subcollection(docs).element_graph()``
    (the cover builder's tie-breaks follow it)."""
    rng = random.Random(seed)
    collection = random_collection(seed, n_docs=30)
    elements = sorted(collection.elements)
    for _ in range(12):  # back links: cycles inside and across documents
        u, v = rng.sample(elements, 2)
        collection.add_link(max(u, v), min(u, v))
    for hub in rng.sample(elements, 4):  # many links out of one element
        for target in rng.sample(elements, 12):
            collection.add_link(hub, target)
    pipeline = BuildPipeline(
        collection, strategy="recursive",
        partition_limit=collection.num_elements * 12,
    )
    partitioning = pipeline.partition()
    assert any(len(docs) > 1 for docs in partitioning.partitions)
    for task, docs in zip(pipeline.partition_tasks(partitioning), partitioning.partitions):
        graph = collection.subcollection(docs).element_graph()
        assert task.nodes == tuple(graph.nodes())
        assert task.edges == tuple(graph.edges())


def test_closure_partitioner_oversized_doc_warns_not_fails():
    """Regression: a single document whose closure exceeds the budget
    must degrade to a warned-about singleton partition, not an error."""
    from repro.core.partitioning import partition_by_closure_size

    collection = random_collection(11, n_docs=4)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        partitioning = partition_by_closure_size(collection, 1)
    assert [w for w in caught if issubclass(w.category, UserWarning)]
    assert partitioning.num_partitions == len(collection.documents)
    # over-budget documents become singletons; the index still builds
    index = HopiIndex.build(
        collection, strategy="recursive", partitioner="closure",
        partition_limit=1,
    )
    index.verify()


# ---------------------------------------------------------------------------
# partitioned builds through maintenance
# ---------------------------------------------------------------------------

#: build flavours of the audit matrix: the two partitioned joins and
#: the distance-aware build
FLAVOURS = {
    "recursive": dict(strategy="recursive"),
    "incremental": dict(strategy="incremental"),
    "distance": dict(strategy="recursive", distance=True),
}


@pytest.mark.parametrize("state", ["sets", "arrays"])
@pytest.mark.parametrize("flavour", sorted(FLAVOURS))
@pytest.mark.parametrize("seed", [12, 13])
def test_partitioned_build_verifies_through_maintenance(state, flavour, seed):
    """A partitioned build answers like the BFS closure as built and
    after one round of Section-6 maintenance, both as built and through
    the oracle."""
    index = build(
        random_collection(seed, n_docs=5), state,
        partitioner="node_weight", partition_limit=12, **FLAVOURS[flavour],
    )
    assert index.stats.num_partitions >= 2
    index.verify()
    maintenance_round(index, seed=seed)
    index.verify()


def test_canonical_snapshot_bytes_is_order_insensitive():
    """Two equal covers built in different entry orders encode to the
    same bytes; different covers do not."""
    from repro.core.cover import TwoHopCover

    a = TwoHopCover([1, 2, 3])
    a.add_lout(1, 2)
    a.add_lin(3, 2)
    b = TwoHopCover([3, 1, 2])
    b.add_lin(3, 2)
    b.add_lout(1, 2)
    assert canonical_snapshot_bytes(a) == canonical_snapshot_bytes(b)
    b.add_lout(2, 3)
    assert canonical_snapshot_bytes(a) != canonical_snapshot_bytes(b)
