"""The build pipeline: serial vs process-pool equivalence.

The pipeline's contract (module docstring of :mod:`repro.core.pipeline`)
is that the final cover's label entries are **bit-identical** for every
worker count. This suite pins that on seeded random
collections — after the build, and after a round of Section-6
maintenance applied in lock-step to a serially-built and a
parallel-built index — plus the wire format round-trip and the executor
plumbing itself. The ``arrays`` rows compare and audit the built covers
as they are; the ``sets`` rows first hand every built cover's entries
to the oracle (``tests/cover_oracle.py``), so the comparison, the
maintenance round and the BFS-closure audit all run on the reference
semantics instead of the code that built them.
"""

import random
import warnings

import pytest

from cover_oracle import index_in_state
from repro.core.cover_builder import build_partition_cover
from repro.core.hopi import HopiIndex
from repro.core.pipeline import (
    BuildPipeline,
    PartitionTask,
    ProcessExecutor,
    SerialExecutor,
    _partition_cover_worker,
    make_executor,
    normalize_partitioner,
)
from repro.storage.snapshot import (
    canonical_snapshot_bytes,
    snapshot_from_bytes,
    snapshot_to_bytes,
)
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


def entries_of(index: HopiIndex):
    return sorted(index.cover.entries())


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


@pytest.mark.parametrize("state", ["sets", "arrays"])
@pytest.mark.parametrize("strategy", ["recursive", "incremental"])
@pytest.mark.parametrize("seed", [0, 1])
def test_serial_vs_process_identical(state, strategy, seed):
    collection = random_collection(seed)
    serial = build(
        collection,
        state,
        strategy=strategy,
        partitioner="node_weight",
        partition_limit=12,
    )
    parallel = build(
        random_collection(seed),  # structurally identical twin
        state,
        strategy=strategy,
        partitioner="node_weight",
        partition_limit=12,
        workers=2,
    )
    assert parallel.stats.executor == "process"
    assert parallel.stats.workers == 2
    assert parallel.stats.num_partitions == serial.stats.num_partitions
    assert entries_of(serial) == entries_of(parallel)
    serial.verify()
    parallel.verify()


@pytest.mark.parametrize("state", ["sets", "arrays"])
def test_identical_after_maintenance(state):
    """Parallel-built indexes stay in lock-step through Section-6 ops."""
    serial = build(
        random_collection(3),
        state,
        partitioner="node_weight",
        partition_limit=12,
    )
    parallel = build(
        random_collection(3),
        state,
        partitioner="node_weight",
        partition_limit=12,
        workers=2,
    )
    maintenance_round(serial, seed=7)
    maintenance_round(parallel, seed=7)
    assert entries_of(serial) == entries_of(parallel)
    serial.verify()
    parallel.verify()


@pytest.mark.parametrize("state", ["sets", "arrays"])
def test_distance_build_identical(state):
    collection = random_collection(4, n_docs=4)
    serial = build(
        collection, state, distance=True, partitioner="node_weight",
        partition_limit=12,
    )
    parallel = build(
        random_collection(4, n_docs=4), state, distance=True,
        partitioner="node_weight", partition_limit=12, workers=2,
    )
    assert entries_of(serial) == entries_of(parallel)
    parallel.verify()


def test_wire_roundtrip_preserves_cover():
    """The CSR blob is a lossless encoding of a partition cover."""
    collection = random_collection(5)
    graph = collection.element_graph()
    cover = build_partition_cover(
        tuple(graph.nodes()), tuple(graph.edges())
    )
    blob = snapshot_to_bytes(cover)
    assert isinstance(blob, bytes) and blob
    decoded = snapshot_from_bytes(blob)
    assert sorted(decoded.entries()) == sorted(cover.entries())
    assert set(decoded.nodes) == set(cover.nodes)


def test_worker_function_is_self_contained():
    """The process-pool entry point works on a bare task tuple."""
    collection = random_collection(6, n_docs=3)
    graph = collection.element_graph()
    task = PartitionTask(
        pid=9,
        nodes=tuple(graph.nodes()),
        edges=tuple(graph.edges()),
        preselected=(),
        distance=False,
    )
    pid, payload, seconds = _partition_cover_worker(task)
    assert pid == 9 and seconds >= 0
    decoded = snapshot_from_bytes(payload)
    direct = build_partition_cover(task.nodes, task.edges)
    assert sorted(decoded.entries()) == sorted(direct.entries())


def test_executor_resolution():
    """The worker count alone picks the executor."""
    assert isinstance(make_executor(None), SerialExecutor)
    assert isinstance(make_executor(1), SerialExecutor)
    proc = make_executor(4)
    assert isinstance(proc, ProcessExecutor) and proc.workers == 4
    for bad in (0, -3):
        with pytest.raises(ValueError):
            make_executor(bad)
        with pytest.raises(ValueError):
            BuildPipeline(random_collection(8, n_docs=3), workers=bad)


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


def test_partitioner_aliases():
    assert normalize_partitioner("node-weight") == "node_weight"
    assert normalize_partitioner("closure-size") == "closure"
    assert normalize_partitioner("closure") == "closure"
    assert normalize_partitioner("single") == "single"
    with pytest.raises(ValueError):
        normalize_partitioner("metis")
    collection = random_collection(8, n_docs=3)
    via_alias = HopiIndex.build(collection, partitioner="closure-size")
    assert via_alias.stats.partitioner == "closure"


def test_pipeline_phases_accounted():
    """Phase timings and per-partition seconds land in BuildStats."""
    pipeline = BuildPipeline(
        random_collection(9),
        partitioner="node_weight",
        partition_limit=12,
        workers=2,
    )
    cover, stats = pipeline.run()
    assert stats.num_partitions >= 2
    assert len(stats.partition_cover_seconds) == stats.num_partitions
    assert stats.seconds_total >= stats.seconds_join
    assert stats.executor == "process"
    assert cover.size == stats.cover_size


def test_stats_record_the_partition_limit_actually_used():
    """Regression: a derived limit used to be recorded as ``None``."""
    collection = random_collection(12)
    elements = collection.num_elements
    derived = HopiIndex.build(collection)
    assert derived.stats.partition_limit == max(elements * 20, 1000)
    derived = HopiIndex.build(collection, partitioner="node_weight")
    assert derived.stats.partition_limit == max(elements // 8, 1)
    explicit = HopiIndex.build(collection, partition_limit=77)
    assert explicit.stats.partition_limit == 77
    assert HopiIndex.build(collection, partitioner="single").stats.partition_limit is None


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
    pipeline = BuildPipeline(collection, partition_limit=collection.num_elements * 12)
    partitioning = pipeline.partition()
    assert any(len(docs) > 1 for docs in partitioning.partitions)
    for task, docs in zip(pipeline.partition_tasks(partitioning), partitioning.partitions):
        graph = collection.subcollection(docs).element_graph()
        assert task.nodes == tuple(graph.nodes())
        assert task.edges == tuple(graph.edges())


def test_unpartitioned_ignores_workers():
    index = HopiIndex.build(
        random_collection(10, n_docs=3), strategy="unpartitioned", workers=4
    )
    assert index.stats.executor == "serial"
    assert index.stats.workers == 1
    index.verify()


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
        collection, partitioner="closure", partition_limit=1
    )
    index.verify()


# ---------------------------------------------------------------------------
# serial × process byte identity
# ---------------------------------------------------------------------------

#: build flavours of the identity matrix: the two partitioned joins and
#: the distance-aware build
FLAVOURS = {
    "recursive": dict(strategy="recursive"),
    "incremental": dict(strategy="incremental"),
    "distance": dict(distance=True),
}


@pytest.mark.parametrize("state", ["sets", "arrays"])
@pytest.mark.parametrize("flavour", sorted(FLAVOURS))
@pytest.mark.parametrize("seed", [12, 13])
def test_serial_and_process_snapshots_identical(state, flavour, seed):
    """Canonical snapshots are byte-identical for serial and process
    builds with 2 and 3 workers, as built and after one round of
    Section-6 maintenance, both as built and through the oracle."""
    options = dict(partitioner="node_weight", partition_limit=12,
                   **FLAVOURS[flavour])
    baseline = build(random_collection(seed, n_docs=5), state, **options)
    baseline_blob = canonical_snapshot_bytes(baseline.cover)
    baseline.verify()
    maintenance_round(baseline, seed=seed)
    maintained_blob = canonical_snapshot_bytes(baseline.cover)
    for workers in (2, 3):
        index = build(
            random_collection(seed, n_docs=5), state, workers=workers,
            **options,
        )
        assert index.stats.executor == "process"
        assert index.stats.workers == workers
        assert canonical_snapshot_bytes(index.cover) == baseline_blob, workers
        maintenance_round(index, seed=seed)
        assert canonical_snapshot_bytes(index.cover) == maintained_blob, workers
    baseline.verify()


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
