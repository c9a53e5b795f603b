"""The divide-and-conquer build pipeline (Sections 4 and 5).

The paper's central scalability argument is that 2-hop cover
construction parallelises along partition boundaries: partition the
document collection, build every partition's cover *independently*
("this can even be done on different machines"), then connect the
partial covers along the cross-partition links. :class:`BuildPipeline`
is that flow as an explicit three-phase orchestrator:

1. **partition** — the document-level graph is split by one of the
   partitioners in :mod:`repro.core.partitioning` (always in the
   parent; it is cheap relative to covering);
2. **partition covers** — each partition's element graph is shipped to
   a pluggable executor as a compact :class:`PartitionTask` (node list
   + edge list + preselected centers). The ``serial`` executor runs
   the builds inline; ``process`` fans them out over
   ``multiprocessing`` workers; ``threads`` over a
   ``ThreadPoolExecutor`` (cheap to spawn, and the stepping stone to
   per-interpreter GILs); ``rpc`` over remote worker daemons
   (:mod:`repro.core.rpc` — the paper: "this can even be done on
   different machines"). Every parallel executor's workers return the
   cover as a CSR snapshot blob
   (:func:`repro.storage.snapshot.snapshot_to_bytes` — the same
   encoding used for on-disk snapshots doubles as the wire format);
3. **join** — the parent merges the partition covers with the
   strategy's join (:mod:`repro.core.join`). For the recursive
   strategy the distribution step is itself sharded by partition over
   the same executor (``join_shards``, default = worker count): after
   the tiny PSG closure, each shard bakes its label deltas into its
   own partition covers and returns them as snapshot blobs; the parent
   assembles the merged cover from block copies, deterministically.

Because the greedy cover construction consults only the partition
closure — never the executor — the final cover's label entries are
**bit-identical** across executors, worker counts and join shard
counts; the randomized suite in ``tests/test_pipeline.py`` pins that
property.

Most callers reach this module through the facade::

    index = HopiIndex.build(collection, workers=4)      # process pool
    index = HopiIndex.build(collection)                 # serial, as before
    index = HopiIndex.build(                            # remote workers
        collection, executor="rpc",
        rpc_workers=["10.0.0.5:9123", "10.0.0.6:9123"],
    )

or the CLI: ``repro build docs/ -o index.db --workers 4`` /
``--executor rpc --workers host:port,...``.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.cover import DistanceTwoHopCover, TwoHopCover
from repro.core.cover_builder import build_partition_cover
from repro.core.join import (
    ParallelJoinStats,
    _join_shard_worker,
    join_covers_incremental,
    join_covers_incremental_distance,
    join_covers_recursive,
    join_covers_recursive_parallel,
)
from repro.core.partitioning import (
    Partitioning,
    partition_by_closure_size,
    partition_by_node_weight,
    single_document_partitioning,
)
from repro.core.skeleton import connection_edge_weight
from repro.xmlmodel.model import Collection, ElementId

# NOTE: repro.storage.snapshot (the wire format) is imported lazily in
# the worker / decode paths — storage already imports repro.core, and a
# module-level import here would make package initialisation order
# sensitive to which side is imported first.

_STRATEGIES = ("unpartitioned", "incremental", "recursive")
_PARTITIONERS = ("node_weight", "closure", "single")
_EDGE_WEIGHTS = ("links", "AxD", "A+D")

#: CLI-friendly partitioner spellings accepted everywhere a partitioner
#: name is (``repro build --partitioner node-weight|closure-size``).
PARTITIONER_ALIASES = {
    "node-weight": "node_weight",
    "closure-size": "closure",
}

#: executor names accepted by :class:`BuildPipeline` and the facade
EXECUTORS = ("serial", "process", "threads", "rpc")


def normalize_partitioner(name: str) -> str:
    """Resolve a partitioner name or CLI alias to its canonical form.

    Raises:
        ValueError: for names that are neither canonical nor aliased.
    """
    canonical = PARTITIONER_ALIASES.get(name, name)
    if canonical not in _PARTITIONERS:
        raise ValueError(
            f"unknown partitioner {name!r}; one of {_PARTITIONERS}"
        )
    return canonical


# ---------------------------------------------------------------------------
# the unit of work and its wire format
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PartitionTask:
    """One partition's cover build, as plain picklable data.

    Holds exactly what :func:`repro.core.cover_builder.
    build_partition_cover` needs — the element-graph node and edge
    lists plus the preselected centers — so the same task object can be
    executed inline or shipped to a worker process.
    """

    pid: int
    nodes: Tuple[ElementId, ...]
    edges: Tuple[Tuple[ElementId, ElementId], ...]
    preselected: Tuple[ElementId, ...]
    distance: bool


@dataclass
class PartitionResult:
    """A built partition cover plus its in-worker accounting.

    ``wire`` keeps the CSR blob a parallel executor's worker returned
    (``None`` for inline builds): the parallel join re-uses it for its
    shard tasks instead of re-encoding the cover.
    """

    pid: int
    cover: object
    seconds: float
    wire_bytes: int = 0
    wire: Optional[bytes] = None


def _partition_cover_worker(task: PartitionTask) -> Tuple[int, bytes, float]:
    """Process-pool entry point: build one partition cover, return it
    as a CSR snapshot blob.

    Runs in a worker process. The partition's nodes are interned in
    sorted order (label-sorted blobs are deterministic and absorb into
    the parallel join's global id space through monotone remaps) and
    the cover is serialised with :func:`snapshot_to_bytes` — one
    contiguous buffer crosses the process boundary instead of a deep
    cover object graph.
    """
    from repro.storage.snapshot import snapshot_to_bytes

    cls = DistanceTwoHopCover if task.distance else TwoHopCover
    t0 = time.perf_counter()
    cover = build_partition_cover(
        task.nodes,
        task.edges,
        preselected_centers=task.preselected,
        distance=task.distance,
        cover_factory=lambda nodes: cls(sorted(nodes)),
    )
    return task.pid, snapshot_to_bytes(cover), time.perf_counter() - t0


# ---------------------------------------------------------------------------
# executors
# ---------------------------------------------------------------------------


class SerialExecutor:
    """Run every partition build inline, in the calling process.

    The default — and the baseline the process executor is benchmarked
    against. No wire round-trip.
    """

    name = "serial"

    def run(self, tasks) -> List[PartitionResult]:
        """Execute ``tasks`` in order; see :meth:`ProcessExecutor.run`."""
        results = []
        for task in tasks:
            t0 = time.perf_counter()
            cover = build_partition_cover(
                task.nodes,
                task.edges,
                preselected_centers=task.preselected,
                distance=task.distance,
            )
            results.append(
                PartitionResult(task.pid, cover, time.perf_counter() - t0)
            )
        return results

    def map_join(self, tasks) -> List[Tuple[int, Tuple, float]]:
        """Run join-shard tasks inline, in shard order.

        Sharding with the serial executor is still meaningful: it is
        the equivalence baseline of the parallel joins, and its clean
        (untimesliced) per-shard timings feed the single-CPU LPT model
        of the build benchmark.
        """
        return [_join_shard_worker(task) for task in tasks]


def decode_partition_results(wires) -> List[PartitionResult]:
    """Decode ``(pid, blob, seconds)`` wire triples into ordered
    :class:`PartitionResult`\\ s.

    The shared parent half of every blob-returning executor (process,
    threads, rpc) — one place to evolve if the wire shape changes. The
    blob is kept on the result for the parallel join to re-use.
    """
    from repro.storage.snapshot import snapshot_from_bytes

    results = []
    for pid, payload, seconds in wires:
        results.append(
            PartitionResult(
                pid, snapshot_from_bytes(payload), seconds, len(payload), payload
            )
        )
    results.sort(key=lambda r: r.pid)
    return results


class _PoolExecutor:
    """Shared body of the ``concurrent.futures``-pool executors: ship
    tasks to :attr:`pool_factory` workers, decode the blob results."""

    #: ``ProcessPoolExecutor`` or ``ThreadPoolExecutor``
    pool_factory = None

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers

    def _map(self, fn, tasks) -> list:
        max_workers = min(self.workers, len(tasks))
        with self.pool_factory(max_workers=max_workers) as pool:
            return list(pool.map(fn, tasks))

    def run(self, tasks) -> List[PartitionResult]:
        """Execute ``tasks`` (one :class:`PartitionTask` per partition)
        concurrently, preserving partition order."""
        tasks = list(tasks)
        if not tasks:
            return []
        return decode_partition_results(
            self._map(_partition_cover_worker, tasks)
        )

    def map_join(self, tasks) -> List[Tuple[int, Tuple, float]]:
        """Run join-shard tasks over the pool."""
        tasks = list(tasks)
        if not tasks:
            return []
        return self._map(_join_shard_worker, tasks)


class ProcessExecutor(_PoolExecutor):
    """Fan partition builds out over a ``multiprocessing`` pool.

    Workers return CSR snapshot blobs; the parent decodes them.
    Partition covers are independent (the paper: the builds "can be
    done concurrently"),
    so no coordination beyond the final collection of results is
    needed.
    """

    name = "process"
    pool_factory = ProcessPoolExecutor


class ThreadsExecutor(_PoolExecutor):
    """Fan partition builds out over a ``ThreadPoolExecutor``.

    Under today's GIL the pure-Python cover construction timeslices
    rather than parallelises, but threads cost microseconds to spawn
    (no interpreter fork, no pickled task channel), share the page
    cache, and are the seam where per-interpreter-GIL workers will slot
    in. The snapshot-encode/decode half of the work releases the GIL
    in ``array``/``bytes`` block copies, so encode-heavy builds already
    overlap. Workers run the exact blob path of the process executor,
    so results are bit-identical to every other executor.
    """

    name = "threads"
    pool_factory = ThreadPoolExecutor


def make_executor(
    executor: Optional[str],
    workers: Optional[int],
    *,
    rpc_workers: Optional[Sequence[str]] = None,
):
    """Resolve an executor name + worker count to an executor instance.

    ``None`` picks the natural default: ``rpc`` when worker addresses
    were given, ``process`` when more than one worker was requested,
    ``serial`` otherwise.
    """
    workers = 1 if workers is None else workers
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if executor is None:
        if rpc_workers:
            executor = "rpc"
        else:
            executor = "process" if workers > 1 else "serial"
    if executor not in EXECUTORS:
        raise ValueError(f"unknown executor {executor!r}; one of {EXECUTORS}")
    if executor == "rpc":
        from repro.core.rpc import RpcExecutor

        if not rpc_workers:
            raise ValueError(
                "executor 'rpc' needs worker addresses "
                "(rpc_workers=[...] / --workers host:port,...)"
            )
        return RpcExecutor(rpc_workers)
    if executor == "process":
        return ProcessExecutor(workers)
    if executor == "threads":
        return ThreadsExecutor(workers)
    return SerialExecutor()


# ---------------------------------------------------------------------------
# the orchestrator
# ---------------------------------------------------------------------------


class BuildPipeline:
    """Partition → per-partition cover → cross-link join, end to end.

    The one place the full offline build flow lives;
    :meth:`repro.core.hopi.HopiIndex.build` is a thin wrapper around
    it. All knobs of the facade are accepted here with the same
    semantics, plus the executor selection:

    Args:
        collection: the XML collection to index.
        strategy: ``"unpartitioned"``, ``"incremental"`` or
            ``"recursive"`` (see :mod:`repro.core.hopi`).
        partitioner: ``"node_weight"``/``"node-weight"``,
            ``"closure"``/``"closure-size"`` or ``"single"``.
        partition_limit: max elements (node-weight) or closure
            connections (closure) per partition; defaults derived from
            the collection when omitted.
        edge_weight: ``"links"``, ``"AxD"`` or ``"A+D"``.
        distance: build a distance-aware cover (Section 5).
        preselect_centers: force cross-partition link targets as
            centers first (Section 4.2).
        psg_node_limit: threshold for the recursive PSG closure.
        seed: partitioner seed.
        backend: accepted and ignored — there is one label
            representation; ``perf/`` still passes the argument and may
            not be edited in the PR that retired the option.
        workers: worker count for the pool executors; ``None``/1 means
            serial.
        executor: ``"serial"``, ``"process"``, ``"threads"`` or
            ``"rpc"``; default derived from ``workers`` /
            ``rpc_workers``.
        rpc_workers: ``host:port`` addresses of ``repro build-worker``
            daemons (required for — and implying — the rpc executor).
        join_shards: shard count for the recursive join's parallel
            distribution step; default = the executor's worker count,
            ``1`` forces the serial join. Covers are identical for
            every value.
    """

    def __init__(
        self,
        collection: Collection,
        *,
        strategy: str = "recursive",
        partitioner: str = "closure",
        partition_limit: Optional[int] = None,
        edge_weight: str = "links",
        distance: bool = False,
        preselect_centers: bool = True,
        psg_node_limit: Optional[int] = None,
        seed: int = 0,
        backend: Optional[str] = None,
        workers: Optional[int] = None,
        executor: Optional[str] = None,
        rpc_workers: Optional[Sequence[str]] = None,
        join_shards: Optional[int] = None,
    ) -> None:
        if strategy not in _STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r}; one of {_STRATEGIES}")
        partitioner = normalize_partitioner(partitioner)
        if edge_weight not in _EDGE_WEIGHTS:
            raise ValueError(
                f"unknown edge weight {edge_weight!r}; one of {_EDGE_WEIGHTS}"
            )
        if join_shards is not None and join_shards < 1:
            raise ValueError("join_shards must be >= 1")
        self.collection = collection
        self.strategy = strategy
        self.partitioner = partitioner
        self.partition_limit = partition_limit
        self.edge_weight = edge_weight
        self.distance = distance
        self.preselect_centers = preselect_centers
        self.psg_node_limit = psg_node_limit
        self.seed = seed
        self.executor = make_executor(executor, workers, rpc_workers=rpc_workers)
        self.workers = getattr(self.executor, "workers", 1)
        self.join_shards = (
            join_shards if join_shards is not None else self.workers
        )

    # -- phase 1 --------------------------------------------------------
    @property
    def effective_partition_limit(self) -> Optional[int]:
        """The limit phase 1 partitions with: the explicit
        ``partition_limit`` when given, else the partitioner's default
        derived from the collection (``None``: ``single`` has none)."""
        if self.partition_limit or self.partitioner == "single":
            return self.partition_limit
        elements = self.collection.num_elements
        if self.partitioner == "node_weight":
            return max(elements // 8, 1)
        return max(elements * 20, 1000)

    def partition(self) -> Partitioning:
        """Split the document-level graph (always in the parent)."""
        collection = self.collection
        weight_fn = None
        if self.edge_weight in ("AxD", "A+D") and collection.inter_links:
            weight_fn = connection_edge_weight(collection, mode=self.edge_weight)
        if self.partitioner == "single":
            return single_document_partitioning(collection)
        limit = self.effective_partition_limit
        if self.partitioner == "node_weight":
            return partition_by_node_weight(
                collection, limit, edge_weight=weight_fn, seed=self.seed
            )
        return partition_by_closure_size(
            collection, limit, edge_weight=weight_fn, seed=self.seed
        )

    # -- phase 2 --------------------------------------------------------
    def partition_tasks(self, partitioning: Partitioning) -> List[PartitionTask]:
        """Extract each partition's element graph into a compact task."""
        collection = self.collection
        cross_targets: Dict[int, List[ElementId]] = {}
        if self.preselect_centers:
            for _, v in partitioning.cross_links:
                pid = partitioning.part_of[collection.doc(v)]
                cross_targets.setdefault(pid, []).append(v)
        # inter-document links inside a partition, grouped in one scan
        inner_links: List[List[Tuple[ElementId, ElementId]]] = [
            [] for _ in partitioning.partitions
        ]
        for u, v in collection.inter_links:
            pid = partitioning.part_of[collection.doc(u)]
            if pid == partitioning.part_of[collection.doc(v)]:
                inner_links[pid].append((u, v))
        tasks = []
        for pid, docs in enumerate(partitioning.partitions):
            # The cover builder breaks ties by node and edge order, so
            # this reproduces the order of
            # ``collection.subcollection(docs).element_graph()``: documents
            # in ``set(docs)`` order, successors in insertion order of
            # tree edges, then intra-links, then the set of inner links.
            documents = [collection.documents[d] for d in set(docs)]
            nodes = tuple([e for doc in documents for e in doc.elements])
            successors: Dict[ElementId, Set[ElementId]] = {}
            for doc in documents:
                for parent, kids in doc.children.items():
                    if kids:
                        successors[parent] = set(kids)
                for u, v in doc.intra_links:
                    successors.setdefault(u, set()).add(v)
            for u, v in set(inner_links[pid]):
                successors.setdefault(u, set()).add(v)
            tasks.append(
                PartitionTask(
                    pid=pid,
                    nodes=nodes,
                    edges=tuple(
                        [(u, v) for u in nodes for v in successors.get(u, ())]
                    ),
                    preselected=tuple(sorted(cross_targets.get(pid, []))),
                    distance=self.distance,
                )
            )
        return tasks

    def build_partition_covers(
        self, tasks: Sequence[PartitionTask]
    ) -> List[PartitionResult]:
        """Run phase 2 through the configured executor."""
        return self.executor.run(tasks)

    # -- phase 3 --------------------------------------------------------
    def join(self, partitioning: Partitioning, partition_covers: Sequence) -> object:
        """Merge the partition covers along the cross-partition links."""
        cover, _ = self._join_with_stats(partitioning, partition_covers)
        return cover

    def _join_with_stats(
        self,
        partitioning: Partitioning,
        partition_covers: Sequence,
        partition_blobs: Optional[Dict[int, bytes]] = None,
    ) -> Tuple[object, Optional[ParallelJoinStats]]:
        """Phase 3 plus its per-phase accounting.

        The incremental and distance joins are inherently sequential
        (every link insertion reads the cover the previous one wrote),
        so only the recursive strategy's distribution step shards; for
        it, ``join_shards == 1`` is the plain serial join.
        """
        if self.distance:
            # Section 5 notes the build algorithms carry over; the
            # recursive join's H̄ has no distance analogue in the paper,
            # so distance builds use the incremental join to a fixpoint.
            return (
                join_covers_incremental_distance(
                    partition_covers, partitioning.cross_links
                ),
                None,
            )
        if self.strategy == "incremental":
            return (
                join_covers_incremental(
                    partition_covers, partitioning.cross_links
                ),
                None,
            )
        if self.join_shards > 1:
            return join_covers_recursive_parallel(
                self.collection,
                partitioning,
                partition_covers,
                executor=self.executor,
                join_shards=self.join_shards,
                psg_node_limit=self.psg_node_limit,
                partition_blobs=partition_blobs,
            )
        return (
            join_covers_recursive(
                self.collection,
                partitioning,
                partition_covers,
                psg_node_limit=self.psg_node_limit,
            ),
            None,
        )

    # -- the whole flow -------------------------------------------------
    def run(self):
        """Execute all phases; returns ``(cover, BuildStats)``."""
        from repro.core.hopi import BuildStats
        from repro.core.cover_builder import build_cover
        from repro.core.distance import build_distance_cover

        start = time.perf_counter()
        if self.strategy == "unpartitioned":
            graph = self.collection.element_graph()
            if self.distance:
                cover = build_distance_cover(graph)
            else:
                cover = build_cover(graph)
            stats = BuildStats(
                strategy=self.strategy,
                partitioner=None,
                partition_limit=None,
                edge_weight=self.edge_weight,
                distance=self.distance,
                num_partitions=1,
                num_cross_links=0,
                cover_size=cover.size,
                num_nodes=len(cover.nodes),
                seconds_total=time.perf_counter() - start,
                workers=1,
                executor="serial",
            )
            return cover, stats

        t0 = time.perf_counter()
        partitioning = self.partition()
        tasks = self.partition_tasks(partitioning)
        seconds_partitioning = time.perf_counter() - t0

        t0 = time.perf_counter()
        results = self.build_partition_covers(tasks)
        seconds_partition_covers = time.perf_counter() - t0

        t0 = time.perf_counter()
        cover, join_stats = self._join_with_stats(
            partitioning,
            [r.cover for r in results],
            {r.pid: r.wire for r in results if r.wire is not None},
        )
        seconds_join = time.perf_counter() - t0

        stats = BuildStats(
            strategy=self.strategy,
            partitioner=self.partitioner,
            partition_limit=self.effective_partition_limit,
            edge_weight=self.edge_weight,
            distance=self.distance,
            num_partitions=partitioning.num_partitions,
            num_cross_links=len(partitioning.cross_links),
            cover_size=cover.size,
            num_nodes=len(cover.nodes),
            seconds_total=time.perf_counter() - start,
            workers=self.workers,
            executor=self.executor.name,
            seconds_partitioning=seconds_partitioning,
            seconds_partition_covers=seconds_partition_covers,
            seconds_join=seconds_join,
            partition_cover_seconds=[r.seconds for r in results],
        )
        if join_stats is not None:
            stats.join_shards = join_stats.shards
            stats.seconds_join_union = join_stats.seconds_union
            stats.seconds_join_psg = join_stats.seconds_psg
            stats.seconds_join_distribute = join_stats.seconds_distribute
            stats.join_shard_seconds = list(join_stats.shard_seconds)
        return cover, stats
