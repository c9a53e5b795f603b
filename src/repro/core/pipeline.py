"""The divide-and-conquer build pipeline (Sections 4 and 5).

The paper's central scalability argument is that 2-hop cover
construction splits along partition boundaries: partition the document
collection, build every partition's cover *independently* (which bounds
the memory of each build by its partition's closure), then connect the
partial covers along the cross-partition links. :class:`BuildPipeline`
is that flow as an explicit three-phase orchestrator:

1. **partition** — the document-level graph is split by one of the
   partitioners in :mod:`repro.core.partitioning` (always in the
   parent; it is cheap relative to covering);
2. **partition covers** — each partition's element graph becomes a
   compact :class:`PartitionTask` (node list + edge list + preselected
   centers). The ``serial`` executor runs the builds inline;
   ``process`` fans them out over ``multiprocessing`` workers, which
   return each cover as a CSR snapshot blob
   (:func:`repro.storage.snapshot.snapshot_to_bytes` — the on-disk
   snapshot encoding doubles as the wire format). The worker count
   alone picks the executor: more than one worker means ``process``;
3. **join** — the parent merges the partition covers with the
   strategy's join (:mod:`repro.core.join`).

Because the greedy cover construction consults only the partition
closure — never the executor — the final cover's label entries are
**bit-identical** for every worker count; ``tests/test_pipeline.py``
pins that property.

Most callers reach this module through the facade::

    index = HopiIndex.build(collection, workers=4)      # process pool
    index = HopiIndex.build(collection)                 # serial

or the CLI: ``repro build docs/ -o index.db --workers 4``.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.cover_builder import build_partition_cover
from repro.core.join import (
    join_covers_incremental,
    join_covers_incremental_distance,
    join_covers_recursive,
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
# the unit of work
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
    """A built partition cover plus its in-worker build time."""

    pid: int
    cover: object
    seconds: float


def _build_task(task: PartitionTask):
    """Build ``task``'s cover in the calling process."""
    return build_partition_cover(
        task.nodes,
        task.edges,
        preselected_centers=task.preselected,
        distance=task.distance,
    )


def _partition_cover_worker(task: PartitionTask) -> Tuple[int, bytes, float]:
    """Process-pool entry point: build one partition cover, return it
    as a CSR snapshot blob.

    Runs in a worker process. The cover is serialised with
    :func:`snapshot_to_bytes` — one contiguous buffer crosses the
    process boundary instead of a deep cover object graph — and the
    blob keeps the interner order, so the decoded cover is the one the
    serial executor builds.
    """
    from repro.storage.snapshot import snapshot_to_bytes

    t0 = time.perf_counter()
    cover = _build_task(task)
    return task.pid, snapshot_to_bytes(cover), time.perf_counter() - t0


# ---------------------------------------------------------------------------
# executors
# ---------------------------------------------------------------------------


class SerialExecutor:
    """Run every partition build inline, in the calling process.

    The default, and the baseline the process executor is measured
    against. No wire round-trip.
    """

    name = "serial"
    workers = 1

    def run(self, tasks) -> List[PartitionResult]:
        """Execute ``tasks`` in order; see :meth:`ProcessExecutor.run`."""
        results = []
        for task in tasks:
            t0 = time.perf_counter()
            cover = _build_task(task)
            results.append(
                PartitionResult(task.pid, cover, time.perf_counter() - t0)
            )
        return results


class ProcessExecutor:
    """Fan partition builds out over a ``multiprocessing`` pool.

    Workers return CSR snapshot blobs; the parent decodes them.
    Partition covers are independent (the paper: the builds "can be
    done concurrently"), so no coordination beyond the final collection
    of results is needed.
    """

    name = "process"

    def __init__(self, workers: int) -> None:
        self.workers = workers

    def run(self, tasks) -> List[PartitionResult]:
        """Execute ``tasks`` (one :class:`PartitionTask` per partition)
        concurrently; results come back in task order."""
        from repro.storage.snapshot import snapshot_from_bytes

        tasks = list(tasks)
        if not tasks:
            return []
        with ProcessPoolExecutor(max_workers=min(self.workers, len(tasks))) as pool:
            wires = list(pool.map(_partition_cover_worker, tasks))
        return [
            PartitionResult(pid, snapshot_from_bytes(blob), seconds)
            for pid, blob, seconds in wires
        ]


def make_executor(workers: Optional[int]):
    """The executor for a worker count: ``process`` when more than one
    worker is asked for, ``serial`` otherwise."""
    workers = 1 if workers is None else workers
    if workers < 1:
        raise ValueError("workers must be >= 1")
    return ProcessExecutor(workers) if workers > 1 else SerialExecutor()


# ---------------------------------------------------------------------------
# the orchestrator
# ---------------------------------------------------------------------------


class BuildPipeline:
    """Partition → per-partition cover → cross-link join, end to end.

    The one place the full offline build flow lives;
    :meth:`repro.core.hopi.HopiIndex.build` is a thin wrapper around
    it. All knobs of the facade are accepted here with the same
    semantics:

    Args:
        collection: the XML collection to index.
        strategy: ``"unpartitioned"``, ``"incremental"`` or
            ``"recursive"`` (see :mod:`repro.core.hopi`).
        partitioner: ``"node_weight"``/``"node-weight"``,
            ``"closure"``/``"closure-size"`` or ``"single"``.
        partition_limit: max elements (node-weight) or closure
            connections (closure) per partition; defaults derived from
            the collection when omitted; must be >= 1.
        edge_weight: ``"links"``, ``"AxD"`` or ``"A+D"``.
        distance: build a distance-aware cover (Section 5).
        preselect_centers: force cross-partition link targets as
            centers first (Section 4.2).
        psg_node_limit: threshold for the recursive PSG closure.
        seed: partitioner seed.
        backend: accepted and ignored — there is one label
            representation; ``perf/`` still passes the argument and may
            not be edited in the PR that retired the option.
        workers: size of the process pool covering partitions;
            ``None``/1 means serial.
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
    ) -> None:
        if strategy not in _STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r}; one of {_STRATEGIES}")
        partitioner = normalize_partitioner(partitioner)
        if edge_weight not in _EDGE_WEIGHTS:
            raise ValueError(
                f"unknown edge weight {edge_weight!r}; one of {_EDGE_WEIGHTS}"
            )
        if partition_limit is not None and partition_limit < 1:
            raise ValueError("partition_limit must be >= 1")
        self.collection = collection
        self.strategy = strategy
        self.partitioner = partitioner
        self.partition_limit = partition_limit
        self.edge_weight = edge_weight
        self.distance = distance
        self.preselect_centers = preselect_centers
        self.psg_node_limit = psg_node_limit
        self.seed = seed
        self.executor = make_executor(workers)

    # -- phase 1 --------------------------------------------------------
    @property
    def effective_partition_limit(self) -> Optional[int]:
        """The limit phase 1 partitions with: the explicit
        ``partition_limit`` when given, else the partitioner's default
        derived from the collection (``None``: ``single`` has none)."""
        if self.partition_limit is not None or self.partitioner == "single":
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
        if self.distance:
            # Section 5 notes the build algorithms carry over; the
            # recursive join's H̄ has no distance analogue in the paper,
            # so distance builds use the incremental join to a fixpoint.
            return join_covers_incremental_distance(
                partition_covers, partitioning.cross_links
            )
        if self.strategy == "incremental":
            return join_covers_incremental(
                partition_covers, partitioning.cross_links
            )
        return join_covers_recursive(
            self.collection,
            partitioning,
            partition_covers,
            psg_node_limit=self.psg_node_limit,
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
        cover = self.join(partitioning, [r.cover for r in results])
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
            workers=self.executor.workers,
            executor=self.executor.name,
            seconds_partitioning=seconds_partitioning,
            seconds_partition_covers=seconds_partition_covers,
            seconds_join=seconds_join,
            partition_cover_seconds=[r.seconds for r in results],
        )
        return cover, stats
