"""The build pipeline: the product's whole-graph labelling and the
paper's divide-and-conquer build (Sections 4 and 5).

The product default, ``strategy="pll"``, is an extension of the paper:
the collection is one partition with no cross links, its element graph
is read straight from the documents and labelled by pruned landmark
labelling (:func:`repro.core.cover_builder.build_collection_pll_cover`),
and the join hands that lone cover back as is. ``"unpartitioned"`` is
the same one partition, covered by the greedy builder. The partitioner,
partition limit, edge weight and center preselection apply to the paper
strategies (``"incremental"``, ``"recursive"``) only.

The paper's central scalability argument is that 2-hop cover
construction splits along partition boundaries: partition the document
collection, build every partition's cover *independently* (which bounds
the memory of each build by its partition's closure), then connect the
partial covers along the cross-partition links. :class:`BuildPipeline`
is that flow as an explicit three-phase orchestrator:

1. **partition** — the document-level graph is split by one of the
   partitioners in :mod:`repro.core.partitioning`;
2. **partition covers** — each partition is a :class:`PartitionTask`
   (its documents and preselected centers) and is covered, one after
   another, from its subcollection's element graph by the greedy
   builder (:func:`repro.core.cover_builder.build_cover` or
   :func:`repro.core.distance.build_distance_cover`);
3. **join** — the partition covers are merged with the strategy's join
   (:mod:`repro.core.join`).

Most callers reach this module through the facade::

    index = HopiIndex.build(collection)                 # PLL
    index = HopiIndex.build(collection, strategy="recursive")

``repro build docs/ -o index.db`` runs the default; the paper's
strategies are library arguments (``python -m repro.bench`` prints
their tables).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core.cover_builder import build_collection_pll_cover, build_cover
from repro.core.distance import build_distance_cover
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
from repro.xmlmodel.model import Collection, DocId, ElementId

_STRATEGIES = ("pll", "unpartitioned", "incremental", "recursive")
#: strategies that cover the whole collection as one partition
_WHOLE_GRAPH = ("pll", "unpartitioned")
_PARTITIONERS = ("node_weight", "closure", "single")
_EDGE_WEIGHTS = ("links", "AxD", "A+D")

# ---------------------------------------------------------------------------
# one partition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PartitionTask:
    """One partition's cover build: its documents and the centers to
    preselect (Section 4.2)."""

    docs: Tuple[DocId, ...]
    preselected: Tuple[ElementId, ...]


@dataclass
class PartitionResult:
    """A built partition cover plus its build time."""

    cover: object
    seconds: float
    #: the cover's label entries, when the builder counted them (PLL)
    entries: Optional[int] = None


# ---------------------------------------------------------------------------
# the orchestrator
# ---------------------------------------------------------------------------


class BuildPipeline:
    """Partition → per-partition cover → cross-link join, end to end.

    Every strategy takes the same three phases; the whole-graph ones
    (``"pll"``, ``"unpartitioned"``) have one partition and nothing to
    join.

    The one place the full offline build flow lives;
    :meth:`repro.core.hopi.HopiIndex.build` is a thin wrapper around
    it. All knobs of the facade are accepted here with the same
    semantics:

    Args:
        collection: the XML collection to index.
        strategy: ``"pll"`` (the default), ``"unpartitioned"``,
            ``"incremental"`` or ``"recursive"`` (see
            :mod:`repro.core.hopi`).
        partitioner: ``"node_weight"``, ``"closure"`` or ``"single"``.
        partition_limit: max elements (node-weight) or closure
            connections (closure) per partition; defaults derived from
            the collection when omitted; must be >= 1.
        edge_weight: ``"links"``, ``"AxD"`` or ``"A+D"``.
        distance: build a distance-aware cover (Section 5).
        preselect_centers: force cross-partition link targets as
            centers first (Section 4.2).
        seed: partitioner seed.
        backend: accepted and ignored — there is one label
            representation; ``perf/`` still passes the argument and may
            not be edited in the PR that retired the option.

    ``partitioner``, ``partition_limit``, ``edge_weight`` and
    ``preselect_centers`` are validated always but used by the paper
    strategies only.
    """

    def __init__(
        self,
        collection: Collection,
        *,
        strategy: str = "pll",
        partitioner: str = "closure",
        partition_limit: Optional[int] = None,
        edge_weight: str = "links",
        distance: bool = False,
        preselect_centers: bool = True,
        seed: int = 0,
        backend: Optional[str] = None,
    ) -> None:
        if strategy not in _STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r}; one of {_STRATEGIES}")
        if partitioner not in _PARTITIONERS:
            raise ValueError(
                f"unknown partitioner {partitioner!r}; one of {_PARTITIONERS}"
            )
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
        self.seed = seed
        self.whole_graph = strategy in _WHOLE_GRAPH

    # -- phase 1 --------------------------------------------------------
    @property
    def effective_partition_limit(self) -> Optional[int]:
        """The limit phase 1 partitions with: the explicit
        ``partition_limit`` when given, else the partitioner's default
        derived from the collection (``None``: ``single`` and the
        whole-graph strategies have none)."""
        if self.whole_graph:
            return None
        if self.partition_limit is not None or self.partitioner == "single":
            return self.partition_limit
        elements = self.collection.num_elements
        if self.partitioner == "node_weight":
            return max(elements // 8, 1)
        return max(elements * 20, 1000)

    def partition(self) -> Partitioning:
        """Split the document-level graph; the whole-graph strategies
        get one partition, in collection order (so its graph is
        ``element_graph()``), and no cross links."""
        collection = self.collection
        if self.whole_graph:
            return Partitioning([list(collection.documents)])
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
        """Each partition's documents and preselected centers: the
        targets of the cross-partition links into it, sorted."""
        collection = self.collection
        targets: List[List[ElementId]] = [[] for _ in partitioning.partitions]
        if self.preselect_centers:
            for _, v in partitioning.cross_links:
                targets[partitioning.part_of[collection.doc(v)]].append(v)
        return [
            PartitionTask(tuple(docs), tuple(sorted(centers)))
            for docs, centers in zip(partitioning.partitions, targets)
        ]

    def build_partition_covers(
        self, tasks: Sequence[PartitionTask]
    ) -> List[PartitionResult]:
        """Build every task's cover, in task order: PLL over the whole
        collection, else the greedy builder over the partition's
        element graph."""
        build = build_distance_cover if self.distance else build_cover
        results = []
        for task in tasks:
            t0 = time.perf_counter()
            entries = None
            if self.strategy == "pll":
                cover, entries = build_collection_pll_cover(
                    self.collection, distance=self.distance
                )
            else:
                graph = self.collection.subcollection(task.docs).element_graph()
                cover = build(graph, preselected_centers=task.preselected)
            results.append(PartitionResult(cover, time.perf_counter() - t0, entries))
        return results

    # -- phase 3 --------------------------------------------------------
    def join(self, partitioning: Partitioning, partition_covers: Sequence) -> object:
        """Merge the partition covers along the cross-partition links (a
        whole-graph strategy's lone cover is returned as is)."""
        if self.whole_graph:
            (cover,) = partition_covers
            return cover
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
            self.collection, partitioning, partition_covers
        )

    # -- the whole flow -------------------------------------------------
    def run(self):
        """Execute all phases; returns ``(cover, BuildStats)``."""
        from repro.core.hopi import BuildStats

        start = time.perf_counter()
        partitioning = self.partition()
        tasks = self.partition_tasks(partitioning)
        seconds_partitioning = time.perf_counter() - start

        t0 = time.perf_counter()
        results = self.build_partition_covers(tasks)
        seconds_partition_covers = time.perf_counter() - t0

        t0 = time.perf_counter()
        cover = self.join(partitioning, [r.cover for r in results])
        seconds_join = time.perf_counter() - t0
        # PLL counted its entries; a joined cover is summed row by row
        cover_size = results[0].entries if self.strategy == "pll" else cover.size

        stats = BuildStats(
            strategy=self.strategy,
            partitioner=None if self.whole_graph else self.partitioner,
            partition_limit=self.effective_partition_limit,
            edge_weight=self.edge_weight,
            distance=self.distance,
            num_partitions=partitioning.num_partitions,
            num_cross_links=len(partitioning.cross_links),
            cover_size=cover_size,
            num_nodes=len(cover.nodes),
            seconds_total=time.perf_counter() - start,
            seconds_partitioning=seconds_partitioning,
            seconds_partition_covers=seconds_partition_covers,
            seconds_join=seconds_join,
            partition_cover_seconds=[r.seconds for r in results],
        )
        return cover, stats
