"""The HOPI index facade.

:class:`HopiIndex` ties the whole pipeline together: build a 2-hop cover
of the element graph, and answer reachability / distance / ancestor /
descendant queries, with incremental maintenance keeping the index in
sync with collection updates.

Build strategies (``HopiIndex.build``):

========================  =====================================================
``strategy``              meaning
========================  =====================================================
``"pll"`` (default)       one pruned-landmark-labelling pass over the whole
                          element graph (Akiba et al., SIGMOD 2013) — an
                          extension of the paper, and the product path
``"unpartitioned"``       one global greedy cover (Section 7.2's 45h/80GB
                          baseline — best compression, worst build cost)
``"incremental"``         divide-and-conquer with the *original* link-at-a-time
                          cover join (Section 3.3; Table 2's "baseline" row)
``"recursive"``           divide-and-conquer with the *new* structurally
                          recursive PSG join (Section 4.1; the paper's
                          contribution, Table 2's P/N rows)
========================  =====================================================

The other three are the paper's reproduction; the partition options
below apply to ``"incremental"`` and ``"recursive"`` only.

Partitioners (``partitioner``): ``"node_weight"`` (original, Section 3.3
— Table 2's ``Px`` rows with ``partition_limit`` = max elements),
``"closure"`` (new, Section 4.3 — ``Nx`` rows with ``partition_limit`` =
max closure connections), ``"single"`` (one document per partition —
Table 2's "single" row).

Edge weights (``edge_weight``): ``"links"`` (original link counts),
``"AxD"`` / ``"A+D"`` (Section 4.3's connection-based weights estimated
on the skeleton graph).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Set, Union

from repro.core import maintenance as maint
from repro.core.cover import DistanceTwoHopCover, TwoHopCover
from repro.core.stats import IndexSizeReport
from repro.graph.closure import distance_closure, transitive_closure
from repro.xmlmodel.model import Collection, DocId, ElementId

Cover = Union[TwoHopCover, DistanceTwoHopCover]


@dataclass
class BuildStats:
    """Timing and size accounting of one index build (Table 2 columns)."""

    strategy: str
    partitioner: Optional[str]
    partition_limit: Optional[int]
    edge_weight: str
    distance: bool
    num_partitions: int
    num_cross_links: int
    cover_size: int
    num_nodes: int
    seconds_total: float
    seconds_partitioning: float = 0.0
    seconds_partition_covers: float = 0.0
    seconds_join: float = 0.0
    partition_cover_seconds: List[float] = field(default_factory=list)

    @property
    def parallel_makespan(self) -> float:
        """Simulated perfectly-parallel partition-cover phase: the paper
        notes all partition covers "can be done concurrently", so the
        phase's wall-clock lower bound is the slowest partition."""
        longest = max(self.partition_cover_seconds, default=0.0)
        return self.seconds_partitioning + longest + self.seconds_join


class HopiIndex:
    """A built HOPI index over an XML collection."""

    def __init__(
        self,
        collection: Collection,
        cover: Cover,
        *,
        stats: Optional[BuildStats] = None,
    ) -> None:
        self.collection = collection
        self.cover = cover
        self.stats = stats
        #: monotone change counter: bumped once per completed maintenance
        #: operation (and per rebuild). The service layer keys caches by
        #: it and uses it as the published version of a hot-swapped index.
        self.epoch = 0

    def copy(self) -> "HopiIndex":
        """A structurally independent copy (shadow) of the index.

        Collection and cover are deep-copied; maintenance on the copy
        never touches the original. The service forks with
        :meth:`cow_copy` instead; this is the reference the copy-on-write
        tests compare it against. The copy starts with the same epoch.
        """
        dup = HopiIndex(self.collection.copy(), self.cover.copy(), stats=self.stats)
        dup.epoch = self.epoch
        return dup

    def cow_copy(self) -> "HopiIndex":
        """A copy-on-write shadow of the index.

        Observationally identical to :meth:`copy` but O(nodes) instead
        of O(index): the collection is forked lazily (documents are
        deep-copied only when a maintenance op touches them) and the
        cover shares unchanged label rows with the published epoch
        (``cover.cow_copy()``). Both sides
        stay safe to mutate — the first write to shared state on either
        side privatises it first. Like :meth:`copy`, the shadow starts
        with the same epoch.
        """
        dup = HopiIndex(
            self.collection.fork(), self.cover.cow_copy(), stats=self.stats
        )
        dup.epoch = self.epoch
        return dup

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
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
        workers: Optional[int] = None,
    ) -> "HopiIndex":
        """Build a HOPI index.

        A thin wrapper over :class:`repro.core.pipeline.BuildPipeline`,
        which owns the partition → per-partition cover → join flow. The
        paper strategies cover each partition with the greedy builder,
        from the element graph of the partition's subcollection; every
        strategy writes the same cover in every process.

        Args:
            collection: the XML collection to index.
            strategy: ``"pll"`` (the default), ``"unpartitioned"``,
                ``"incremental"`` or ``"recursive"`` (see module
                docstring). The partition options below apply to the
                last two only.
            partitioner: ``"node_weight"``, ``"closure"`` or ``"single"``.
            partition_limit: max elements per partition
                (``node_weight``) or max closure connections
                (``closure``), at least 1; sensible defaults are derived
                from the collection when omitted.
            edge_weight: ``"links"``, ``"AxD"`` or ``"A+D"``.
            distance: build a distance-aware cover (Section 5).
            preselect_centers: apply Section 4.2's center preselection
                (cross-partition link targets become centers first).
            seed: partitioner seed.
            backend: accepted and ignored — there is one label
                representation; ``perf/`` still passes the argument and
                may not be edited in the PR that retired the option.
            workers: accepted and ignored — partition covers are built
                one after another; the benchmark under ``perf/`` still
                passes the argument.
        """
        from repro.core.pipeline import BuildPipeline

        pipeline = BuildPipeline(
            collection,
            strategy=strategy,
            partitioner=partitioner,
            partition_limit=partition_limit,
            edge_weight=edge_weight,
            distance=distance,
            preselect_centers=preselect_centers,
            seed=seed,
        )
        cover, stats = pipeline.run()
        return cls(collection, cover, stats=stats)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def is_distance_aware(self) -> bool:
        """Whether the cover stores distances (Section 5 flavour)."""
        return self.cover.is_distance_aware

    def connected(self, u: ElementId, v: ElementId) -> bool:
        """Reachability test ``u ->* v`` along ancestor/descendant/link axes."""
        return self.cover.connected(u, v)

    def connected_many(self, u: ElementId, candidates) -> List[bool]:
        """Batched ``[connected(u, c) for c in candidates]``: the flag
        view of a one-source :meth:`intersect_many` block (the query
        engine only sends blocks)."""
        return self.cover.connected_many(u, candidates)

    def intersect_many(self, sources, candidates) -> List[List[int]]:
        """For each source, the sorted indices into ``candidates`` it
        reaches: Section 3.4's ``LOUT ⋈ LIN`` join. The cover groups
        the candidates by the centers of their ``Lin`` rows once for the
        whole block, on every call, and answers each source with one
        lookup per entry of ``{u} ∪ Lout(u)``. The query engine runs the
        same join but keeps each step's grouping for its epoch (and the
        next, while the candidates' ``Lin`` rows are unchanged)."""
        return self.cover.intersect_many(sources, candidates)

    def distance(self, u: ElementId, v: ElementId) -> Optional[int]:
        """Shortest link distance, or None when unreachable.

        Requires a distance-aware index (Section 5).
        """
        if not self.is_distance_aware:
            raise TypeError(
                "distance() requires an index built with distance=True"
            )
        return self.cover.distance(u, v)

    def descendants(self, u: ElementId) -> Set[ElementId]:
        """All elements reachable from ``u`` (including ``u``)."""
        return self.cover.descendants(u)

    def ancestors(self, v: ElementId) -> Set[ElementId]:
        """All elements that reach ``v`` (including ``v``)."""
        return self.cover.ancestors(v)

    def size_report(self, *, with_closure: bool = False) -> IndexSizeReport:
        """Size accounting; optionally materialises the closure for the
        compression column (expensive — Table 2 style runs only)."""
        closure_connections = None
        if with_closure:
            closure_connections = transitive_closure(
                self.collection.element_graph()
            ).num_connections
        return IndexSizeReport(
            num_nodes=len(self.cover.nodes),
            cover_size=self.cover.size,
            closure_connections=closure_connections,
        )

    # ------------------------------------------------------------------
    # maintenance passthroughs (Section 6): each bumps the epoch once
    # the operation returns, never when it raises
    # ------------------------------------------------------------------
    def insert_element(self, parent: ElementId, tag: str) -> ElementId:
        """Insert a child element under ``parent`` (Section 6.1)."""
        eid = maint.insert_element(self.collection, self.cover, parent, tag)
        self.epoch += 1
        return eid

    def insert_edge(self, u: ElementId, v: ElementId) -> maint.MaintenanceReport:
        """Insert the edge/link ``u -> v`` and repair the cover."""
        report = maint.insert_edge(self.collection, self.cover, u, v)
        self.epoch += 1
        return report

    def insert_document(self, doc_id: DocId) -> maint.MaintenanceReport:
        """Integrate a document added to the collection (Section 6.1)."""
        report = maint.insert_document(self.collection, self.cover, doc_id)
        self.epoch += 1
        return report

    def delete_document(
        self, doc_id: DocId, *, force_general: bool = False
    ) -> maint.MaintenanceReport:
        """Delete a document via the Theorem-2/3 paths (Section 6.2)."""
        report = maint.delete_document(
            self.collection, self.cover, doc_id, force_general=force_general
        )
        self.epoch += 1
        return report

    def delete_edge(self, u: ElementId, v: ElementId) -> maint.MaintenanceReport:
        """Delete the edge/link ``u -> v`` and repair the cover."""
        report = maint.delete_edge(self.collection, self.cover, u, v)
        self.epoch += 1
        return report

    def document_separates(self, doc_id: DocId) -> bool:
        """Theorem-2 test: does the document's deletion stay local?"""
        return maint.document_separates(self.collection, doc_id)

    def rebuild(self) -> "HopiIndex":
        """Rebuild the cover from scratch, in place.

        Section 6: "over time, the space efficiency of the 2-hop cover
        that HOPI maintains may degrade. Then occasional rebuilds of the
        index may be considered, using the efficient algorithm presented
        in Section 4." The rebuild is the product build (:meth:`build`'s
        defaults) with the index's distance flag; it takes no options,
        so a logged ``rebuild`` op replays to the same cover.

        Returns:
            self, with a fresh cover and fresh build stats.
        """
        fresh = HopiIndex.build(
            self.collection, distance=self.is_distance_aware
        )
        self.cover = fresh.cover
        self.stats = fresh.stats
        self.epoch += 1
        return self

    # ------------------------------------------------------------------
    # verification
    # ------------------------------------------------------------------
    def verify(self) -> None:
        """Check the cover against a freshly computed closure oracle.

        Raises AssertionError with a counterexample on any mismatch.
        Quadratic — meant for tests and post-maintenance audits, not for
        production paths.
        """
        graph = self.collection.element_graph()
        if self.is_distance_aware:
            self.cover.verify_against(distance_closure(graph))
        else:
            self.cover.verify_against(transitive_closure(graph))

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        kind = "distance" if self.is_distance_aware else "reachability"
        return (
            f"HopiIndex({kind}, nodes={len(self.cover.nodes)}, "
            f"size={self.cover.size})"
        )
