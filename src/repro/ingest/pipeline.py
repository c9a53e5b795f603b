"""The ingestion pipeline: stream -> batch -> group-commit -> checkpoint.

:class:`IngestPipeline` pulls :class:`~repro.ingest.sources.DocRecord`
items off a source, turns each into one self-contained
``insert_document`` wire op (the document's links ride in the same op,
so a document is either fully published or not at all), batches ops
and pushes each batch through
:meth:`~repro.service.service.QueryService.update` — the group-commit
COW write path, WAL-logged when the service has a durable store. After
every acknowledged batch the frontier checkpoint advances (see
:mod:`repro.ingest.frontier` for the crash-window analysis).

Inter-document links always target a *previously published*
document's root. The pipeline enforces the "previously published" part
by flushing the open batch early whenever a new document references a
document still sitting in it — stream order (sources only cite
backwards) then guarantees the target is resolvable from the served
collection. Dangling targets (a directory walk's forward references)
are dropped and counted, like
:func:`~repro.xmlmodel.parser.load_collection` ignores unresolvable
hrefs.

Freshness lag is measured per document: the clock starts when the
record leaves the source (discovery) and stops when its batch's new
epoch is acknowledged (publish). The p50/p99 of those lags are the
serving tier's ingestion-freshness figure in the ``/v1/metrics`` gauge.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.ingest.frontier import FrontierCheckpoint
from repro.ingest.sources import DocRecord, Source


def _percentile(sorted_values: List[float], fraction: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(
        len(sorted_values) - 1,
        max(0, int(round(fraction * (len(sorted_values) - 1)))),
    )
    return sorted_values[index]


@dataclass
class IngestSummary:
    """What one :meth:`IngestPipeline.run` call accomplished."""

    source: str
    seed: int
    docs: int = 0
    elements: int = 0
    skipped: int = 0
    batches: int = 0
    links: int = 0
    dropped_links: int = 0
    seconds: float = 0.0
    docs_per_second: float = 0.0
    freshness_p50_ms: float = 0.0
    freshness_p99_ms: float = 0.0
    epoch: int = 0
    cursor: int = 0
    resumed_from: int = 0
    freshness_lags: List[float] = field(default_factory=list, repr=False)

    def as_record(self) -> Dict[str, Any]:
        record = asdict(self)
        record.pop("freshness_lags")
        return record


class IngestPipeline:
    """Stream one source into a serving ``QueryService``.

    Args:
        service: the target — anything with the ``update(ops)`` /
            ``index`` surface (:class:`~repro.service.service.
            QueryService`; give it a ``durable_store`` to make the
            ingest crash-resumable). When the service exposes
            ``record_ingest``, per-batch freshness samples are pushed
            to it so ``/v1/metrics`` can report the gauge.
        source: the document stream.
        batch_docs: documents per ``update`` batch (the group-commit
            knob: bigger batches amortise publishes, smaller ones cut
            freshness lag).
        store_dir: directory of the durable store; when set, the
            frontier checkpoint is written here after every
            acknowledged batch.
        cursor: stream position to start at (a resume passes the
            recovered frontier's cursor).
    """

    def __init__(
        self,
        service: Any,
        source: Source,
        *,
        batch_docs: int = 8,
        store_dir: Optional[str] = None,
        cursor: int = 0,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        if batch_docs < 1:
            raise ValueError(f"batch_docs must be >= 1, got {batch_docs}")
        self.service = service
        self.source = source
        self.batch_docs = batch_docs
        self.store_dir = store_dir
        self.cursor = cursor
        self._clock = clock

    # -- op assembly ----------------------------------------------------
    def _build_op(
        self, doc: DocRecord, summary: IngestSummary
    ) -> Dict[str, Any]:
        collection = self.service.index.collection
        links: List[List[Any]] = []
        for source_ref, target_ref in doc.local_links:
            links.append([source_ref, target_ref])
            summary.links += 1
        for source_ref, target_doc in doc.doc_links:
            target = collection.documents.get(target_doc)
            if target is None:
                summary.dropped_links += 1
                continue
            links.append([source_ref, target.root])
            summary.links += 1
        return {
            "op": "insert_document",
            "doc_id": doc.doc_id,
            "root_tag": doc.root_tag,
            "children": doc.children,
            "links": links,
        }

    # -- the run loop ---------------------------------------------------
    def run(self, *, max_docs: Optional[int] = None) -> IngestSummary:
        """Ingest until the source is exhausted (or ``max_docs``).

        Returns the summary; raises if an update batch is rejected
        (the op vocabulary is all-or-nothing, so a raise means the
        failed batch published nothing and the frontier still points
        at it).
        """
        summary = IngestSummary(
            source=self.source.spec,
            seed=getattr(self.source, "seed", 0),
            epoch=getattr(self.service, "epoch", 0),
            cursor=self.cursor,
            resumed_from=self.cursor,
        )
        existing = set(self.service.index.collection.documents)
        batch_docs: List[DocRecord] = []
        batch_ids: set = set()
        batch_ops: List[Dict[str, Any]] = []
        batch_discovered: List[float] = []
        lags: List[float] = []
        position = self.cursor
        t_run = self._clock()

        def flush() -> None:
            nonlocal batch_docs, batch_ids, batch_ops, batch_discovered
            if not batch_ops:
                return
            report = self.service.update(batch_ops)
            t_ack = self._clock()
            batch_lags = [t_ack - t for t in batch_discovered]
            lags.extend(batch_lags)
            summary.docs += len(batch_ops)
            summary.elements += sum(d.num_elements for d in batch_docs)
            summary.batches += 1
            summary.epoch = report["epoch"]
            summary.cursor = position
            recorder = getattr(self.service, "record_ingest", None)
            if recorder is not None:
                recorder(len(batch_ops), batch_lags)
            if self.store_dir is not None:
                FrontierCheckpoint(
                    source=self.source.spec,
                    seed=getattr(self.source, "seed", 0),
                    cursor=position,
                    epoch=summary.epoch,
                    docs=summary.docs + summary.skipped,
                    total=self.source.total,
                ).save(self.store_dir)
            batch_docs, batch_ids = [], set()
            batch_ops, batch_discovered = [], []

        for doc in self.source.stream(self.cursor):
            if max_docs is not None and summary.docs + len(batch_ops) >= max_docs:
                break
            if doc.doc_id in existing:
                # the WAL was ahead of the frontier when we crashed —
                # this document already published; skipping is exact
                # because its links rode in the same op
                position += 1
                summary.skipped += 1
                summary.cursor = position
                continue
            if any(target in batch_ids for _, target in doc.doc_links):
                flush()  # the link target must be published first
            t_disc = self._clock()
            op = self._build_op(doc, summary)
            batch_docs.append(doc)
            batch_ids.add(doc.doc_id)
            batch_ops.append(op)
            batch_discovered.append(t_disc)
            existing.add(doc.doc_id)
            position += 1
            if len(batch_ops) >= self.batch_docs:
                flush()
        flush()

        summary.seconds = self._clock() - t_run
        summary.docs_per_second = (
            summary.docs / summary.seconds if summary.seconds > 0 else 0.0
        )
        lags.sort()
        summary.freshness_lags = lags
        summary.freshness_p50_ms = _percentile(lags, 0.50) * 1e3
        summary.freshness_p99_ms = _percentile(lags, 0.99) * 1e3
        return summary
