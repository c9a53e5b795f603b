"""Streaming graph ingestion: frontier -> parser -> graph-writer.

The crawl-style pipeline that feeds the serving tier documents and
links *as they are discovered*, instead of starting every scenario
from a fully materialised DBLP/INEX collection. Documents stream from
a :mod:`~repro.ingest.sources` source (a directory walker over XML
files, or the synthetic scale-free / deep-tree / ontology-mix
generators), are batched into ``insert_document`` wire ops, and ride
:meth:`~repro.service.service.QueryService.update`'s group-commit
through the COW fork + durable-WAL write path — which is what makes
ingestion crash-resumable: the :mod:`~repro.ingest.frontier`
checkpoint records how far the stream got, and a restart with
``--resume`` replays the WAL, reloads the checkpoint and continues
from the first unacknowledged document.
"""

from repro.ingest.frontier import FrontierCheckpoint
from repro.ingest.pipeline import IngestPipeline, IngestSummary
from repro.ingest.sources import (
    DirectorySource,
    DocRecord,
    DeepTreeSource,
    OntologyMixSource,
    ScaleFreeSource,
    make_source,
)

__all__ = [
    "DeepTreeSource",
    "DirectorySource",
    "DocRecord",
    "FrontierCheckpoint",
    "IngestPipeline",
    "IngestSummary",
    "OntologyMixSource",
    "ScaleFreeSource",
    "make_source",
]
