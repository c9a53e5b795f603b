"""Streaming ingestion: sources, frontier checkpoint, pipeline.

The contracts under test:

* sources are **restartable**: ``stream(cursor)`` equals the tail of
  ``stream(0)``, for the same spec + seed, across calls;
* the pipeline's streamed index answers **identically** to a
  batch-built index over the same final collection — and to the
  oracle's reading of it (the ingestion differential gate);
* resume **dedupes** documents that already published (the WAL-ahead-
  of-frontier crash window) and converges to the uninterrupted result;
* the frontier checkpoint round-trips atomically and refuses foreign
  formats;
* the service's ingestion-freshness gauge shows up in ``/v1/metrics``.
"""

import dataclasses
import json

import pytest

from cover_oracle import oracle_index
from repro.core.hopi import HopiIndex
from repro.ingest import (
    DirectorySource,
    FrontierCheckpoint,
    IngestPipeline,
    make_source,
)
from repro.query.engine import QueryEngine
from repro.service.api import ServiceAPI
from repro.service.service import QueryService
from repro.storage.snapshot import canonical_snapshot_bytes
from repro.storage.wal import DurableIndexStore
from repro.xmlmodel.model import Collection


def empty_service(**kwargs):
    return QueryService(
        HopiIndex.build(Collection()), **kwargs
    )


def records(source, cursor=0):
    return list(source.stream(cursor))


def collection_from_source(source):
    """Batch-materialise a source into a fresh ``Collection``.

    The reference half of the ingestion differential gate: streaming a
    source through the pipeline and batch-building over this collection
    must answer every query identically. Dangling inter-document links
    are dropped, exactly as the pipeline drops them.
    """
    collection = Collection()
    for record in source.stream(0):
        refs = {"root": collection.new_document(
            record.doc_id, record.root_tag
        ).eid}
        for child in record.children:
            refs[child["ref"]] = collection.add_child(
                refs[child["parent"]], child["tag"]
            ).eid
        for source_ref, target_ref in record.local_links:
            collection.add_link(refs[source_ref], refs[target_ref])
        for source_ref, target_doc in record.doc_links:
            target = collection.documents.get(target_doc)
            if target is not None:
                collection.add_link(refs[source_ref], target.root)
    return collection


# ---------------------------------------------------------------------------
# sources
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("spec", ["scale-free:12", "deep-tree:9", "ontology:10"])
def test_synthetic_sources_are_restartable(spec):
    full = records(make_source(spec, seed=42))
    again = records(make_source(spec, seed=42))
    assert full == again
    tail = records(make_source(spec, seed=42), cursor=5)
    assert tail == full[5:]


def test_seed_changes_the_stream():
    a = records(make_source("scale-free:12", seed=1))
    b = records(make_source("scale-free:12", seed=2))
    assert a != b


def test_children_are_topologically_ordered():
    for spec in ("scale-free:8", "deep-tree:6", "ontology:8"):
        for record in records(make_source(spec, seed=3)):
            seen = {"root"}
            for child in record.children:
                assert child["parent"] in seen
                seen.add(child["ref"])


def test_doc_links_only_target_earlier_documents():
    source = make_source("scale-free:20", seed=5)
    streamed = []
    for record in source.stream(0):
        for _, target in record.doc_links:
            assert target in streamed
        streamed.append(record.doc_id)


def test_make_source_rejects_bad_specs():
    with pytest.raises(ValueError, match="unknown source spec"):
        make_source("bogus:10")
    with pytest.raises(ValueError, match="document count"):
        make_source("scale-free:many")
    with pytest.raises(ValueError, match="needs a path"):
        make_source("dir:")


def test_directory_source_parses_links(tmp_path):
    (tmp_path / "a.xml").write_text(
        '<article><title id="t1">A</title>'
        '<cite href="#t1"/><cite href="zzz-not-yet"/></article>'
    )
    (tmp_path / "b.xml").write_text(
        '<article><cite href="a"/><cite href="a#t1"/></article>'
    )
    source = DirectorySource(tmp_path)
    a, b = records(source)
    assert a.doc_id == "a" and b.doc_id == "b"
    # href="#t1" resolves locally; the forward reference becomes a
    # doc link the pipeline will drop (its target never streams)
    assert a.local_links == [("c2", "c1")]
    assert a.doc_links == [("c3", "zzz-not-yet")]
    assert [target for _, target in b.doc_links] == ["a", "a"]
    assert source.total == 2
    # restartable: cursor skips whole files
    assert records(source, cursor=1) == [b]


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("spec", ["scale-free:16", "deep-tree:10", "ontology:12"])
def test_streamed_answers_match_batch_build(spec):
    service = empty_service()
    summary = IngestPipeline(
        service, make_source(spec, seed=9), batch_docs=4
    ).run()
    assert summary.docs == int(spec.split(":")[1])
    reference = collection_from_source(make_source(spec, seed=9))
    assert service.index.collection.num_documents == reference.num_documents
    assert service.index.collection.num_elements == reference.num_elements
    paths = ["//article//cite", "//book//note", "//entry//title", "//title"]
    batch_index = HopiIndex.build(reference)
    streamed = QueryEngine(service.index)
    # the batch-built cover, and the oracle's reading of its entries
    for how, index in (("cover", batch_index), ("oracle", oracle_index(batch_index))):
        batch = QueryEngine(index)
        for path in paths:
            assert (
                sorted(r.target for r in batch.evaluate(path))
                == sorted(r.target for r in streamed.evaluate(path))
            ), (spec, how, path)


def test_pipeline_drops_dangling_doc_links(tmp_path):
    (tmp_path / "a.xml").write_text('<article><cite href="missing"/></article>')
    service = empty_service()
    summary = IngestPipeline(service, DirectorySource(tmp_path)).run()
    assert summary.docs == 1
    assert summary.dropped_links == 1
    assert summary.links == 0


def test_pipeline_resume_dedupes_published_documents():
    source_args = ("scale-free:14",)
    straight = empty_service()
    IngestPipeline(
        straight, make_source(*source_args, seed=4), batch_docs=4
    ).run()
    reference = canonical_snapshot_bytes(straight.index.cover)

    service = empty_service()
    first = IngestPipeline(
        service, make_source(*source_args, seed=4), batch_docs=4
    ).run(max_docs=6)
    assert first.docs == 6
    # resume from cursor 0: everything already published must be
    # skipped, the rest ingested — exactly the WAL-ahead crash window
    second = IngestPipeline(
        service, make_source(*source_args, seed=4), batch_docs=4, cursor=0
    ).run()
    assert second.skipped == 6
    assert second.docs == 8
    assert canonical_snapshot_bytes(service.index.cover) == reference


def test_pipeline_batches_respect_max_docs_and_batch_size(tmp_path):
    # link-free documents: nothing forces an early flush, so batch
    # boundaries land exactly on batch_docs
    for i in range(20):
        (tmp_path / f"d{i:02d}.xml").write_text("<article><title>t</title></article>")
    service = empty_service()
    summary = IngestPipeline(
        service, DirectorySource(tmp_path), batch_docs=5
    ).run(max_docs=10)
    assert summary.docs == 10
    assert summary.batches == 2
    assert service.index.collection.num_documents == 10


def test_linked_sources_flush_before_intra_batch_doc_links():
    # a doc link into the open batch forces a flush, so linked sources
    # may produce more (never fewer) batches than ceil(docs/batch_docs)
    service = empty_service()
    summary = IngestPipeline(
        service, make_source("ontology:20", seed=6), batch_docs=5
    ).run(max_docs=10)
    assert summary.docs == 10
    assert summary.batches >= 2
    assert service.index.collection.num_documents == 10


def test_pipeline_records_freshness_lags():
    service = empty_service()
    summary = IngestPipeline(
        service, make_source("scale-free:10", seed=8), batch_docs=3
    ).run()
    assert len(summary.freshness_lags) == 10
    assert summary.freshness_p50_ms >= 0.0
    assert summary.freshness_p99_ms >= summary.freshness_p50_ms
    assert summary.docs == 10


def test_pipeline_writes_frontier_after_each_batch(tmp_path):
    store_dir = str(tmp_path / "store")
    store = DurableIndexStore(store_dir)
    index = HopiIndex.build(Collection())
    store.initialize(index)
    service = QueryService(index, durable_store=store)
    IngestPipeline(
        service, make_source("scale-free:9", seed=3),
        batch_docs=4, store_dir=store_dir,
    ).run()
    checkpoint = FrontierCheckpoint.load(store_dir)
    assert checkpoint is not None
    assert checkpoint.cursor == 9
    assert checkpoint.source == "scale-free:9"
    assert checkpoint.seed == 3
    assert checkpoint.epoch == service.epoch
    service.close()


# ---------------------------------------------------------------------------
# frontier checkpoint
# ---------------------------------------------------------------------------

def test_frontier_roundtrip(tmp_path):
    checkpoint = FrontierCheckpoint(
        source="scale-free:100", seed=7, cursor=42, epoch=17, docs=40,
        total=100,
    )
    checkpoint.save(str(tmp_path))
    loaded = FrontierCheckpoint.load(str(tmp_path))
    assert loaded == checkpoint


def test_frontier_load_missing_returns_none(tmp_path):
    assert FrontierCheckpoint.load(str(tmp_path)) is None


def test_frontier_rejects_unknown_version(tmp_path):
    path = FrontierCheckpoint.path_for(str(tmp_path))
    payload = dataclasses.asdict(
        FrontierCheckpoint(source="s", seed=0)
    )
    payload["version"] = 99
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="version"):
        FrontierCheckpoint.load(str(tmp_path))


# ---------------------------------------------------------------------------
# the /v1/metrics freshness gauge
# ---------------------------------------------------------------------------

def test_ingest_stats_gauge_in_metrics():
    service = empty_service()
    api = ServiceAPI(service)
    status, payload = api.dispatch("/v1/metrics", {}, None)
    assert status == 200
    assert payload["ingest"]["docs_total"] == 0
    assert payload["ingest"]["freshness_p50_ms"] is None

    IngestPipeline(
        service, make_source("scale-free:8", seed=2), batch_docs=4
    ).run()
    status, payload = api.dispatch("/v1/metrics", {}, None)
    gauge = payload["ingest"]
    assert gauge["docs_total"] == 8
    assert gauge["batches_total"] >= 2
    assert gauge["last_batch_age_seconds"] >= 0.0
    assert gauge["freshness_p50_ms"] >= 0.0
    assert gauge["freshness_p99_ms"] >= gauge["freshness_p50_ms"]


def test_metrics_freshness_equals_the_run_summary():
    """Under the gauge's 512-sample window, ``/v1/metrics`` and the run's
    ``IngestSummary`` read the same lags through one percentile rule,
    so their p50/p99 are equal, not only ordered."""
    service = empty_service()
    summary = IngestPipeline(
        service, make_source("scale-free:30", seed=5), batch_docs=4
    ).run()
    assert summary.docs == 30
    _, payload = ServiceAPI(service).dispatch("/v1/metrics", {}, None)
    gauge = payload["ingest"]
    assert gauge["freshness_p50_ms"] == summary.freshness_p50_ms
    assert gauge["freshness_p99_ms"] == summary.freshness_p99_ms
