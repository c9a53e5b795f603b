"""Command-line interface: build, query and maintain HOPI indexes.

Usage (also via ``python -m repro``)::

    # index a directory of XML files into a self-contained database
    python -m repro build docs/*.xml -o index.db [--distance]

    # generate a synthetic benchmark collection as XML files
    python -m repro generate dblp -n 100 -o corpus/

    # query a persisted index (predicates, windows, EXPLAIN)
    python -m repro query index.db "//article//author"
    python -m repro query index.db "//article[keywords]//cite" --limit 10
    python -m repro query index.db "//*//author" --explain
    python -m repro connected index.db 3 17
    python -m repro stats index.db

    # incremental maintenance on the persisted index
    python -m repro delete-doc index.db dblp42

    # serve the index over HTTP: the /v1 API (query, count, explain,
    # connected, distance, update, stats, healthz, metrics) with
    # concurrent queries, admission control, result caching and
    # zero-downtime update hot-swap
    python -m repro serve index.db --port 8080

Documents are identified by file stem; XLink ``href`` attributes resolve
to links exactly as in :func:`repro.xmlmodel.parser.load_collection`.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import sys
from typing import Dict, List, NoReturn, Optional, Sequence

from repro.core.hopi import HopiIndex
from repro.query.engine import QueryEngine
from repro.storage.db import SQLiteCoverStore, load_index, persist_index
from repro.xmlmodel.export import export_collection
from repro.xmlmodel.generator import dblp_like, inex_like
from repro.xmlmodel.parser import load_collection


def _read_documents(paths: Sequence[str]) -> Dict[str, str]:
    documents: Dict[str, str] = {}
    for raw in paths:
        path = pathlib.Path(raw)
        if path.is_dir():
            files = sorted(path.glob("*.xml"))
        else:
            files = [path]
        for f in files:
            if f.stem in documents:
                raise SystemExit(f"duplicate document id {f.stem!r} ({f})")
            documents[f.stem] = f.read_text(encoding="utf-8")
    if not documents:
        raise SystemExit("no XML documents found")
    return documents


def _int_at_least(text: str, least: int) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < least:
        raise argparse.ArgumentTypeError(f"must be >= {least}, got {value}")
    return value


def positive_int(text: str) -> int:
    """argparse ``type`` for sizes that must be at least 1."""
    return _int_at_least(text, 1)


def non_negative_int(text: str) -> int:
    """argparse ``type`` for counts that may be 0 (a result window)."""
    return _int_at_least(text, 0)


def unit_share(text: str) -> float:
    """argparse ``type`` for a fraction in ``(0, 1]``."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if not 0.0 < value <= 1.0:
        raise argparse.ArgumentTypeError(f"must be in (0, 1], got {value}")
    return value


def _usage_error(message: str) -> NoReturn:
    """Exit 2 with ``message``, the way argparse reports bad usage."""
    print(f"repro: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _existing(path: str) -> str:
    """``path`` when an index file is there, else a usage error: opening
    a missing path would create an empty database and answer from it."""
    if not os.path.isfile(path):
        _usage_error(f"no index database at {path}")
    return path


def cmd_build(args: argparse.Namespace) -> int:
    collection = load_collection(_read_documents(args.inputs))
    print(
        f"loaded {collection.num_documents} documents, "
        f"{collection.num_elements} elements, {collection.num_links} links"
    )
    index = HopiIndex.build(collection, distance=args.distance)
    stats = index.stats
    print(f"built in {stats.seconds_total:.2f}s (|L| = {stats.cover_size})")
    persist_index(index, args.output).close()
    print(f"written to {args.output}")
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    if args.family == "dblp":
        collection = dblp_like(args.num_docs, seed=args.seed)
    else:
        collection = inex_like(args.num_docs, seed=args.seed)
    out = pathlib.Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    for doc_id, text in export_collection(collection).items():
        (out / f"{doc_id}.xml").write_text(text, encoding="utf-8")
    print(
        f"wrote {collection.num_documents} documents "
        f"({collection.num_elements} elements, {collection.num_links} links) "
        f"to {out}/"
    )
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from repro.query.pathexpr import parse_path

    index = load_index(_existing(args.index))
    engine = QueryEngine(
        index,
        max_results=args.max_results,
        similarity_threshold=args.similarity_threshold,
    )
    expr = parse_path(args.path)
    # CLI window flags override the expression's own limit/offset; a
    # plain `repro query` still prints the top 20 like it always did
    limit = args.limit if args.limit is not None else expr.limit
    if limit is None:
        limit = 20
    offset = args.offset if args.offset is not None else expr.offset
    expr = replace(expr, limit=limit, offset=offset)
    if args.explain:
        print(engine.explain(expr))
        return 0
    results = engine.evaluate(expr)
    collection = index.collection
    for r in results:
        element = collection.elements[r.target]
        text = f" {element.text!r}" if element.text else ""
        print(
            f"{r.score:6.3f}  {element.doc}#{element.eid} "
            f"<{element.tag}>{text}"
        )
    print(f"{len(results)} match(es)", file=sys.stderr)
    return 0


def cmd_connected(args: argparse.Namespace) -> int:
    index = load_index(_existing(args.index))
    if args.distance and not index.is_distance_aware:
        _usage_error(f"index {args.index} was built without --distance")
    result = index.connected(args.source, args.target)
    print("connected" if result else "not connected")
    if args.distance:
        print(f"distance: {index.distance(args.source, args.target)}")
    return 0 if result else 1


def cmd_stats(args: argparse.Namespace) -> int:
    index = load_index(_existing(args.index))
    collection = index.collection
    report = index.size_report(with_closure=args.closure)
    print(f"documents:        {collection.num_documents}")
    print(f"elements:         {collection.num_elements}")
    print(f"links:            {collection.num_links}")
    print(f"cover entries:    {report.cover_size}")
    print(f"entries/node:     {report.entries_per_node:.2f}")
    print(f"stored integers:  {report.stored_integers} (with backward index)")
    if report.closure_connections is not None:
        print(f"closure:          {report.closure_connections} connections")
        print(f"compression:      {report.compression:.1f}x")
    kind = "distance-aware" if index.is_distance_aware else "reachability"
    print(f"cover type:       {kind}")
    return 0


def cmd_delete_doc(args: argparse.Namespace) -> int:
    index = load_index(_existing(args.index))
    if args.doc_id not in index.collection.documents:
        raise SystemExit(f"no document {args.doc_id!r} in the index")
    report = index.delete_document(args.doc_id)
    path_taken = "fast (Theorem 2)" if report.separating else "general (Theorem 3)"
    print(
        f"deleted {args.doc_id!r} via the {path_taken} path "
        f"in {report.seconds * 1000:.1f} ms"
    )
    with SQLiteCoverStore(args.index) as store:
        store.write_index(index)
    print(f"updated {args.index}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service import AsyncServiceServer, QueryService

    durable_store = None
    if args.store:
        from repro.storage.wal import DurableIndexStore

        if not os.path.exists(os.path.join(args.store, "index.db")):
            _existing(args.index)  # the store is seeded from it
        durable_store = DurableIndexStore(
            args.store, checkpoint_interval=args.checkpoint_interval
        )
        if durable_store.exists():
            # crash recovery: snapshot + replay of WAL records newer
            # than the snapshot epoch — args.index is only the seed
            index = durable_store.recover()
            print(
                f"recovered epoch {index.epoch} from {args.store}",
                flush=True,
            )
        else:
            index = load_index(_existing(args.index))
            durable_store.initialize(index)
            print(f"initialised durable store {args.store}", flush=True)
    else:
        index = load_index(_existing(args.index))
    service = QueryService(
        index,
        max_results=args.max_results,
        similarity_threshold=args.similarity_threshold,
        result_cache_size=args.result_cache,
        durable_store=durable_store,
    )
    server = AsyncServiceServer(
        service,
        max_inflight=args.max_inflight,
        queue_depth=args.queue_depth,
        max_client_share=args.max_client_share,
        verbose=args.verbose,
        max_requests=args.max_requests,
    )

    async def _serve() -> None:
        host, port = await server.start(args.host, args.port)
        print(
            f"serving {args.index} on http://{host}:{port} "
            f"(epoch={service.epoch}, "
            f"async max_inflight={args.max_inflight} "
            f"queue_depth={args.queue_depth})",
            flush=True,
        )
        await server.wait_closed()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        pass
    finally:
        service.close()
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    index = load_index(_existing(args.index))
    index.verify()
    print("cover verified against a fresh transitive-closure oracle ✓")
    return 0


def cmd_ingest(args: argparse.Namespace) -> int:
    from repro.ingest import FrontierCheckpoint, IngestPipeline, make_source
    from repro.service import QueryService
    from repro.storage.wal import DurableIndexStore
    from repro.xmlmodel.model import Collection

    source = make_source(args.source, seed=args.seed)
    store = DurableIndexStore(
        args.store, checkpoint_interval=args.checkpoint_interval
    )
    cursor = 0
    if store.exists():
        checkpoint = FrontierCheckpoint.load(args.store)
        if not args.resume:
            raise SystemExit(
                f"store {args.store} already holds an index"
                + (
                    f" (frontier at document {checkpoint.cursor}"
                    f" of {checkpoint.source!r})" if checkpoint else ""
                )
                + "; pass --resume to continue the ingest, or point "
                "--store at a fresh directory"
            )
        if checkpoint is not None:
            # the frontier records the source's own seed (0 for dir:)
            if (checkpoint.source, checkpoint.seed) != (source.spec, source.seed):
                raise SystemExit(
                    f"frontier checkpoint was written by source "
                    f"{checkpoint.source!r} seed {checkpoint.seed}, not "
                    f"{source.spec!r} seed {source.seed}; refusing to mix "
                    "streams in one store"
                )
            cursor = checkpoint.cursor
        index = store.recover()
        print(
            f"resuming: recovered epoch {index.epoch} "
            f"({index.collection.num_documents} documents), frontier at "
            f"document {cursor}",
            flush=True,
        )
    else:
        if args.resume:
            raise SystemExit(
                f"nothing to resume: {args.store} holds no durable store"
            )
        index = HopiIndex.build(Collection())
        store.initialize(index)
        print(f"initialised durable store {args.store}", flush=True)

    service = QueryService(index, durable_store=store)
    pipeline = IngestPipeline(
        service,
        source,
        batch_docs=args.batch_docs,
        store_dir=args.store,
        cursor=cursor,
    )
    try:
        summary = pipeline.run(max_docs=args.max_docs)
    finally:
        service.close()
    skipped = f", {summary.skipped} already present" if summary.skipped else ""
    print(
        f"ingested {summary.docs} documents ({summary.elements} elements, "
        f"{summary.links} links, {summary.dropped_links} dropped) in "
        f"{summary.batches} batches over {summary.seconds:.2f}s "
        f"({summary.docs_per_second:.0f} docs/s{skipped})"
    )
    print(
        f"freshness lag p50 {summary.freshness_p50_ms:.2f} ms, "
        f"p99 {summary.freshness_p99_ms:.2f} ms; epoch {summary.epoch}, "
        f"frontier at document {summary.cursor}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="HOPI: 2-hop connection index for linked XML collections",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="index XML files into a database")
    p.add_argument("inputs", nargs="+", help="XML files or directories")
    p.add_argument("-o", "--output", required=True, help="index database path")
    p.add_argument("--distance", action="store_true",
                   help="build a distance-aware cover (Section 5)")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("generate", help="write a synthetic XML collection")
    p.add_argument("family", choices=["dblp", "inex"])
    p.add_argument("-n", "--num-docs", type=int, default=100)
    p.add_argument("-o", "--output", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("query", help="evaluate a //-path expression")
    p.add_argument("index")
    p.add_argument("path",
                   help='e.g. "//article//author", "//~book//author", or '
                        '"//article[keywords]//cite limit 10 offset 20"')
    p.add_argument("--limit", type=non_negative_int, default=None,
                   help="cap the ranked results printed (default: the "
                        "expression's own 'limit N', else 20)")
    p.add_argument("--offset", type=non_negative_int, default=None,
                   help="skip the first N ranked results (default: the "
                        "expression's own 'offset N', else 0)")
    p.add_argument("--explain", action="store_true",
                   help="print the physical plan (estimates, join order, "
                        "probe directions) instead of evaluating")
    p.add_argument("--max-results", type=positive_int, default=1000,
                   help="engine-level ranked-result truncation (the "
                        "serving tier's knob, now settable here too)")
    p.add_argument("--similarity-threshold", type=float, default=0.3,
                   help="minimum ontology similarity for a ~tag step to "
                        "include a tag (the serving tier's knob, now "
                        "settable here too)")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("connected", help="reachability test between elements")
    p.add_argument("index")
    p.add_argument("source", type=int)
    p.add_argument("target", type=int)
    p.add_argument("--distance", action="store_true")
    p.set_defaults(func=cmd_connected)

    p = sub.add_parser("stats", help="index size statistics")
    p.add_argument("index")
    p.add_argument("--closure", action="store_true",
                   help="also materialise the closure for the compression ratio")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser(
        "serve",
        help="serve a persisted index over HTTP — the /v1 API (query "
             "count explain connected distance update stats healthz "
             "metrics) on an asyncio front end with admission control",
    )
    p.add_argument("index")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8080,
                   help="listening port (0 picks an ephemeral port)")
    # accepted and ignored: there is one label representation, but
    # perf/ still passes the flag and may not be edited in the PR that
    # retired the option
    p.add_argument("--backend", default=None, help=argparse.SUPPRESS)
    p.add_argument("--max-results", type=positive_int, default=1000)
    p.add_argument("--similarity-threshold", type=float, default=0.3,
                   help="minimum ontology similarity for ~tag steps")
    p.add_argument("--result-cache", type=positive_int, default=4096,
                   help="entries in the (path, epoch) result LRU")
    p.add_argument("--max-requests", type=int, default=None,
                   help="exit after answering N requests (smoke tests/CI)")
    p.add_argument("--store", default=None, metavar="DIR",
                   help="durable store directory (index.db + updates.wal): "
                        "update batches are WAL-logged before publishing "
                        "and the server recovers the latest epoch after a "
                        "crash; an empty DIR is seeded from the index "
                        "argument, a populated one takes precedence over it")
    p.add_argument("--checkpoint-interval", type=int, default=64,
                   help="WAL records between snapshot checkpoints of the "
                        "durable store (default 64)")
    # accepted and ignored: the asyncio front end is the only one, but
    # the benchmark harness under perf/ still passes the flag
    p.add_argument("--async", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--max-inflight", type=positive_int, default=8,
                   help="worker threads evaluating requests concurrently "
                        "(default 8)")
    p.add_argument("--queue-depth", type=non_negative_int, default=64,
                   help="admitted requests allowed to wait for a worker "
                        "slot before new arrivals are shed with 429 "
                        "(default 64)")
    p.add_argument("--max-client-share", type=unit_share, default=0.5,
                   help="fraction of the admission window one client key "
                        "(X-Client-Id or peer address) may occupy before "
                        "its requests are shed (default 0.5)")
    p.add_argument("--verbose", action="store_true",
                   help="log one line per request")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("delete-doc", help="incrementally delete a document")
    p.add_argument("index")
    p.add_argument("doc_id")
    p.set_defaults(func=cmd_delete_doc)

    p = sub.add_parser("verify", help="audit the cover against a BFS oracle")
    p.add_argument("index")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "ingest",
        help="stream documents from a source into a durable index — "
             "crawl-style frontier -> insert_document ops -> group-"
             "commit publishes, WAL-logged; crash-resumable with "
             "--resume (the frontier checkpoint rides in the store "
             "directory)",
    )
    p.add_argument("--source", required=True, metavar="SPEC",
                   help="document stream: dir:PATH walks *.xml files; "
                        "scale-free:N, deep-tree:N and ontology:N are "
                        "seeded synthetic generators")
    p.add_argument("--store", required=True, metavar="DIR",
                   help="durable store directory (index.db + updates.wal "
                        "+ frontier.json); created on first run")
    p.add_argument("--resume", action="store_true",
                   help="continue a previous ingest of the same source "
                        "from its frontier checkpoint (required when "
                        "DIR already holds an index)")
    p.add_argument("--seed", type=int, default=2005,
                   help="seed for synthetic sources (default 2005); a "
                        "resume must pass the original seed")
    p.add_argument("--batch-docs", type=int, default=8,
                   help="documents per update batch (default 8): "
                        "bigger amortises publishes, smaller cuts "
                        "freshness lag")
    p.add_argument("--max-docs", type=int, default=None,
                   help="stop after ingesting N new documents")
    p.add_argument("--checkpoint-interval", type=int, default=64,
                   help="WAL records between snapshot checkpoints of the "
                        "durable store (default 64)")
    p.set_defaults(func=cmd_ingest)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
