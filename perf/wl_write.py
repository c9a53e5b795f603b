"""Workload ``write-mixed``: durable updates against a live server.

``dblp-200`` is served with ``--store DIR --checkpoint-interval 32``.
The cover, cache and storage layers are the ones the read workloads
use, entered through mutation: copy-on-write fork, reseal after
publish, WAL fsync, checkpoint, cache invalidation by epoch. A
read-side gain bought with a more expensive seal, or a build-side gain
bought with a less maintainable cover, shows up here.

Connection A writes, connection B reads:

``delete``  A posts five non-separating ``delete_document`` batches
            (the Theorem 3 path), B keeps reading.
``rw``      A alternates one durable ``/v1/update`` batch with one
            ``/v1/query`` that is the first read of the new epoch; B is
            a closed-loop reader.
``ww``      A and B each post one-op insert batches back to back — the
            only place group commit can show.

``rw`` and ``ww`` alternate in rounds. Then the server is
SIGKILLed and restarted on the same store and the recovered state is
checked against the reference. The deletes come first and are followed
by several times the checkpoint interval in commits, so they are always
folded into the snapshot: the restart replays a handful of cheap
inserts, not a non-separating delete.
"""

from __future__ import annotations

import json
import os
import random
import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.hopi import HopiIndex
from repro.core.ops import apply_update_op
from repro.graph.traversal import ancestors, descendants
from repro.service import QueryService
from repro.storage import load_index
from repro.storage.wal import DurableIndexStore
from repro.xmlmodel.model import Collection

from perf import corpora, ops, oracle
from perf.config import Context
from perf.hostspeed import SpeedGauge
from perf.httpclient import Connection, query_target
from perf.measure import median, median_ms, peak_rss_mb
from perf.serving import (
    LaneResult, Request, Served, drive, run_lanes, set_up, warm_paths,
)
from perf.spans import Tracer

#: ``(sent, answered)`` readings of ``time.perf_counter()``
Span = Tuple[float, float]

READER_PATHS = 16


def pick_victims(served: Served, count: int, target_region: int) -> List[str]:
    """``count`` non-separating documents whose recovery region — the
    elements of every document reachable from a document that reaches
    the victim — is closest to ``target_region`` elements, no victim
    inside another's region (so one delete does not change what the
    next one costs). A Theorem 3 delete costs what its region costs to
    re-cover, 40 ms to 20 s on this corpus, so victims and their order
    are pinned by rule, not drawn: each delete reshapes the regions of
    the ones after it."""
    collection, index = served.collection, served.index
    graph = collection.document_graph()
    ranked = []
    for doc_id in collection.documents:
        if index.document_separates(doc_id):
            continue
        region = set()
        for above in ancestors(graph, doc_id, strict=True):
            region |= descendants(graph, above)
        elements = sum(collection.documents[d].num_elements for d in region)
        ranked.append((abs(elements - target_region), doc_id, region))
    ranked.sort(key=lambda row: row[:2])
    victims: List[str] = []
    covered: set = set()
    for _, doc_id, region in ranked:
        if doc_id not in covered and not region.intersection(victims):
            victims.append(doc_id)
            covered |= region
            if len(victims) == count:
                return victims
    raise RuntimeError(f"only {len(victims)} independent victims, need {count}")


def _body(batch: List[ops.Op]) -> bytes:
    return json.dumps({"ops": batch}, separators=(",", ":")).encode("utf-8")


class _Reader:
    """Connection B as a background closed-loop reader."""

    def __init__(self, port: int, seed: int) -> None:
        rng = random.Random(f"reader-{seed}")
        paths = ops.hot_paths()[:READER_PATHS]
        self.requests: List[Request] = [
            (query_target(rng.choice(paths)), None) for _ in range(256)
        ]
        self.conn = Connection(port)
        self.result = LaneResult()
        self.stop = threading.Event()
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.started = time.perf_counter()
        self.thread.start()

    def _run(self) -> None:
        try:
            drive(
                self.conn, self.requests,
                lambda position, raw: b'"results"' in raw,
                self.result, stop=self.stop,
            )
        except BaseException as exc:  # re-raised by finish()
            self.result.error = exc

    def finish(self) -> Tuple[LaneResult, float]:
        self.stop.set()
        self.thread.join()
        wall = time.perf_counter() - self.started
        self.conn.close()
        if self.result.error is not None:
            raise self.result.error
        return self.result, wall


class _Session:
    """The writer's view of one run: the live server, the reference
    collection every acknowledged op is mirrored into, and the tallies."""

    def __init__(self, ctx: Context, served: Served, sizes: Dict[str, int]) -> None:
        self.ctx = ctx
        self.served = served
        self.sizes = sizes
        self.reference: Collection = served.collection.copy()
        self.acked_epoch = 0
        self.attempted = 0
        self.failed = 0
        self.rss_mb = 0.0
        self.restart_seconds: List[float] = []
        self.reader_results: List[LaneResult] = []
        self.reader_wall = 0.0

    # -- one acknowledged batch -----------------------------------------
    def post(self, conn: Connection, batch: List[ops.Op]) -> Optional[Span]:
        """POST one batch; returns when it was sent and acknowledged,
        or ``None`` on failure."""
        t0 = time.perf_counter()
        status, raw = conn.request("/v1/update", _body(batch))
        t1 = time.perf_counter()
        self.attempted += 1
        answer = json.loads(raw)
        if (
            status != 200 or answer.get("applied") != len(batch)
            or answer["epoch"] <= self.acked_epoch
        ):
            self.failed += 1
            return None
        self.acked_epoch = answer["epoch"]
        for op in batch:
            ops.apply_to_collection(self.reference, op)
        return t0, t1

    def quiet(self, spans: Sequence[Span]) -> List[float]:
        """Seconds of each span on the quiet reference host."""
        return [self.ctx.gauge.quiet_seconds(*span) for span in spans]

    def with_reader(self, work) -> Any:
        reader = _Reader(self.served.server.port, self.ctx.seed)
        try:
            return work()
        finally:
            result, wall = reader.finish()
            self.attempted += result.attempted
            self.failed += result.failed
            self.reader_results.append(result)
            self.reader_wall += wall

    def reader_summary(self) -> Tuple[float, float]:
        """Connection B over the whole run: reads per second of wall
        time, and the median latency in milliseconds. (Worked out once
        the run is over: asking the gauge about an interval waits for
        the sample that closes it.)"""
        latencies = [
            seconds for result in self.reader_results
            for seconds in result.quiet_latencies(self.ctx.gauge)
        ]
        requests = sum(result.attempted for result in self.reader_results)
        return requests / self.reader_wall, median_ms(latencies)

    # -- crash and recover ----------------------------------------------
    def crash(self) -> None:
        """SIGKILL, restart on the same store; the recovered epoch must
        be the last acknowledged one."""
        self.rss_mb = max(self.rss_mb, peak_rss_mb(self.served.server.pid))
        self.served.server.kill()
        server = self.served.respawn(
            self.ctx.src_dir, self.sizes["checkpoint_interval"]
        )
        seconds, health = server.wait_healthy()
        self.attempted += 1
        self.failed += health["epoch"] != self.acked_epoch
        self.restart_seconds.append(self.ctx.gauge.quiet_seconds(
            server.spawned_at, server.spawned_at + seconds
        ))

    def verify_counts(self) -> None:
        """``/v1/count`` of the verification paths on the recovered
        server against breadth-first search over the reference."""
        pairs = ops.VERIFICATION_PATHS
        truth = oracle.pair_counts(self.reference, pairs)
        conn = Connection(self.served.server.port)
        try:
            for head, tail in pairs:
                status, answer = conn.get_json(
                    query_target(f"//{head}//{tail}", "count")
                )
                self.attempted += 1
                self.failed += (
                    status != 200 or answer["count"] != truth[head, tail]
                    or answer["epoch"] != self.acked_epoch
                )
        finally:
            conn.close()


def _warm(served: Served) -> None:
    warm_paths(served, ops.hot_paths()[:READER_PATHS])


def _rw(session: _Session, batches: Sequence[List[ops.Op]]) -> Tuple[List[Span], List[Span]]:
    """Update, then the first read of the new epoch, ``len(batches)``
    times on one connection."""
    conn = Connection(session.served.server.port)
    # a warmed shape under a window the reader never asks for, so this
    # is the first read of its cache key at every new epoch
    probe = query_target(ops.hot_paths()[READER_PATHS])
    updates, reads = [], []
    try:
        for batch in batches:
            updates.append(session.post(conn, batch))
            t0 = time.perf_counter()
            status, raw = conn.request(probe)
            t1 = time.perf_counter()
            answer = json.loads(raw)
            session.attempted += 1
            if (
                status == 200 and answer["epoch"] == session.acked_epoch
                and answer["cached"] is False
            ):
                reads.append((t0, t1))
            else:
                session.failed += 1
    finally:
        conn.close()
    return [u for u in updates if u is not None], reads


def _ww(session: _Session, lanes: Sequence[Sequence[List[ops.Op]]]) -> Tuple[Span, int]:
    """Two writers race; returns when the race started and ended, and
    the number of distinct epochs their batches were published in."""
    epochs: List[List[int]] = [[], []]

    def check(k: int):
        def judge(position: int, raw: bytes) -> bool:
            answer = json.loads(raw)
            epochs[k].append(answer.get("epoch", -1))
            return answer.get("applied") == 1

        return judge

    wall, started, results = run_lanes(
        session.served.server.port,
        [[("/v1/update", _body(batch)) for batch in lane] for lane in lanes],
        [check(0), check(1)],
    )
    session.attempted += sum(r.attempted for r in results)
    session.failed += sum(r.failed for r in results)
    # each writer must see its own epochs rise; the order between the
    # two writers is the server's to choose and does not change counts
    for k, lane in enumerate(lanes):
        session.failed += epochs[k] != sorted(epochs[k])
        for batch in lane:
            for op in batch:
                ops.apply_to_collection(session.reference, op)
    session.acked_epoch = max(epochs[0] + epochs[1] + [session.acked_epoch])
    return (started, started + wall), len(set(epochs[0]) | set(epochs[1]))


def _chunk(items: Sequence[Any], parts: int, k: int) -> Sequence[Any]:
    """The ``k``-th of ``parts`` contiguous, near-equal chunks."""
    size = -(-len(items) // parts)
    return items[k * size:(k + 1) * size]


def _deletes(session: _Session, victims: Sequence[str]) -> List[Span]:
    """The non-separating deletes, reader on connection B. They come
    before any insert: an inserted document cites originals, so it
    joins the recovery region of every later delete (five rounds of
    inserts took the fifth delete from 0.7 s to 3.9 s)."""

    def work() -> List[Optional[Span]]:
        conn = Connection(session.served.server.port)
        try:
            return [
                session.post(conn, [{"op": "delete_document", "doc_id": d}])
                for d in victims
            ]
        finally:
            conn.close()

    return [s for s in session.with_reader(work) if s is not None]


def _rounds(
    session: _Session,
    rounds: int,
    rw_batches: Sequence[List[ops.Op]],
    ww_lanes: Sequence[Sequence[List[ops.Op]]],
) -> Dict[str, Any]:
    """``rounds`` times: a share of the ``rw`` batches with the reader
    on connection B, then a share of the ``ww`` race. Interleaving the
    two means a few noisy seconds on the host touch one round of each
    metric, not all of one metric."""
    out: Dict[str, Any] = {
        "update": [], "read": [], "ww": [], "ww_batches": 0, "publishes": 0,
    }
    for k in range(rounds):
        updates, reads = session.with_reader(
            lambda: _rw(session, _chunk(rw_batches, rounds, k))
        )
        out["update"] += updates
        out["read"] += reads
        lanes = [_chunk(lane, rounds, k) for lane in ww_lanes]
        span, publishes = _ww(session, lanes)
        batches = sum(len(lane) for lane in lanes)
        out["ww"].append((batches, span))
        out["ww_batches"] += batches
        out["publishes"] += publishes
    return out


#: WAL records every restart replays (see :func:`_settle_wal`)
WAL_TAIL = 8


def _settle_wal(session: _Session, stream: ops.UpdateStream) -> None:
    """Leave exactly ``WAL_TAIL`` records in the log before the crash.

    How many records follow the last checkpoint depends on how the two
    writers' batches happened to group, and each one is replayed on
    restart — 0 to 31 of them moved the restart time by 50 %. One writer
    therefore posts cheap inserts until the log file shrinks (a
    checkpoint reset it; the acknowledgement comes after the reset),
    then ``WAL_TAIL`` more."""
    wal = os.path.join(session.served.store_dir, "updates.wal")
    conn = Connection(session.served.server.port)
    try:
        size = os.path.getsize(wal)
        for _ in range(2 * session.sizes["checkpoint_interval"]):
            session.post(conn, [stream.insert_element()])
            previous, size = size, os.path.getsize(wal)
            if size < previous:
                break
        else:
            session.failed += 1  # the store never checkpointed
        for _ in range(WAL_TAIL):
            session.post(conn, [stream.insert_element()])
    finally:
        conn.close()


def run(ctx: Context) -> dict:
    sizes = ctx.sizes()
    served = set_up(
        ctx.work_dir, ctx.src_dir, ctx.gauge, sizes["docs"], sizes["setups"],
        warm=_warm, durable=True,
        checkpoint_interval=sizes["checkpoint_interval"],
    )
    try:
        victims = pick_victims(
            served, sizes["deletes"], sizes["delete_region_elements"]
        )
        stream = ops.UpdateStream(ctx.seed, served.collection, exclude=victims)
        rw_batches = stream.rw_batches(
            sizes["rounds"] * sizes["rw_batches_per_round"]
        )
        ww_lanes = [
            stream.ww_batches(name, sizes["rounds"] * sizes["checkpoint_interval"])
            for name in ("a", "b")
        ]
        session = _Session(ctx, served, sizes)
        delete_spans = _deletes(session, victims)
        rounds = _rounds(session, sizes["rounds"], rw_batches, ww_lanes)
        _settle_wal(session, stream)
        session.crash()
        session.verify_counts()
        session.rss_mb = max(session.rss_mb, peak_rss_mb(served.server.pid))
    finally:
        served.server.stop()
    reads_per_s, read_p50_ms = session.reader_summary()
    delete_seconds = session.quiet(delete_spans)
    rounds["update"] = session.quiet(rounds["update"])
    rounds["read"] = session.quiet(rounds["read"])
    ww_rates = [
        batches / seconds for (batches, _), seconds in zip(
            rounds["ww"], session.quiet([span for _, span in rounds["ww"]])
        )
    ]

    return {
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {
            "setup_s": median(served.setup_seconds),
            "primary_ms": median_ms(rounds["update"]),
            # the same five victims every time, three of them within
            # 5 % of each other: one stalled delete moves their mean by
            # half, their median not at all
            "tail_ms": median_ms(delete_seconds),
            "secondary_ms": median_ms(rounds["read"]),
            "throughput_per_s": median(ww_rates),
            "peak_rss_mb": session.rss_mb,
            "labels_per_element": served.labels_per_element,
            "db_bytes_per_element": served.db_bytes_per_element,
        },
        "detail": {
            "delete_ms": [s * 1000.0 for s in delete_seconds],
            "update_ms": [round(s * 1000.0, 2) for s in rounds["update"]],
            "read_ms": [round(s * 1000.0, 2) for s in rounds["read"]],
            "setup_s": served.setup_seconds,
            "ww_rate": ww_rates,
            "restart_s": session.restart_seconds,
            "update_max_ms": max(rounds["update"]) * 1000.0,
            "batches_per_publish": rounds["ww_batches"] / rounds["publishes"],
            "reads_under_write_per_s": reads_per_s,
            "read_under_write_p50_ms": read_p50_ms,
            "victims": victims,
        },
    }


# ---------------------------------------------------------------------
# --trace 1
# ---------------------------------------------------------------------
#
# The same update stream is applied twice in process, batch by batch.
# Once as a replica of the write path made of direct calls into each
# layer (``write`` > ``core.cow_fork``, ``core.apply``,
# ``storage.wal_append``, ``core.seal``), once through
# ``QueryService.update`` with its own durable store
# (``service.update``). What the service adds is the second minus the
# first. Counts (fsyncs, WAL bytes, checkpoints) come from this
# single-client run, so they repeat exactly; the figures that need a
# concurrent reader or a second writer come from a short server run.

#: the layers this workload's traced run must report
TRACE_LAYERS = {"write-mixed": (
    "core.cow_fork_ms", "core.seal_ms", "core.insert_document_ms",
    "core.insert_element_ms", "core.insert_edge_ms", "core.delete_sep_ms",
    "core.delete_nonsep_ms", "core.delete_nonsep_region_elements",
    "storage.wal_append_ms", "storage.wal_fsyncs_per_update",
    "storage.wal_bytes_per_update", "storage.checkpoint_s",
    "storage.checkpoints", "storage.recover_replay_s", "service.restart_s",
    "service.publish_ms", "service.batches_per_publish",
    "service.reads_under_write_per_s", "service.read_under_write_p50_ms",
    "service.update_max_ms",
)}

TRACED_BATCHES = 48
TRACED_DELETES = 2


def _replica_pass(
    tracer: Tracer, index: HopiIndex, store: DurableIndexStore,
    batches: Sequence[List[ops.Op]], probe: Tuple[int, ...],
    gauge: SpeedGauge,
) -> Tuple[float, List[Dict[str, Any]]]:
    """Fork, apply, log and reseal each batch by direct calls; returns
    the wall time on the quiet reference host and each batch's first op
    report."""
    current = index
    reports = []
    t0 = time.perf_counter()
    for i, batch in enumerate(batches):
        with tracer.span("write", i):
            with tracer.span("core.cow_fork", i):
                shadow = current.cow_copy()
            with tracer.span("core.apply", i):
                reports.append([apply_update_op(shadow, op) for op in batch][0])
            with tracer.span("storage.wal_append", i):
                store.log(shadow.epoch, batch)
            with tracer.span("core.seal", i):
                # the first batched probe of a fork packs its labels
                shadow.connected_many(probe[0], probe[1:])
        current = shadow
    return gauge.quiet_seconds(t0, time.perf_counter()), reports


def _by_kind(tracer: Tracer, kinds: Sequence[str]) -> Dict[str, List[float]]:
    """``core.apply`` durations grouped by the op kind of their batch."""
    grouped: Dict[str, List[float]] = {}
    for name, start, end, _, trace_id in tracer.spans:
        if name == "core.apply":
            grouped.setdefault(kinds[trace_id], []).append(
                tracer.gauge.quiet_seconds(start, end)
            )
    return grouped


def trace(ctx: Context) -> dict:
    sizes = ctx.sizes()
    served = set_up(
        ctx.work_dir, ctx.src_dir, ctx.gauge, sizes["docs"], 1,
        warm=_warm, durable=True,
        checkpoint_interval=sizes["checkpoint_interval"],
    )
    try:
        victims = pick_victims(
            served, sizes["deletes"], sizes["delete_region_elements"]
        )
        stream = ops.UpdateStream(ctx.seed, served.collection, exclude=victims)
        traced_batches = stream.rw_batches(
            min(TRACED_BATCHES, sizes["rounds"] * sizes["rw_batches_per_round"])
        )
        server_batches = stream.rw_batches(2 * sizes["rw_batches_per_round"])
        ww_lanes = [
            stream.ww_batches(name, 2 * sizes["checkpoint_interval"])
            for name in ("a", "b")
        ]
        session = _Session(ctx, served, sizes)
        rounds = _rounds(session, 2, server_batches, ww_lanes)
        _settle_wal(session, stream)
        session.crash()
        session.verify_counts()
    finally:
        served.server.stop()

    deletes = [
        [{"op": "delete_document", "doc_id": d}]
        for d in victims[:TRACED_DELETES]
    ]
    batches = deletes + traced_batches
    kinds = ["delete_nonsep"] * len(deletes) + [
        "delete_sep" if b[0]["op"] == "delete_document" else b[0]["op"]
        for b in traced_batches
    ]
    roots = stream.roots
    probe = (roots[0], roots[1])  # (source, one candidate)

    def fresh(name: str, **kwargs) -> Tuple[HopiIndex, DurableIndexStore]:
        index = load_index(served.index_path, backend=corpora.BACKEND)
        store = DurableIndexStore(os.path.join(ctx.work_dir, name), **kwargs)
        return index, store

    tracer = Tracer(ctx.gauge)
    walls = {}
    for enabled in (False, True):
        index, store = fresh(f"replica-{enabled}", checkpoint_interval=10 ** 9)
        walls[enabled], reports = _replica_pass(
            tracer if enabled else Tracer(enabled=False),
            index, store, batches, probe, ctx.gauge,
        )
        store.close()

    # the same batches through the service, with the store's test seam
    # recording when each durability point was passed
    events: List[Tuple[str, float]] = []
    index, store = fresh(
        "service-store", checkpoint_interval=sizes["checkpoint_interval"],
        crash_hook=lambda point: events.append((point, time.perf_counter())),
    )
    store.initialize(index)
    del events[:]
    service = QueryService(index, durable_store=store)
    fsyncs = 0
    real_fsync = os.fsync

    def counting_fsync(fd: int) -> None:
        nonlocal fsyncs
        fsyncs += 1
        real_fsync(fd)

    wal_bytes = 0
    os.fsync = counting_fsync
    try:
        for i, batch in enumerate(batches):
            before = os.path.getsize(store.wal_path)
            with tracer.span("service.update", i):
                service.update(batch)
            # a checkpoint resets the log; the record was still written
            wal_bytes += max(os.path.getsize(store.wal_path) - before, 0)
    finally:
        os.fsync = real_fsync
    expected_epoch, expected_size = service.epoch, service.index.cover.size
    store.close()
    checkpoints = [
        ctx.gauge.quiet_seconds(events[k - 1][1], t)
        for k, (point, t) in enumerate(events)
        if point == "checkpointed" and k and events[k - 1][0] == "published"
    ]
    with tracer.span("storage.recover_replay", len(batches)):
        recovered = DurableIndexStore(store.root).recover(backend=corpora.BACKEND)
    failed = session.failed
    failed += recovered.epoch != expected_epoch
    failed += recovered.cover.size != expected_size

    durations = tracer.durations()
    grouped = _by_kind(tracer, kinds)
    reads_per_s, read_p50_ms = session.reader_summary()
    plain = slice(len(deletes), None)  # the deletes would swamp a mean
    replica_ms = sum(
        sum(durations[name][plain])
        for name in ("core.cow_fork", "core.apply", "storage.wal_append")
    ) / len(traced_batches) * 1000.0
    update_ms = sum(durations["service.update"][plain]) / len(traced_batches) * 1000.0
    layers = {
        "trace_overhead_share": (walls[True] - walls[False]) / walls[False],
        "core.cow_fork_ms": median_ms(durations["core.cow_fork"]),
        "core.seal_ms": median_ms(durations["core.seal"]),
        "core.insert_document_ms": median_ms(grouped["insert_document"]),
        "core.insert_element_ms": median_ms(grouped["insert_element"]),
        "core.insert_edge_ms": median_ms(grouped["insert_edge"]),
        "core.delete_sep_ms": median_ms(grouped["delete_sep"]),
        "core.delete_nonsep_ms": median_ms(grouped["delete_nonsep"]),
        "core.delete_nonsep_region_elements": median(
            r["recovered_region_size"] for r in reports[: len(deletes)]
        ),
        "storage.wal_append_ms": median_ms(durations["storage.wal_append"]),
        "storage.wal_fsyncs_per_update": fsyncs / len(batches),
        "storage.wal_bytes_per_update": wal_bytes / len(batches),
        "storage.checkpoint_s": median(checkpoints) if checkpoints else 0.0,
        "storage.checkpoints": len(checkpoints),
        "storage.recover_replay_s": durations["storage.recover_replay"][0],
        # SIGKILL to healthy at the acknowledged epoch, WAL_TAIL replayed
        "service.restart_s": median(session.restart_seconds),
        "service.publish_ms": update_ms - replica_ms,
        "service.batches_per_publish": rounds["ww_batches"] / rounds["publishes"],
        "service.reads_under_write_per_s": reads_per_s,
        "service.read_under_write_p50_ms": read_p50_ms,
        "service.update_max_ms": max(session.quiet(rounds["update"])) * 1000.0,
    }
    return {
        "attempted": session.attempted + 2 * len(batches) + 2,
        "failed": failed,
        "metrics": layers,
        "tracer": tracer,
    }
