"""Workloads ``read-cold`` and ``read-hot``: one read-only server.

Both serve the same ``dblp-200`` index from a real ``python -m repro
serve … --async`` process, over two closed-loop connections.

``read-cold`` sends distinct path expressions, each exactly once, so the
result cache cannot answer any of them: what is timed is parse → plan →
scan → probe kernels → rank → serialise. ``read-hot`` draws from 64
paths that the set-up warmed, then probes ``/v1/connected``: transport,
admission, dispatch, the result cache and JSON — the query and kernel
layers do nothing, so a kernel gain must not move it and a front-end or
telemetry cost must.
"""

from __future__ import annotations

import json
import random
import time
from typing import Any, Dict, List, Sequence, Tuple

from repro.query import PreparedQuery, QueryEngine, parse_path
from repro.service import QueryService, ServiceAPI
from repro.storage import load_index

from perf import corpora, ops, oracle
from perf.config import Context
from perf.hostspeed import SpeedGauge
from perf.httpclient import Connection, query_target
from perf.measure import (
    cpu_seconds, median, median_ms, median_of_segments, peak_rss_mb,
    percentile,
)
from perf.serving import (
    LaneResult, Request, Served, run_lanes, set_up, warm_paths,
)
from perf.spans import Tracer

#: a few paths sent once per set-up, so the first timed request does not
#: pay for the lazy CSR seal and the tag index
WARM_PATHS = ("//article//author limit 3", "//citations//cite limit 3")


def _warm_cold(served: Served) -> None:
    warm_paths(served, WARM_PATHS)


def _results_tail(raw: bytes) -> bytes:
    """A ``/v1/query`` body from ``"count"`` on — what stays the same
    between a computed and a cached answer (``cached`` and ``seconds``
    come before it)."""
    return raw[raw.index(b'"count"'):]


def _warm_hot(served: Served) -> List[bytes]:
    """Send each hot path once; returns the answers' invariant parts,
    which every later (cached) answer must repeat byte for byte."""
    return [_results_tail(raw) for raw in warm_paths(served, ops.hot_paths())]


def _server_counters(port: int) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    conn = Connection(port)
    try:
        _, stats = conn.get_json("/v1/stats")
        _, metrics = conn.get_json("/v1/metrics")
    finally:
        conn.close()
    return stats, metrics


def _common_metrics(served: Served) -> Dict[str, float]:
    """What every serving run reports beside its latencies. The two
    sizes are constants of the served index: a read workload does not
    exercise them."""
    return {
        "setup_s": median(served.setup_seconds),
        "peak_rss_mb": peak_rss_mb(served.server.pid),
        "labels_per_element": served.labels_per_element,
        "db_bytes_per_element": served.db_bytes_per_element,
    }


# ---------------------------------------------------------------------
# read-cold
# ---------------------------------------------------------------------

#: heads whose pair counts the oracle sweeps (``cite`` and ``*`` would
#: start a breadth-first search from a thousand elements each)
ORACLE_HEADS = frozenset(
    {"article", "citations", "authors", "metadata", "keywords", "title", "year"}
)


def _keep(bodies: List[Any]):
    """A check that keeps every answer; they are judged after the
    clock stops."""

    def check(position: int, raw: bytes) -> bool:
        bodies[position] = raw
        return True

    return check


def _judge_cold(
    served: Served, requests: Sequence[Tuple[str, str, str]],
    bodies: Sequence[bytes], sample: int, seed: int,
) -> Tuple[int, int]:
    """``(wrong answers, answers compared with the oracle)``.

    Every answer must be a miss (``cached`` false) of the right shape;
    a seeded sample of two-step answers is compared with breadth-first
    search: ``/v1/count`` against the pair count, ``/v1/query`` against
    ``min(limit, pair count)`` with every returned binding a real
    ancestor/descendant pair."""
    wrong = 0
    two_step: List[Tuple[int, str, str, Dict[str, Any]]] = []
    for i, ((cls, endpoint, path), raw) in enumerate(zip(requests, bodies)):
        body = json.loads(raw)
        if body.get("epoch") != 0 or body.get("cached") is True:
            wrong += 1
            continue
        expr = parse_path(path)
        steps = expr.steps
        plain = len(steps) == 2 and not any(
            s.similar or s.predicates or s.axis != "descendant" for s in steps
        )
        if plain and steps[0].tag in ORACLE_HEADS:
            two_step.append((i, steps[0].tag, steps[1].tag, body))
    rng = random.Random(f"oracle-{seed}")
    picked = rng.sample(two_step, min(sample, len(two_step)))
    truth = oracle.pair_counts(
        served.collection, {(head, tail) for _, head, tail, _ in picked}
    )
    succ = oracle.successors(served.collection)
    for i, head, tail, body in picked:
        expected = truth[head, tail]
        if requests[i][1] == "count":
            wrong += body["count"] != expected
            continue
        limit = parse_path(requests[i][2]).limit
        ok = body["total"] == min(limit, expected) == len(body["results"])
        for result in body["results"]:
            u, v = result["bindings"]
            ok = ok and v != u and v in oracle.reachable(succ, u)
        wrong += not ok
    return wrong, len(picked)


def run_cold(ctx: Context) -> dict:
    sizes = ctx.sizes()
    served = set_up(
        ctx.work_dir, ctx.src_dir, ctx.gauge, sizes["docs"], sizes["setups"],
        warm=_warm_cold,
    )
    try:
        requests = ops.cold_requests(ctx.seed, sizes["blocks"])
        lanes = [requests[0::2], requests[1::2]]
        wire: List[List[Request]] = [
            [(query_target(path, endpoint), None) for _, endpoint, path in lane]
            for lane in lanes
        ]
        bodies: List[List[Any]] = [[None] * len(lane) for lane in lanes]
        wall, started, results = run_lanes(
            served.server.port, wire, [_keep(lane) for lane in bodies]
        )
        stats, metrics = _server_counters(served.server.port)
        common = _common_metrics(served)
    finally:
        served.server.stop()

    failed = sum(r.failed for r in results)
    oracle_checked = 0
    if not failed:
        wrong, oracle_checked = _judge_cold(
            served, lanes[0] + lanes[1], bodies[0] + bodies[1],
            sizes["oracle_sample"], ctx.seed,
        )
        failed += wrong
    # the design intent, checked: no request was answered from the
    # result cache, none was shed
    failed += stats["result_cache"]["hits"] != 0
    failed += metrics["shed"]["total"] != 0

    by_class: Dict[str, List[float]] = {}
    latencies: List[float] = []
    for k in range(2):
        if results[k].failed:
            continue
        quiet = results[k].quiet_latencies(ctx.gauge)
        for (cls, _, _), seconds in zip(lanes[k], quiet):
            by_class.setdefault(cls, []).append(seconds)
            latencies.append(seconds)
    queries = [s for cls, values in by_class.items() if cls != "count" for s in values]
    return {
        "attempted": len(requests) + oracle_checked + 2,
        "failed": failed,
        "metrics": dict(
            common,
            primary_ms=median_ms(queries),
            tail_ms=percentile(latencies, 95) * 1000.0,
            secondary_ms=median_ms(by_class["count"]),
            throughput_per_s=len(requests)
            / ctx.gauge.quiet_seconds(started, started + wall),
        ),
        "detail": {
            "class_ms": {
                cls: [round(s * 1000.0, 2) for s in v] for cls, v in by_class.items()
            },
            "setup_s": served.setup_seconds,
        },
    }


# ---------------------------------------------------------------------
# read-hot
# ---------------------------------------------------------------------

def _segments(
    served: Served,
    gauge: SpeedGauge,
    draws: List[List[int]],
    pairs: List[List[Tuple[int, int]]],
) -> Dict[str, Any]:
    """Hot-query and ``/v1/connected`` segments taking turns on the same
    two connections; the first segment of each kind is its warm-up.
    Per timed segment: requests per second and the latencies, both in
    time of the quiet reference host."""
    index = served.index
    tails: List[bytes] = served.warmed
    targets = [query_target(path) for path in ops.hot_paths()]
    out: Dict[str, Any] = {
        "rps": [], "latencies": [], "connected_rps": [],
        "connected_latencies": [], "attempted": 0, "failed": 0,
    }
    #: per timed segment: (prefix of its keys in ``out``, what run_lanes
    #: returned); turned into rates and latencies once the last segment
    #: is over, because asking the gauge about an interval waits for the
    #: sample that closes it
    timed: List[Tuple[str, Tuple[float, float, List[LaneResult]]]] = []

    def run(prefix: str, number: int, wire, checks) -> None:
        segment = run_lanes(served.server.port, wire, checks)
        out["attempted"] += sum(r.attempted for r in segment[2])
        out["failed"] += sum(r.failed for r in segment[2])
        if number:
            timed.append((prefix, segment))

    for number in range(max(len(draws), len(pairs))):
        if number < len(draws):
            lanes = [draws[number][0::2], draws[number][1::2]]
            run(
                "", number,
                [[(targets[i], None) for i in lane] for lane in lanes],
                [(lambda position, raw, lane=lane:
                  _results_tail(raw) == tails[lane[position]])
                 for lane in lanes],
            )
        if number < len(pairs):
            lanes = [pairs[number][0::2], pairs[number][1::2]]
            expected = [
                [b'"connected": true' if index.connected(u, v)
                 else b'"connected": false' for u, v in lane]
                for lane in lanes
            ]
            run(
                "connected_", number,
                [[(f"/v1/connected?source={u}&target={v}", None)
                  for u, v in lane] for lane in lanes],
                [(lambda position, raw, want=want: want[position] in raw)
                 for want in expected],
            )
    for prefix, (wall, started, results) in timed:
        requests = sum(r.attempted for r in results)
        out[prefix + "rps"].append(
            requests / gauge.quiet_seconds(started, started + wall)
        )
        out[prefix + "latencies"].append(
            results[0].quiet_latencies(gauge) + results[1].quiet_latencies(gauge)
        )
    return out


def run_hot(ctx: Context) -> dict:
    sizes = ctx.sizes()
    served = set_up(
        ctx.work_dir, ctx.src_dir, ctx.gauge, sizes["docs"], sizes["setups"],
        warm=_warm_hot,
    )
    try:
        before, _ = _server_counters(served.server.port)
        draws = ops.hot_draws(
            ctx.seed, 1 + sizes["hot_segments"], sizes["hot_segment_requests"]
        )
        pairs = ops.connected_pairs(
            ctx.seed, 1 + sizes["connected_segments"],
            sizes["connected_segment_requests"], served.collection.num_elements,
        )
        seg = _segments(served, ctx.gauge, draws, pairs)
        stats, metrics = _server_counters(served.server.port)
        common = _common_metrics(served)
    finally:
        served.server.stop()

    # over the timed part only: the warm pass is where the misses were
    hits, misses = (
        stats["result_cache"][k] - before["result_cache"][k]
        for k in ("hits", "misses")
    )
    hit_rate = hits / (hits + misses)
    failed = seg["failed"] + (hit_rate < 0.99) + (metrics["shed"]["total"] != 0)
    return {
        "attempted": seg["attempted"] + 2,
        "failed": failed,
        "metrics": dict(
            common,
            primary_ms=median_of_segments(seg["latencies"], 50) * 1000.0,
            # p95, as on read-cold. The p99 (50 samples beyond it per
            # segment) is one stall of the host away from doubling: it
            # moved 29 % between runs and is the per-layer
            # ``service.hot_p99_ms``
            tail_ms=median_of_segments(seg["latencies"], 95) * 1000.0,
            secondary_ms=median_of_segments(seg["connected_latencies"], 50) * 1000.0,
            throughput_per_s=median(seg["rps"]),
        ),
        "detail": {
            "segment_rps": seg["rps"],
            "segment_p95_ms": [
                percentile(s, 95) * 1000.0 for s in seg["latencies"]
            ],
            "segment_p50_ms": [
                percentile(s, 50) * 1000.0 for s in seg["latencies"]
            ],
            "connected_p50_ms": [
                percentile(s, 50) * 1000.0 for s in seg["connected_latencies"]
            ],
            "connected_rps": seg["connected_rps"], "hit_rate": hit_rate,
            "setup_s": served.setup_seconds,
        },
    }


def run(ctx: Context) -> dict:
    return run_cold(ctx) if ctx.workload == "read-cold" else run_hot(ctx)


# ---------------------------------------------------------------------
# --trace 1
# ---------------------------------------------------------------------
#
# The traced requests travel three ways, each on a fresh copy of the
# persisted index so that all three start from the same cache state:
# over HTTP on one connection (span ``http``); in process through
# ``ServiceAPI.dispatch`` plus the JSON encoding the front end would do
# (``request`` > ``service.dispatch``, ``service.serialise``); and layer
# by layer through the query package's public functions (``read`` >
# ``query.parse``, ``query.plan``, ``query.exec``/``query.count``).
# What a layer adds is obtained by subtracting the next one down.

#: the layers each workload's traced run must report
TRACE_LAYERS = {
    "read-cold": (
        "core.probe_pair_us", "core.probe_batch_us_per_candidate",
        "query.parse_us", "query.plan_us", "query.exec_ms", "query.count_ms",
        "query.candidates_per_result", "service.dispatch_overhead_us",
        "service.http_overhead_us", "service.result_cache_hit_rate",
        "service.shed_count", "service.restart_s",
    ),
    "read-hot": (
        "service.cached_dispatch_us", "service.http_overhead_us",
        "service.result_cache_hit_rate", "service.shed_count",
        "service.restart_s", "service.connected_rps", "service.hot_p99_ms",
        "client.cpu_share",
    ),
}

TRACED_COLD_REQUESTS = 40
TRACED_HOT_REQUESTS = 2000
TRACE_COLD_BLOCKS = 5


def _fresh_api(served: Served) -> ServiceAPI:
    index = load_index(served.index_path, backend=corpora.BACKEND)
    return ServiceAPI(QueryService(index))


def _http_pass(tracer: Tracer, served: Served, wire: Sequence[Request]) -> int:
    conn = Connection(served.server.port)
    failed = 0
    try:
        for i, (target, _) in enumerate(wire):
            with tracer.span("http", i):
                status, _ = conn.request(target)
            failed += status != 200
    finally:
        conn.close()
    return failed


def _dispatch_pass(
    tracer: Tracer, api: ServiceAPI, calls: Sequence[Tuple[str, str]]
) -> int:
    """``calls`` are ``(endpoint, path)``; returns the failures."""
    failed = 0
    for i, (endpoint, path) in enumerate(calls):
        with tracer.span("request", i):
            with tracer.span("service.dispatch", i):
                status, payload = api.dispatch(
                    f"/v1/{endpoint}", {"path": [path]}, None
                )
            with tracer.span("service.serialise", i):
                json.dumps(payload).encode("utf-8")
        failed += status != 200
    return failed


def _layer_pass(
    tracer: Tracer, engine: QueryEngine, calls: Sequence[Tuple[str, str]],
    gauge: SpeedGauge,
) -> float:
    t0 = time.perf_counter()
    for i, (endpoint, path) in enumerate(calls):
        counting = endpoint == "count"
        with tracer.span("read", i):
            with tracer.span("query.parse", i):
                expr = parse_path(path)
            with tracer.span("query.plan", i):
                prepared = PreparedQuery(expr)
                prepared.bind(engine, directional=counting)
            if counting:
                with tracer.span("query.count", i):
                    engine.count(prepared)
            else:
                with tracer.span("query.exec", i):
                    engine.evaluate(prepared)
    return gauge.quiet_seconds(t0, time.perf_counter())


class _CountingProbe:
    """A probe that answers from the index and counts the
    ``(source, candidate)`` pairs it was asked about."""

    def __init__(self, index) -> None:
        self.index = index
        self.candidates = 0

    def __call__(self, source, step_key, cand_elems):
        self.candidates += len(cand_elems)
        flags = self.index.connected_many(source, cand_elems)
        return [i for i, ok in enumerate(flags) if ok]

    def many(self, sources, step_key, cand_elems):
        self.candidates += len(sources) * len(cand_elems)
        return dict(zip(sources, self.index.intersect_many(sources, cand_elems)))


def _probe_layers(served: Served, seed: int, gauge: SpeedGauge) -> Dict[str, float]:
    """The cover's two probe shapes, timed directly on the index."""
    index = served.index
    collection = served.collection
    rng = random.Random(f"probe-{seed}")
    elements = sorted(collection.elements)
    pairs = [(rng.choice(elements), rng.choice(elements)) for _ in range(20000)]
    index.connected(*pairs[0])
    t0 = time.perf_counter()
    for u, v in pairs:
        index.connected(u, v)
    pair_us = gauge.quiet_seconds(t0, time.perf_counter()) / len(pairs) * 1e6
    authors = collection.tags()["author"]
    roots = corpora.document_roots(collection)
    t0 = time.perf_counter()
    for root in roots:
        index.connected_many(root, authors)
    batch_us = (
        gauge.quiet_seconds(t0, time.perf_counter())
        / (len(roots) * len(authors)) * 1e6
    )

    engine = QueryEngine(index)
    probe = _CountingProbe(index)
    results = sum(
        len(engine.evaluate(f"{path} limit 1000000", probe=probe))
        for cls in ("two_step_cheap", "two_step", "two_step_heavy")
        for _, path in ops.COLD_SHAPES[cls]
    )
    return {
        "core.probe_pair_us": pair_us,
        "core.probe_batch_us_per_candidate": batch_us,
        "query.candidates_per_result": probe.candidates / results,
    }


def _added_us(tracer: Tracer, outer: Sequence[str], inner: Sequence[str]) -> float:
    """What the ``outer`` spans add to the ``inner`` ones: the median,
    over requests, of the difference for the same request (requests
    differ by three orders of magnitude, so means would not do)."""
    above, below = tracer.by_trace(*outer), tracer.by_trace(*inner)
    return median(above[i] - below[i] for i in above) * 1e6


def trace_cold(ctx: Context) -> dict:
    sizes = ctx.sizes()
    served = set_up(
        ctx.work_dir, ctx.src_dir, ctx.gauge, sizes["docs"], 1, warm=_warm_cold
    )
    tracer = Tracer(ctx.gauge)
    try:
        blocks = min(sizes["blocks"], TRACE_COLD_BLOCKS)
        requests = ops.cold_requests(ctx.seed, blocks)
        traced = requests[: min(TRACED_COLD_REQUESTS, len(requests) // 2)]
        calls = [(endpoint, path) for _, endpoint, path in traced]
        failed = _http_pass(
            tracer, served,
            [(query_target(path, endpoint), None) for endpoint, path in calls],
        )
        # the rest of the list, on two connections as in the untraced
        # run, for the server's own counters
        rest = requests[len(traced):]
        _, _, results = run_lanes(
            served.server.port,
            [[(query_target(p, e), None) for _, e, p in lane]
             for lane in (rest[0::2], rest[1::2])],
            [lambda position, raw: True] * 2,
        )
        failed += sum(r.failed for r in results)
        stats, metrics = _server_counters(served.server.port)
    finally:
        served.server.stop()

    api = _fresh_api(served)
    _dispatch_pass(Tracer(enabled=False), api, [("query", p) for p in WARM_PATHS])
    failed += _dispatch_pass(tracer, api, calls)

    walls = {}
    for enabled in (False, True):
        engine = QueryEngine(load_index(served.index_path, backend=corpora.BACKEND))
        for path in WARM_PATHS:
            engine.evaluate(path)
        walls[enabled] = _layer_pass(
            tracer if enabled else Tracer(enabled=False), engine, calls,
            ctx.gauge,
        )

    durations = tracer.durations()
    cache = stats["result_cache"]
    layers = {
        "trace_overhead_share": (walls[True] - walls[False]) / walls[False],
        "query.parse_us": median(durations["query.parse"]) * 1e6,
        "query.plan_us": median(durations["query.plan"]) * 1e6,
        "query.exec_ms": median_ms(durations["query.exec"]),
        "query.count_ms": median_ms(durations.get("query.count", [0.0])),
        # exec plans for itself, so query.plan is not subtracted twice
        "service.dispatch_overhead_us": _added_us(
            tracer, ["request"], ["query.parse", "query.exec", "query.count"]
        ),
        "service.http_overhead_us": _added_us(tracer, ["http"], ["request"]),
        "service.result_cache_hit_rate": cache["hits"] / (cache["hits"] + cache["misses"]),
        "service.shed_count": metrics["shed"]["total"],
        "service.restart_s": median(served.restart_seconds),
    }
    layers.update(_probe_layers(served, ctx.seed, ctx.gauge))
    return {
        "attempted": len(requests) + len(calls),
        "failed": failed,
        "metrics": layers,
        "tracer": tracer,
    }


def trace_hot(ctx: Context) -> dict:
    sizes = ctx.sizes()
    served = set_up(
        ctx.work_dir, ctx.src_dir, ctx.gauge, sizes["docs"], 1, warm=_warm_hot
    )
    tracer = Tracer(ctx.gauge)
    paths = ops.hot_paths()
    traced_count = min(TRACED_HOT_REQUESTS, sizes["hot_segment_requests"])
    try:
        before, _ = _server_counters(served.server.port)
        draw = ops.hot_draws(ctx.seed, 1, traced_count)[0]
        failed = _http_pass(
            tracer, served, [(query_target(paths[i]), None) for i in draw]
        )
        # the load generator shares the server's core: its share of the
        # CPU the two of them use is what it adds to every hot latency
        client_cpu, server_cpu = -time.process_time(), -cpu_seconds(served.server.pid)
        seg = _segments(
            served, ctx.gauge,
            ops.hot_draws(ctx.seed + 1, 3, sizes["hot_segment_requests"]),
            ops.connected_pairs(
                ctx.seed, 3, sizes["connected_segment_requests"],
                served.collection.num_elements,
            ),
        )
        client_cpu += time.process_time()
        server_cpu += cpu_seconds(served.server.pid)
        stats, metrics = _server_counters(served.server.port)
    finally:
        served.server.stop()
    failed += seg["failed"]

    # every answer is cached, so the state never changes and the traced
    # and untraced passes can alternate on one service
    calls = [("query", paths[i]) for i in draw]
    api = _fresh_api(served)
    quiet = Tracer(enabled=False)
    _dispatch_pass(quiet, api, [("query", p) for p in paths])
    walls: Dict[bool, List[float]] = {False: [], True: []}
    for enabled in (False, True) * 3:
        # only the last traced pass keeps its spans
        recorder = tracer if enabled and len(walls[True]) == 2 else (
            Tracer() if enabled else quiet
        )
        t0 = time.perf_counter()
        failed += _dispatch_pass(recorder, api, calls)
        walls[enabled].append(ctx.gauge.quiet_seconds(t0, time.perf_counter()))

    hits, misses = (
        stats["result_cache"][k] - before["result_cache"][k]
        for k in ("hits", "misses")
    )
    layers = {
        "trace_overhead_share": median(walls[True]) / median(walls[False]) - 1.0,
        "service.cached_dispatch_us": median(tracer.durations()["service.dispatch"]) * 1e6,
        "service.http_overhead_us": _added_us(tracer, ["http"], ["request"]),
        "service.result_cache_hit_rate": hits / (hits + misses),
        "service.shed_count": metrics["shed"]["total"],
        "service.restart_s": median(served.restart_seconds),
        "service.connected_rps": median(seg["connected_rps"]),
        "service.hot_p99_ms": median_of_segments(seg["latencies"], 99) * 1000.0,
        "client.cpu_share": client_cpu / (client_cpu + server_cpu),
    }
    return {
        "attempted": seg["attempted"] + 2 * len(calls),
        "failed": failed,
        "metrics": layers,
        "tracer": tracer,
    }


def trace(ctx: Context) -> dict:
    return trace_cold(ctx) if ctx.workload == "read-cold" else trace_hot(ctx)
