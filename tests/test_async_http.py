"""The asyncio front end: parity, admission control, fault injection.

The contract under test is the tentpole of the async front-end work:

1. **Bit-identical responses.** The front end adds nothing to what
   :class:`~repro.service.api.ServiceAPI` answers; the differential
   suite here proves it observationally — direct ``dispatch`` calls
   against HTTP, every endpoint, success and error, field for field
   (volatile timing fields normalised, never dropped) — and pins the
   transport-only 400s.
2. **Structured overload.** Open-loop bursts beyond capacity must
   produce *only* 200/429/503, every non-200 carrying the structured
   error body, with zero hung requests — including while a writer
   hot-swaps epochs mid-burst.

Timing-sensitive assertions use generous bounds when ``CI`` is set.
"""

import contextlib
import json
import os
import re
import socketserver
import threading
import time
import urllib.error
import urllib.parse
import urllib.request

import pytest

import harness
from harness import start_in_thread
from repro.core.hopi import HopiIndex
from repro.service import QueryService, ServiceAPI
from repro.service.telemetry import percentile
from repro.xmlmodel.generator import dblp_like

IN_CI = bool(os.environ.get("CI"))
#: ROADMAP gate: p99 within 100x of p50 on the cold-miss mix; CI
#: machines are noisy/oversubscribed, so the bound relaxes there
TAIL_RATIO_BOUND = 1000.0 if IN_CI else 100.0


def build_index(n_docs=12, seed=17):
    return HopiIndex.build(
        dblp_like(n_docs, seed=seed),
        strategy="recursive", partitioner="node_weight", partition_limit=60,
    )


@pytest.fixture(scope="module")
def base_index():
    return build_index()


def fetch(base, path, *, body=None, raw_body=None):
    """GET/POST one URL; returns ``(status, decoded payload)``.

    ``body`` posts JSON; ``raw_body`` posts bytes verbatim (malformed-
    payload probes). HTTP errors are decoded, not raised — error bodies
    are part of the parity contract.
    """
    status, payload, _ = fetch_full(base, path, body=body, raw_body=raw_body)
    return status, payload


def fetch_full(base, path, *, body=None, raw_body=None, headers=None):
    """Like :func:`fetch` but returns ``(status, payload, headers)`` —
    response headers matter for the Retry-After contract — and sends
    optional request headers (client identity for fairness tests)."""
    url = base + path
    if body is None and raw_body is None:
        request = urllib.request.Request(url, headers=headers or {})
    else:
        data = raw_body if raw_body is not None else json.dumps(body).encode()
        request = urllib.request.Request(
            url, data=data, method="POST", headers=headers or {}
        )
    try:
        with urllib.request.urlopen(request, timeout=30) as resp:
            return resp.status, json.loads(resp.read()), dict(resp.headers)
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read()), dict(exc.headers)


#: timing fields that legitimately differ between two services
#: answering the same request — normalised to a sentinel after a
#: sanity check, so a *missing* field still fails parity
VOLATILE_FIELDS = frozenset({
    "seconds", "uptime_seconds", "epoch_age_seconds",
    "p50_ms", "p95_ms", "p99_ms", "avg_ms",
})


def normalize(payload):
    """Replace volatile timing values with a sentinel, recursively."""
    if isinstance(payload, dict):
        out = {}
        for key, value in payload.items():
            if key in VOLATILE_FIELDS:
                assert value is None or value >= 0, (key, value)
                out[key] = "<volatile>"
            else:
                out[key] = normalize(value)
        return out
    if isinstance(payload, list):
        return [normalize(item) for item in payload]
    return payload


def parity_requests(service):
    """The differential request sequence: every endpoint, success and
    error shapes, pagination arithmetic, un-versioned paths, 404s.

    Returns ``(label, path, kwargs)`` rows; the sequence is stateful
    (updates advance the epoch, caches warm deterministically), so it
    must be replayed in order against a fresh service on each side.
    Rows with an ``expect`` of ``(status, error code)`` are rejected by
    the HTTP transport before dispatch (bad JSON, bad
    ``Content-Length``), so they have no dispatch twin; a ``raw`` row
    is sent as verbatim bytes.
    """
    collection = service.index.collection
    docs = sorted(collection.documents)
    root0 = collection.documents[docs[0]].root
    root1 = collection.documents[docs[1]].root
    bad_request = (400, "bad_request")
    return [
        ("query", "/v1/query?path=//article//author&limit=5", {}),
        ("query-cached", "/v1/query?path=//article//author&limit=5", {}),
        ("query-paged", "/v1/query?path=//article//author&limit=3&offset=2", {}),
        ("query-predicate", "/v1/query?path=//article[keywords]//cite", {}),
        ("query-missing-path", "/v1/query", {}),
        ("query-zero-limit", "/v1/query?path=//article//author&limit=0", {}),
        ("query-bad-limit", "/v1/query?path=//article//author&limit=abc", {}),
        ("query-bad-offset", "/v1/query?path=//article//author&offset=-1", {}),
        ("query-bad-path", "/v1/query?path=//article[", {}),
        ("count", "/v1/count?path=//article//author", {}),
        ("count-cached", "/v1/count?path=//article//author", {}),
        ("query-cached-window",
         "/v1/query?path=//article//author&limit=2&offset=4", {}),
        ("query-cached-past-end",
         "/v1/query?path=//article//author&offset=100000", {}),
        ("count-bad-path", "/v1/count?path=%5B%5Bnope", {}),
        ("explain", "/v1/explain?path=//article//cite", {}),
        ("explain-mode", "/v1/explain?path=//article//cite&mode=count", {}),
        ("connected", f"/v1/connected?source={root0}&target={root1}", {}),
        ("connected-missing", f"/v1/connected?source={root0}", {}),
        ("connected-bad-int", "/v1/connected?source=x&target=1", {}),
        ("distance", f"/v1/distance?source={root0}&target={root1}", {}),
        ("stats", "/v1/stats", {}),
        ("healthz", "/v1/healthz", {}),
        ("update", "/v1/update",
         {"body": {"ops": [{"op": "insert_element",
                            "parent": root1, "tag": "note"}]}}),
        ("query-post-swap", "/v1/query?path=//article//note", {}),
        ("update-empty", "/v1/update", {"body": {"ops": []}}),
        ("update-bad-ops", "/v1/update", {"body": {"ops": "notalist"}}),
        ("update-bare-list", "/v1/update", {"body": []}),
        ("update-bad-json", "/v1/update",
         {"raw_body": b"{not json", "expect": bad_request}),
        ("update-bad-length", "/v1/update",
         {"raw": b"POST /v1/update HTTP/1.1\r\nContent-Length: abc\r\n\r\n",
          "expect": bad_request}),
        ("update-negative-length", "/v1/update",
         {"raw": b"POST /v1/update HTTP/1.1\r\nContent-Length: -5\r\n\r\n"
                 b'{"ops": []}',
          "expect": bad_request}),
        ("unversioned-query", "/query?path=//article//author&limit=2", {}),
        ("unversioned-query-limit0", "/query?path=//article//author&limit=0", {}),
        ("unversioned-count", "/count?path=//article//author", {}),
        ("unversioned-stats", "/stats", {}),
        ("unversioned-connected", f"/connected?source={root0}&target={root1}", {}),
        ("unversioned-distance", f"/distance?source={root0}&target={root1}", {}),
        ("unversioned-explain", "/explain?path=//article", {}),
        ("unversioned-update", "/update", {"body": {"ops": []}}),
        ("unversioned-bad-json", "/update",
         {"raw_body": b"\xff\xfe", "expect": bad_request}),
        ("v1-404", "/v1/nope", {}),
        ("root-404", "/nope", {}),
        ("metrics", "/v1/metrics", {}),
    ]


def run_parity(make_service):
    """Replay the differential sequence: direct ``ServiceAPI.dispatch``
    calls against the async HTTP front end.

    ``make_service`` builds a *fresh* service per side (same index,
    same config) so cache state evolves identically; any field-level
    divergence fails with the offending label.
    """
    direct_service = make_service()
    http_service = make_service()
    api = ServiceAPI(direct_service)
    try:
        with start_in_thread(http_service) as handle:
            host, port = handle.address
            for label, path, kwargs in parity_requests(direct_service):
                if "raw" in kwargs:
                    [(status_h, payload_h)] = harness.raw_exchange(
                        host, port, kwargs["raw"]
                    )
                else:
                    status_h, payload_h = fetch(
                        handle.base_url, path,
                        body=kwargs.get("body"),
                        raw_body=kwargs.get("raw_body"),
                    )
                if "expect" in kwargs:
                    # rejected by the transport before any dispatch
                    assert (status_h, payload_h["error"]["code"]) == (
                        kwargs["expect"]
                    ), (label, status_h, payload_h)
                    continue
                url = urllib.parse.urlparse(path)
                status_d, payload_d = api.dispatch(
                    url.path, urllib.parse.parse_qs(url.query),
                    kwargs.get("body"),
                )
                assert status_d == status_h, (
                    f"{label}: status {status_d} (dispatch) != "
                    f"{status_h} (http)"
                )
                if status_h == 404:
                    assert payload_h["error"]["code"] == "not_found", label
                if label == "metrics":
                    # the admission-control gauges exist only behind
                    # the front end; everything else must agree
                    assert "inflight" in payload_h.pop("gauges")
                    assert payload_d.pop("gauges") == {}
                assert normalize(payload_d) == normalize(payload_h), (
                    f"{label}: payload divergence"
                )
    finally:
        direct_service.close()
        http_service.close()


class TestDifferentialParity:
    def test_unsharded(self, base_index):
        run_parity(lambda: QueryService(base_index.copy()))


# ---------------------------------------------------------------------------
# result-cache hits answered on the event loop from pre-rendered bytes
# ---------------------------------------------------------------------------


def without_seconds(raw):
    """A JSON body with its one volatile field blanked."""
    return re.sub(rb'"seconds": [^,]+,', b'"seconds": 0,', raw)


def get_raw(base, path):
    with urllib.request.urlopen(base + path, timeout=30) as resp:
        return resp.status, resp.read()


class TestCachedBytePath:
    @pytest.mark.parametrize("query", [
        "",                          # no limit: the whole list
        "&limit=5",
        "&limit=3&offset=2",
        "&offset=7",
        "&offset=100000",            # offset >= total
        "&limit=4&offset=100000",
    ])
    def test_hit_body_is_json_of_the_dispatch_payload(self, base_index, query):
        service = QueryService(base_index.copy())
        api = ServiceAPI(service)
        target = "/v1/query?path=//article//author" + query
        url = urllib.parse.urlparse(target)
        params = urllib.parse.parse_qs(url.query)
        assert api.answer_now(url.path, params) is None  # cold
        api.dispatch(url.path, params, None)
        status, body = api.answer_now(url.path, params)
        _, payload = api.dispatch(url.path, params, None)
        assert status == 200
        assert payload["cached"] is True
        assert without_seconds(body) == without_seconds(
            json.dumps(payload).encode()
        )

    def test_truncated_list_and_count_render_like_dispatch(self, base_index):
        service = QueryService(base_index.copy(), max_results=7)
        api = ServiceAPI(service)
        for target in [
            "/v1/query?path=//article//author&limit=5&offset=4",
            "/v1/query?path=//article//author",
            # the count answer echoes the raw parameter, not the plan key
            "/v1/count?path=//article//author%20%20limit%20%203",
        ]:
            url = urllib.parse.urlparse(target)
            params = urllib.parse.parse_qs(url.query)
            api.dispatch(url.path, params, None)
            status, body = api.answer_now(url.path, params)
            _, payload = api.dispatch(url.path, params, None)
            assert status == 200, target
            assert without_seconds(body) == without_seconds(
                json.dumps(payload).encode()
            ), target
        assert json.loads(body)["path"] == "//article//author  limit  3"
        query = json.loads(api.answer_now(
            "/v1/query", {"path": ["//article//author"]}
        )[1])
        assert query["truncated"] is True and query["total"] == 7

    @pytest.mark.parametrize("query", [
        "connected?source={0}&target={1}",
        "connected?source={1}&target={0}",
        "connected?source={0}",              # missing target
        "connected?source=x&target=1",       # not an integer
        "distance?source={0}&target={1}",    # not distance-aware
        "distance?target=1",
    ])
    def test_point_reads_are_the_dispatch_bytes(self, base_index, query):
        """A point read answers on the loop with ``json.dumps`` of the
        dispatch payload, its error answers included."""
        service = QueryService(base_index.copy())
        api = ServiceAPI(service)
        url = urllib.parse.urlparse("/v1/" + query.format(0, 1))
        params = urllib.parse.parse_qs(url.query)
        status, payload = api.dispatch(url.path, params, None)
        assert api.answer_now(url.path, params) == (
            status, json.dumps(payload).encode()
        )

    def test_hits_skip_the_worker_pool(self, base_index):
        service = QueryService(base_index.copy())
        with start_in_thread(service) as handle:
            api = handle.server.api
            ran = []
            run = api.run
            api.run = lambda *args: ran.append(args[1]) or run(*args)
            target = "/v1/query?path=//article//cite&limit=4&offset=1"
            status, first = get_raw(handle.base_url, target)
            assert status == 200 and ran == ["/v1/query"]
            status, again = get_raw(handle.base_url, target)
            assert status == 200 and ran == ["/v1/query"]
            assert json.loads(first)["cached"] is False
            assert json.loads(again)["cached"] is True
            tail = first.index(b'"count"')
            assert again[again.index(b'"count"'):] == first[tail:]

    def test_a_hit_after_a_publish_answers_the_new_epoch(self, base_index):
        service = QueryService(base_index.copy())
        root = service.index.collection.documents[
            sorted(service.index.collection.documents)[0]
        ].root
        target = "/v1/query?path=//article//note"
        with start_in_thread(service) as handle:
            for _ in range(2):
                status, payload = fetch(handle.base_url, target)
                assert (status, payload["epoch"], payload["count"]) == (200, 0, 0)
            assert payload["cached"] is True
            status, report = fetch(
                handle.base_url, "/v1/update",
                body={"ops": [{"op": "insert_element", "parent": root,
                               "tag": "note"}]},
            )
            assert status == 200 and report["epoch"] > 0
            answers = []
            for cached in (False, True):
                status, payload = fetch(handle.base_url, target)
                assert status == 200
                assert (payload["epoch"], payload["cached"]) == (
                    report["epoch"], cached
                )
                answers.append(payload["results"])
            # the new note, reached from every article that links to it
            assert answers[0] and answers[0] == answers[1]


# ---------------------------------------------------------------------------
# admission control under open-loop overload
# ---------------------------------------------------------------------------


class SlowService:
    """Delegating service whose query path takes a fixed minimum time —
    makes overload deterministic on arbitrarily fast machines."""

    def __init__(self, inner, delay):
        self._inner = inner
        self._delay = delay

    def query(self, *args, **kwargs):
        time.sleep(self._delay)
        return self._inner.query(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TestOverload:
    def test_open_loop_burst_sheds_structurally(self, base_index):
        """Beyond capacity, every answer is 200/429/503 with the
        structured body — zero hangs, zero bare 500s — while a writer
        hot-swaps the index mid-burst."""
        service = SlowService(QueryService(base_index.copy()), delay=0.05)
        with start_in_thread(
            service, max_inflight=2, queue_depth=2
        ) as handle:
            host, port = handle.address
            paths = [
                f"/v1/query?path={p.replace('[', '%5B').replace(']', '%5D')}"
                for p in harness.cold_miss_paths(64, seed=3)
            ]

            swaps = []

            def writer():
                # hot-swap concurrently with the burst: overload must
                # not tear epochs or wedge the maintenance path
                for _ in range(3):
                    report = service.update([])
                    swaps.append(report["epoch"])
                    time.sleep(0.2)

            writer_thread = threading.Thread(target=writer, daemon=True)
            writer_thread.start()
            report = harness.open_loop_burst(
                host, port, paths, rate=150.0, duration=1.0, timeout=30.0,
            )
            writer_thread.join(timeout=30)

        summary = report.summary()
        assert report.total >= 100, summary
        assert report.hung == 0, summary
        assert report.unstructured == 0, summary
        assert report.unexpected == 0, summary
        # capacity is ~(2 workers / 50ms) = 40/s against 150/s offered:
        # admission control must actually shed, and still answer some
        assert report.shed > 0, summary
        assert report.ok > 0, summary
        assert all(
            o.error_code == "overloaded"
            for o in report.outcomes if o.status == 429
        )
        # every shed answer carries a usable backoff hint
        assert all(
            o.retry_after is not None and o.retry_after >= 1
            for o in report.outcomes if o.status in (429, 503)
        ), summary
        assert len(swaps) == 3  # the writer completed through the burst

    def test_shed_requests_are_fast_and_counted(self, base_index):
        """A 429 is useful only if it is cheap: shed answers must come
        back orders of magnitude faster than a queued evaluation, and
        the shed counters must land in /v1/metrics."""
        service = SlowService(QueryService(base_index.copy()), delay=0.2)
        with start_in_thread(
            service, max_inflight=1, queue_depth=0
        ) as handle:
            host, port = handle.address
            # one request occupies the only worker slot...
            blocker = threading.Thread(
                target=fetch,
                args=(handle.base_url, "/v1/query?path=//article//author"),
                daemon=True,
            )
            blocker.start()
            time.sleep(0.05)  # let it claim the slot
            t0 = time.perf_counter()
            status, payload, resp_headers = fetch_full(
                handle.base_url, "/v1/query?path=//article//cite"
            )
            shed_elapsed = time.perf_counter() - t0
            blocker.join(timeout=10)

            assert status == 429
            assert payload["error"]["code"] == "overloaded"
            # a shed response tells the client when to come back, in
            # both the structured body and the standard header
            assert payload["retry_after_seconds"] >= 1
            assert resp_headers["Retry-After"] == str(
                payload["retry_after_seconds"]
            )
            bound = 2.0 if IN_CI else 0.15
            assert shed_elapsed < bound, shed_elapsed

            _, metrics = fetch(handle.base_url, "/v1/metrics")
            assert metrics["shed"]["queue_full"] >= 1
            assert metrics["shed"]["total"] >= 1
            assert metrics["gauges"]["max_inflight"] == 1
            assert metrics["gauges"]["queue_limit"] == 0

    def test_endpoint_deadline_answers_structured_503(self, base_index):
        service = SlowService(QueryService(base_index.copy()), delay=0.5)
        with start_in_thread(
            service, max_inflight=2, queue_depth=2,
            timeouts={"query": 0.05},
        ) as handle:
            status, payload, resp_headers = fetch_full(
                handle.base_url, "/v1/query?path=//article//author"
            )
            assert status == 503
            assert payload["error"]["code"] == "overloaded"
            assert payload["retry"] is True
            assert payload["retry_after_seconds"] >= 1
            assert resp_headers["Retry-After"] == str(
                payload["retry_after_seconds"]
            )
            _, metrics = fetch(handle.base_url, "/v1/metrics")
            assert metrics["shed"]["timeout"] >= 1

    def test_a_missed_deadline_is_recorded_once(self, base_index):
        """The abandoned worker used to record a 200 when it finished,
        on top of the 503 that was actually sent."""
        service = SlowService(QueryService(base_index.copy()), delay=0.3)
        with start_in_thread(
            service, max_inflight=1, queue_depth=0,
            timeouts={"query": 0.05},
        ) as handle:
            status, _ = fetch(handle.base_url, "/v1/query?path=//article//author")
            assert status == 503
            handle.server._pool.shutdown(wait=True)  # the worker finishes
            assert service.stats()["requests"]["query"] == 1
            _, metrics = fetch(handle.base_url, "/v1/metrics")
        assert metrics["endpoints"]["query"]["count"] == 1
        assert metrics["counters"]["responses_5xx"] == 1
        assert "responses_2xx" not in metrics["counters"]

    def test_control_plane_bypasses_admission(self, base_index):
        """healthz, point reads, unknown routes and metrics answer even
        when the data plane is saturated: healthz, connected, distance
        and the unknown route's 404 on the event loop, metrics on a
        dedicated pool, none through the admission gate — so none is
        shed, each route is counted once and the unknown one not at
        all."""
        service = SlowService(QueryService(base_index.copy()), delay=0.5)
        with start_in_thread(
            service, max_inflight=1, queue_depth=0
        ) as handle:
            blocker = threading.Thread(
                target=fetch,
                args=(handle.base_url, "/v1/query?path=//article//author"),
                daemon=True,
            )
            blocker.start()
            time.sleep(0.05)
            t0 = time.perf_counter()
            status_h, health = fetch(handle.base_url, "/v1/healthz")
            status_c, connected = fetch(
                handle.base_url, "/v1/connected?source=0&target=1"
            )
            status_d, distance = fetch(
                handle.base_url, "/v1/distance?source=0&target=1"
            )
            status_n, nope = fetch(handle.base_url, "/v1/nope")
            status_m, metrics = fetch(handle.base_url, "/v1/metrics")
            elapsed = time.perf_counter() - t0
            blocker.join(timeout=10)

            assert status_h == 200 and health["status"] == "ok"
            # the only worker is busy and no queue slot exists, so an
            # admitted request would have been a 429
            assert status_c == 200 and connected["connected"] is True
            # the plain index's structured 400, not a shed
            assert status_d == 400, distance
            assert distance["error"]["code"] == "bad_request"
            assert "distance=True" in distance["error"]["message"]
            # the structured 404, not a shed
            assert status_n == 404 and nope["error"]["code"] == "not_found"
            assert status_m == 200
            assert metrics["gauges"]["inflight"] >= 1  # saw the busy worker
            assert metrics["shed"]["total"] == 0
            for name in ("healthz", "connected", "distance"):
                assert metrics["endpoints"][name]["count"] == 1, name
            assert "unknown" not in metrics["endpoints"]
            bound = 2.0 if IN_CI else 0.4
            assert elapsed < bound, elapsed


# ---------------------------------------------------------------------------
# per-client fairness
# ---------------------------------------------------------------------------


class TestPerClientFairness:
    def test_flooding_client_cannot_starve_another(self, base_index):
        """One client key may hold at most ``max_client_share`` of the
        admission window: a flooder is shed at its cap (429,
        ``shed_client_cap``) while a second client's request is still
        admitted and answered."""
        service = SlowService(QueryService(base_index.copy()), delay=0.3)
        with start_in_thread(
            service, max_inflight=1, queue_depth=3, max_client_share=0.5
        ) as handle:
            # window = 1 + 3 = 4 slots; cap = 2 per client key
            flood_results = []
            flood_lock = threading.Lock()

            def flood():
                result = fetch_full(
                    handle.base_url, "/v1/query?path=//article//author",
                    headers={"X-Client-Id": "flooder"},
                )
                with flood_lock:
                    flood_results.append(result)

            threads = [
                threading.Thread(target=flood, daemon=True) for _ in range(4)
            ]
            for t in threads:
                t.start()
            time.sleep(0.1)  # let the flood fill (and overflow) its share
            status, payload, _ = fetch_full(
                handle.base_url, "/v1/query?path=//article//cite",
                headers={"X-Client-Id": "polite"},
            )
            for t in threads:
                t.join(timeout=15)

            # the polite client rode the flooder's unreachable slots
            assert status == 200, payload
            shed = [r for r in flood_results if r[0] == 429]
            served = [r for r in flood_results if r[0] == 200]
            assert shed, [r[0] for r in flood_results]
            assert served, [r[0] for r in flood_results]
            for _, body, resp_headers in shed:
                assert body["error"]["code"] == "overloaded"
                assert body["retry_after_seconds"] >= 1
                assert resp_headers["Retry-After"] == str(
                    body["retry_after_seconds"]
                )
            _, metrics = fetch(handle.base_url, "/v1/metrics")
            assert metrics["shed"]["client_cap"] >= 1
            assert metrics["shed"]["total"] >= 1
            assert metrics["gauges"]["client_cap"] == 2

    def test_distinct_clients_share_the_window(self, base_index):
        """Two clients below their caps are both admitted — the cap
        binds per key, not globally."""
        service = SlowService(QueryService(base_index.copy()), delay=0.05)
        with start_in_thread(
            service, max_inflight=2, queue_depth=2, max_client_share=0.5
        ) as handle:
            for client in ("alpha", "beta", "alpha", "beta"):
                status, payload, _ = fetch_full(
                    handle.base_url, "/v1/query?path=//article//author",
                    headers={"X-Client-Id": client},
                )
                assert status == 200, (client, payload)
            _, metrics = fetch(handle.base_url, "/v1/metrics")
            assert metrics["shed"]["client_cap"] == 0


# ---------------------------------------------------------------------------
# cold-miss convoy: coalescing survives the new front end
# ---------------------------------------------------------------------------


class TestColdMissConvoy:
    def test_convoy_coalesces_to_one_evaluation(self, base_index):
        service = QueryService(base_index.copy())
        with start_in_thread(service, max_inflight=8) as handle:
            host, port = handle.address
            outcomes = harness.cold_miss_convoy(
                host, port,
                "/v1/query?path=//article%5Bkeywords%5D//cite",
                n_clients=8,
            )
        assert len(outcomes) == 8
        assert all(o.status == 200 for o in outcomes)
        stats = service.stats()["result_cache"]
        # single flight: one compute; everyone else coalesced onto it
        # or hit the cache right after it landed. A coalesced request
        # looked the key up (and missed) before it joined the leader, so
        # misses count the leader plus the coalesced — how many of the
        # seven overlap the leader depends on how long the one cold
        # evaluation takes
        assert stats["coalesced"] + stats["hits"] == 7
        assert stats["misses"] == 1 + stats["coalesced"]


# ---------------------------------------------------------------------------
# tail latency: the ROADMAP gate
# ---------------------------------------------------------------------------


class TestTailLatency:
    def test_cold_miss_tail_within_bound(self, base_index):
        """16 concurrent clients on an all-cold-miss mix: p99 within
        100x of p50 (1000x under CI). Every request compiles a distinct
        plan, so p50 and p99 measure the same code path — the old
        thread-per-connection front end showed 25000x here."""
        service = QueryService(base_index.copy())
        with start_in_thread(service, max_inflight=8) as handle:
            host, port = handle.address
            paths = [
                "/v1/query?path="
                + p.replace("[", "%5B").replace("]", "%5D")
                for p in harness.cold_miss_paths(128, seed=11)
            ]
            outcomes = harness.closed_loop_clients(
                host, port, paths, n_clients=16, requests_per_client=8,
            )
        assert len(outcomes) == 128
        assert all(o.status == 200 for o in outcomes)
        latencies = sorted(o.elapsed for o in outcomes)
        p50 = percentile(latencies, 0.50)
        p99 = percentile(latencies, 0.99)
        assert p50 > 0
        assert p99 <= TAIL_RATIO_BOUND * p50, (
            f"p50={p50 * 1e3:.3f}ms p99={p99 * 1e3:.3f}ms "
            f"ratio={p99 / p50:.0f}x bound={TAIL_RATIO_BOUND:.0f}x"
        )


# ---------------------------------------------------------------------------
# the load generators themselves: a request must never leave the report
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def stub_server(respond):
    """A throwaway TCP server: ``respond(sock)`` answers each connection
    after its request head has arrived. Yields ``(host, port)``."""

    class Handler(socketserver.BaseRequestHandler):
        def handle(self):
            head = b""
            while b"\r\n\r\n" not in head:
                head += self.request.recv(4096)
            try:
                respond(self.request)
            except OSError:
                pass  # the client gave up first

    class Server(socketserver.ThreadingTCPServer):
        daemon_threads = True
        allow_reuse_address = True

    with Server(("127.0.0.1", 0), Handler) as server:
        thread = threading.Thread(
            target=server.serve_forever, args=(0.02,), daemon=True
        )
        thread.start()
        try:
            yield server.server_address
        finally:
            server.shutdown()
            thread.join(timeout=10)


class TestLoadGenerators:
    def test_malformed_retry_after_counts_as_unstructured(self):
        """A shed whose Retry-After is not an integer used to raise in
        the sender thread and drop out of the report altogether."""
        body = b'{"error": {"code": "overloaded", "message": "busy"}}'

        def respond(sock):
            sock.sendall(
                b"HTTP/1.1 429 Too Many Requests\r\nRetry-After: soon\r\n"
                b"Content-Type: application/json\r\nContent-Length: "
                + str(len(body)).encode() + b"\r\n\r\n" + body
            )

        with stub_server(respond) as (host, port):
            report = harness.open_loop_burst(
                host, port, ["/v1/query?path=//a"], rate=30.0, duration=0.1,
                timeout=5.0,
            )
        assert report.summary() == {
            "total": 3, "ok": 0, "shed": 3, "degraded": 0, "hung": 0,
            "unstructured": 3, "unexpected": 0,
        }

    def test_sender_outliving_the_join_counts_as_hung(self, monkeypatch):
        """A response trickling in under the per-read socket timeout
        keeps its sender alive past the join; it used to be omitted."""
        monkeypatch.setattr(harness, "JOIN_GRACE", 0.05)

        def respond(sock):
            sock.sendall(b"HTTP/1.1 200 OK\r\nContent-Length: 1000\r\n\r\n")
            for _ in range(50):  # a 1 s drip, each read well inside 0.2 s
                sock.sendall(b" ")
                time.sleep(0.02)

        with stub_server(respond) as (host, port):
            report = harness.open_loop_burst(
                host, port, ["/v1/stats"], rate=20.0, duration=0.1,
                timeout=0.2,
            )
            convoy = harness.cold_miss_convoy(
                host, port, "/v1/stats", n_clients=2, timeout=0.2,
            )
        assert (report.total, report.hung) == (2, 2)
        assert [o.hung for o in convoy] == [True, True]
