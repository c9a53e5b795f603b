"""Fuzzing the HTTP request parser: malformed requests must never wedge
the front end.

The contract (``repro/service/asyncio_http.py``): any raw request —
junk methods and targets, missing CRLFs, huge, negative or non-numeric
``Content-Length``, truncated bodies, lines over the stream limit —
ends in a JSON response with the structured error shape or a clean
close, **never** a hang and never an exception escaping the connection
handler. After every exchange a fresh connection must still get a 200
from ``/v1/healthz``.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import harness
from harness import start_in_thread
from repro.core.hopi import HopiIndex
from repro.service import QueryService
from repro.service.asyncio_http import MAX_BODY_BYTES
from repro.xmlmodel.generator import dblp_like

#: one past the front end's stream limit (64 KiB per line and per head)
OVER_LIMIT = 64 * 1024 + 1
#: 4 000 header lines of 1 KB: each under the limit, the head far over
MANY_HEADERS = [b"X-Pad-%d: " % i + b"p" * 1000 for i in range(4000)]


@pytest.fixture(scope="module")
def server():
    """A live front end whose event loop records every exception that
    escapes a connection handler."""
    service = QueryService(HopiIndex.build(dblp_like(4, seed=1)))
    escaped = []
    with start_in_thread(service) as handle:
        handle.loop.call_soon_threadsafe(
            handle.loop.set_exception_handler,
            lambda loop, context: escaped.append(context),
        )
        yield handle.address, escaped


def exchange(server, data):
    """Send ``data``; check every response is structured, the server
    still answers ``/v1/healthz``, and nothing escaped the handler."""
    (host, port), escaped = server
    responses = harness.raw_exchange(host, port, data)
    for status, payload in responses:
        if status != 200:
            error = payload["error"]
            assert isinstance(error, dict), payload
            assert error["code"] and error["message"], payload
    [(status, health)] = harness.raw_exchange(
        host, port, b"GET /v1/healthz HTTP/1.1\r\n\r\n"
    )
    assert status == 200 and health["status"] == "ok"
    # the healthz round trip ran the loop past any failed handler's
    # done-callback, so an escaped exception is already recorded
    assert not escaped, escaped
    return responses


_TOKEN = st.text(
    alphabet=st.characters(min_codepoint=0x21, max_codepoint=0x7E), max_size=12
)
_METHODS = st.one_of(
    st.sampled_from(["GET", "POST", "PUT", "DELETE", "HEAD", "get"]), _TOKEN
)
_TARGETS = st.one_of(
    st.sampled_from([
        "/v1/query?path=//article//author&limit=2", "/v1/update",
        "/v1/count?path=%5B", "/v1/stats", "/query", "/", "*", "//[",
        "/v1/connected?source=x", "http://host/v1/healthz",
    ]),
    _TOKEN.map(lambda t: "/" + t),
)
_LENGTHS = st.one_of(
    st.none(),  # no header: the declared body is empty
    st.just("exact"),  # the body's real length
    st.sampled_from([
        "-1", "-0", "+4", "abc", "", "1_0", "4.0", " 4",
        str(MAX_BODY_BYTES + 1), "99999999999999999999",
    ]),
    st.integers(min_value=1, max_value=4096).map(str),  # truncates the body
)


@st.composite
def raw_requests(draw):
    eol = draw(st.sampled_from([b"\r\n", b"\n", b""]))
    line = f"{draw(_METHODS)} {draw(_TARGETS)} HTTP/1.1".encode("latin-1")
    body = draw(st.one_of(
        st.binary(max_size=64),
        st.sampled_from([b'{"ops": []}', b"[]", b"{", b"[" * 5000]),
    ))
    headers = [b"Host: fuzz"]
    length = draw(_LENGTHS)
    if length == "exact":
        headers.append(b"Content-Length: %d" % len(body))
    elif length is not None:
        headers.append(b"Content-Length: " + length.encode("latin-1"))
    if draw(st.booleans()):
        headers.append(b"Connection: close")
    over_limit = draw(
        st.sampled_from([None, None, None, "line", "header", "head"])
    )
    if over_limit == "line":
        line = b"GET /" + b"a" * OVER_LIMIT + b" HTTP/1.1"
    elif over_limit == "header":
        headers.append(b"X-Big: " + b"b" * OVER_LIMIT)
    elif over_limit == "head":
        headers.extend(MANY_HEADERS)
    head = eol.join([line] + headers) + eol + eol
    return head + body


@settings(
    deadline=None, max_examples=60,
    suppress_health_check=[HealthCheck.function_scoped_fixture,
                           HealthCheck.too_slow],
)
@given(data=raw_requests())
def test_malformed_requests_never_wedge_the_front_end(server, data):
    exchange(server, data)


@pytest.mark.parametrize("where", ["line", "header", "head"])
def test_over_limit_head_answers_400(server, where):
    """``readline`` raises once a line passes the stream limit; that
    used to escape the handler and drop the connection unanswered. A
    head of many short lines used to be buffered whole and answered."""
    if where == "line":
        data = b"GET /" + b"a" * OVER_LIMIT + b" HTTP/1.1\r\n\r\n"
    elif where == "header":
        data = (b"GET /v1/stats HTTP/1.1\r\nX-Big: " + b"b" * OVER_LIMIT
                + b"\r\n\r\n")
    else:
        data = b"\r\n".join(
            [b"GET /v1/stats HTTP/1.1"] + MANY_HEADERS
        ) + b"\r\n\r\n"
    [(status, payload)] = exchange(server, data)
    assert status == 400
    assert payload["error"]["code"] == "bad_request"


@pytest.mark.parametrize("length", ["-5", "abc", "+11", "1_1"])
def test_invalid_content_length_answers_400(server, length):
    """A negative length used to read as an empty body and run the
    update; anything but plain digits is now refused before dispatch."""
    data = (b"POST /v1/update HTTP/1.1\r\nContent-Length: "
            + length.encode() + b"\r\n\r\n" + b'{"ops": []}')
    [(status, payload)] = exchange(server, data)
    assert status == 400
    assert payload["error"] == {
        "code": "bad_request", "message": "invalid Content-Length header",
    }
