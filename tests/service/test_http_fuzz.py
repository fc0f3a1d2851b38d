"""Fuzz the HTTP front-end's request reader and router.

Whatever bytes arrive, the reader returns a parsed request or raises an
``_HttpError`` with a 4xx status, and the router answers a 2xx or raises a
4xx ``_HttpError``.  Any other exception would reach the server's catch-all
and answer 500, which is the server's fault, not the client's.
"""

import asyncio

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.engine import StudySpec
from repro.service import AnalysisService, ServiceServer
from repro.service.app import StudyRecord
from repro.service.http import MAX_BODY_BYTES, MAX_HEADER_BYTES, _HttpError, _read_request

#: Characters a request head can carry once decoded as latin-1.
LATIN1 = st.text(st.characters(max_codepoint=255), max_size=24)

METHODS = st.sampled_from(["GET", "POST", "PUT", "DELETE"]) | LATIN1

TARGETS = (
    st.sampled_from(
        ["/v1/healthz", "/v1/stats", "/v1/studies", "/v1/search?wait=1", "/v1/studies/x", "//["]
    )
    | st.builds(
        lambda prefix, rest: prefix + rest,
        st.sampled_from(["/v1/studies", "/v1/search/", "//", "http://[", "?", "/v1/stats#"]),
        LATIN1,
    )
    | st.text(max_size=24)
)

#: A request head shaped like HTTP: a request line, header lines (often a
#: Content-Length, valid or not), the blank line, then a body of any length.
HEADS = st.builds(
    lambda line, headers, body: (
        line + "\r\n" + "".join(header + "\r\n" for header in headers) + "\r\n"
    ).encode("latin-1")
    + body,
    LATIN1
    | st.builds(
        lambda method, target, version: f"{method} {target} {version}",
        METHODS,
        TARGETS.filter(lambda target: all(ord(char) < 256 for char in target)),
        st.sampled_from(["HTTP/1.1", "HTTP/1.0", "HTTP/2", ""]) | LATIN1,
    ),
    st.lists(
        LATIN1
        | st.builds(
            lambda value: f"Content-Length: {value}",
            st.integers(-3, 40).map(str) | st.sampled_from(["+5", "1_0", "-0"]) | LATIN1,
        ),
        max_size=4,
    ),
    st.binary(max_size=48),
)


def _is_client_error(error: _HttpError) -> bool:
    return 400 <= error.status < 500


def _read(data: bytes):
    async def _go():
        reader = asyncio.StreamReader(limit=MAX_HEADER_BYTES + MAX_BODY_BYTES)
        reader.feed_data(data)
        reader.feed_eof()
        return await _read_request(reader)

    return asyncio.run(_go())


def _stub_server() -> ServiceServer:
    """A server whose service answers every submission with a done record."""
    service = AnalysisService(runner=lambda spec, executor: {})

    async def submit(body):
        record = StudyRecord(
            study_id="study-1",
            spec=StudySpec(circuit="and", seed=1),
            cache_key=None,
            status="done",
            result={},
        )
        record.done_event.set()
        return record

    service.submit = submit
    service.submit_search = submit
    return ServiceServer(service=service)


SERVER = _stub_server()


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=96) | HEADS)
@example(b"GET //[ HTTP/1.1\r\n\r\n")
@example(b"POST /v1/studies HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n")
@example(b"POST /v1/studies HTTP/1.1\r\nContent-Length: " + b"9" * 5000 + b"\r\n\r\n")
@example(b"")
@example(b"POST /v1/studies HTTP/1.1\r\nContent-Length: +5\r\n\r\nhello")
@example(b"POST /v1/studies HTTP/1.1\r\nContent-Length: 1_0\r\n\r\n0123456789")
@example(b"POST /v1/studies HTTP/1.1\r\nContent-Length: -0\r\n\r\n")
def test_reader_parses_or_answers_4xx(data):
    try:
        method, target, headers, body = _read(data)
    except _HttpError as error:
        assert _is_client_error(error), error.status
        return
    assert isinstance(method, str) and isinstance(target, str)
    assert isinstance(headers, dict) and isinstance(body, bytes)
    # A body is framed by a Content-Length of ASCII digits only.
    length = headers.get("content-length")
    assert length is None or (length.isascii() and length.isdigit() and len(body) == int(length))


@settings(max_examples=300, deadline=None)
@given(METHODS, TARGETS, st.binary(max_size=16))
@example("GET", "//[", b"")
@example("GET", "http://[::1/v1/stats", b"")
@example("POST", "/v1/studies?wait=1", b"{}")
def test_router_answers_2xx_or_4xx(method, target, body):
    try:
        status, response, _retry_after = asyncio.run(SERVER._route(method, target, body))
    except _HttpError as error:
        assert _is_client_error(error), error.status
        return
    assert 200 <= status < 300
    assert isinstance(response, dict)
