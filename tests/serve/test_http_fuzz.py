"""The typed-error contract of the HTTP layer, fuzzed.

Whatever bytes a peer sends, :func:`repro.serve.http.read_request`
returns a parsed request, returns ``None`` on a clean EOF, or raises
:class:`~repro.serve.http.HttpError` with a 4xx or 501 status — nothing
else escapes.  Over a live tier the same bytes get only non-5xx answers
(501 aside) or a closed connection: never a 500 and never a worker left
hanging.
"""

import asyncio
import socket

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from repro.schemas import build_university_schema
from repro.serve.http import HttpError, Request, read_request

from tests.serve.conftest import make_tier, raw_client

#: Pieces of real requests, so generated input reaches the header,
#: Content-Length and body branches instead of failing on line one.
_FRAGMENTS = [
    b"GET ",
    b"POST ",
    b"PUT ",
    b"/v1/complete",
    b"/v1/query",
    b"/healthz",
    b"/metrics",
    b"/v1/schemas",
    b"/v1/debug",
    b"/nope?x=1",
    b" HTTP/1.1",
    b" HTTP/2",
    b"\r\n",
    b"\r\n\r\n",
    b"\n",
    b":",
    b" ",
    b"Host: x",
    b"Connection: close",
    b"Connection: keep-alive",
    b"Content-Length: ",
    b"Transfer-Encoding: chunked",
    b"X-Deadline-Ms: ",
    b"X-Max-Nodes: ",
    b"X-Request-Id: ",
    b"0",
    b"2",
    b"27",
    b"-1",
    b"nan",
    b"inf",
    b"1e309",
    b"99999999999999999999",
    b"\xff\xfe",
    b"{}",
    b"[]",
    b'{"expression": "ta ~ name"}',
    b'{"expression": "ta ~ name", "e": 2}',
    b'{"expression": 7}',
    b'{"expression": "ta ~ name", "tenant": ["x"]}',
    b'{"expression": "ta ~ name", "e": true}',
    b'{"query": "for t in ta select t ~ name"}',
    b'{"expression": "\\u0000~"}',
    b"[" * 64,
]

_NOISE = st.one_of(
    st.binary(max_size=160),
    st.lists(st.sampled_from(_FRAGMENTS), max_size=24).map(b"".join),
    st.lists(
        st.one_of(st.sampled_from(_FRAGMENTS), st.binary(max_size=6)),
        max_size=16,
    ).map(b"".join),
)

_VALID_GET = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
_VALID_POST = (
    b"POST /v1/complete HTTP/1.1\r\nContent-Length: 27\r\n\r\n"
    b'{"expression": "ta ~ name"}'
)
_DEEP_JSON = b"[" * 100_000
_DEEP_POST = (
    b"POST /v1/complete HTTP/1.1\r\nContent-Length: "
    + str(len(_DEEP_JSON)).encode()
    + b"\r\n\r\n"
    + _DEEP_JSON
)


def _allowed(status: int) -> bool:
    return status < 500 or status == 501


def _parse(raw: bytes, max_body_bytes: int = 4096):
    async def run():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_request(reader, max_body_bytes)

    return asyncio.run(run())


@given(_NOISE)
@example(b"")
@example(_VALID_GET)
@example(_VALID_POST)
@example(b"GET / HTTP/1.1\r\nContent-Length: 99999\r\n\r\n")
@example(b"GET / HTTP/1.1\r\nbad header\r\n\r\n")
@settings(max_examples=300, deadline=None)
def test_read_request_outcomes_are_typed(raw):
    try:
        outcome = _parse(raw)
    except HttpError as error:
        assert 400 <= error.status < 500 or error.status == 501, error.status
        return
    assert outcome is None or isinstance(outcome, Request)
    if outcome is None:
        assert raw == b""


def _responses(stream: bytes) -> list[int]:
    """The status of every complete response in ``stream``."""
    statuses = []
    while stream:
        head, separator, rest = stream.partition(b"\r\n\r\n")
        assert separator, f"truncated response head: {stream[:200]!r}"
        lines = head.decode("latin-1").split("\r\n")
        version, status, _ = lines[0].split(" ", 2)
        assert version == "HTTP/1.1"
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(":")
            if name.lower() == "content-length":
                length = int(value)
        assert len(rest) >= length, "truncated response body"
        statuses.append(int(status))
        stream = rest[length:]
    return statuses


def _exchange(address, raw: bytes, timeout: float = 10.0) -> bytes:
    """Send ``raw``, half-close, and read until the server closes.

    A server that neither answers nor closes within ``timeout`` fails
    the test with ``socket.timeout`` — the hung-worker case.
    """
    with socket.create_connection(address, timeout=timeout) as sock:
        try:
            sock.sendall(raw)
            sock.shutdown(socket.SHUT_WR)
        except OSError:
            pass  # the server already answered and closed
        chunks = []
        while True:
            try:
                chunk = sock.recv(65536)
            except ConnectionResetError:
                break
            if not chunk:
                break
            chunks.append(chunk)
    return b"".join(chunks)


@pytest.fixture(scope="module")
def live_tier():
    tier = make_tier({"university": build_university_schema()})
    yield tier
    tier.stop(drain=False)


@given(_NOISE)
@example(_VALID_GET)
@example(_VALID_POST)
@example(_VALID_GET + _VALID_POST + b"\x00garbage")
@example(_DEEP_POST)
@example(
    b"POST /v1/complete HTTP/1.1\r\nX-Deadline-Ms: nan\r\n"
    b"Content-Length: 27\r\n\r\n" + b'{"expression": "ta ~ name"}'
)
@settings(max_examples=150, deadline=None)
def test_live_tier_never_answers_500_or_hangs(live_tier, raw):
    stream = _exchange(live_tier.address, raw)
    for status in _responses(stream):
        assert _allowed(status), (status, raw[:200], stream[:400])


def test_hostile_bodies_are_400(live_tier):
    for raw in (
        _DEEP_POST,
        b"POST /v1/complete HTTP/1.1\r\nX-Deadline-Ms: nan\r\n"
        b"Content-Length: 27\r\n\r\n" + b'{"expression": "ta ~ name"}',
    ):
        assert _responses(_exchange(live_tier.address, raw)) == [400]


def test_tier_is_healthy_after_the_fuzz(live_tier):
    for raw in (b"\xff" * 64, b"GET / HTTP/1.1\r\n", _DEEP_POST):
        _exchange(live_tier.address, raw)
    client = raw_client(live_tier)
    assert client.healthz().status == 200
    assert client.complete("ta ~ name").status == 200
    assert live_tier.pending == 0
    assert live_tier.metrics.counter("serve.internal_errors").value == 0
