"""Unit tests of the minimal HTTP layer (parsing, framing, limits)."""

import asyncio
import json

import pytest

from repro.serve.http import (
    HttpError,
    Request,
    json_body,
    json_response,
    read_request,
    render_response,
)


def parse(raw: bytes, max_body_bytes: int = 1 << 20):
    """Drive read_request over a fed StreamReader, synchronously."""

    async def run():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_request(reader, max_body_bytes)

    return asyncio.run(run())


class TestRequestParsing:
    def test_simple_get(self):
        request = parse(b"GET /healthz?verbose=1 HTTP/1.1\r\nHost: x\r\n\r\n")
        assert request.method == "GET"
        assert request.path == "/healthz"
        assert request.query == "verbose=1"
        assert request.headers["host"] == "x"
        assert request.body == b""

    def test_post_with_body(self):
        body = b'{"expression": "ta ~ name"}'
        raw = (
            b"POST /v1/complete HTTP/1.1\r\n"
            b"Content-Type: application/json\r\n"
            + f"Content-Length: {len(body)}\r\n\r\n".encode()
            + body
        )
        request = parse(raw)
        assert request.method == "POST"
        assert json_body(request) == {"expression": "ta ~ name"}

    def test_header_names_are_lowercased(self):
        request = parse(b"GET / HTTP/1.1\r\nX-Deadline-Ms: 250\r\n\r\n")
        assert request.headers["x-deadline-ms"] == "250"

    def test_clean_eof_returns_none(self):
        assert parse(b"") is None

    def test_truncated_request_is_400(self):
        with pytest.raises(HttpError) as exc:
            parse(b"GET / HTTP/1.1\r\nHost")
        assert exc.value.status == 400

    def test_malformed_request_line_is_400(self):
        with pytest.raises(HttpError) as exc:
            parse(b"BROKEN\r\n\r\n")
        assert exc.value.status == 400

    def test_http2_preface_is_rejected(self):
        with pytest.raises(HttpError) as exc:
            parse(b"PRI * HTTP/2.0\r\n\r\n")
        assert exc.value.status == 400

    def test_chunked_transfer_is_501(self):
        raw = b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
        with pytest.raises(HttpError) as exc:
            parse(raw)
        assert exc.value.status == 501

    def test_oversized_body_is_413(self):
        raw = b"POST / HTTP/1.1\r\nContent-Length: 100\r\n\r\n" + b"x" * 100
        with pytest.raises(HttpError) as exc:
            parse(raw, max_body_bytes=10)
        assert exc.value.status == 413

    def test_negative_content_length_is_400(self):
        with pytest.raises(HttpError) as exc:
            parse(b"POST / HTTP/1.1\r\nContent-Length: -5\r\n\r\n")
        assert exc.value.status == 400

    def test_non_numeric_content_length_is_400(self):
        with pytest.raises(HttpError) as exc:
            parse(b"POST / HTTP/1.1\r\nContent-Length: many\r\n\r\n")
        assert exc.value.status == 400


class TestKeepAlive:
    def test_http11_defaults_to_keep_alive(self):
        request = parse(b"GET / HTTP/1.1\r\n\r\n")
        assert request.keep_alive

    def test_connection_close_is_honoured(self):
        request = parse(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
        assert not request.keep_alive


class TestJsonBody:
    def _request(self, body: bytes) -> Request:
        return Request(
            method="POST", path="/", query="", headers={}, body=body
        )

    def test_empty_body_is_400(self):
        with pytest.raises(HttpError) as exc:
            json_body(self._request(b""))
        assert exc.value.status == 400

    def test_invalid_json_is_400(self):
        with pytest.raises(HttpError) as exc:
            json_body(self._request(b"{nope"))
        assert exc.value.status == 400

    def test_non_object_json_is_400(self):
        with pytest.raises(HttpError) as exc:
            json_body(self._request(b"[1, 2]"))
        assert exc.value.status == 400


class TestResponses:
    def test_render_carries_length_and_connection(self):
        raw = render_response(200, b"hi", keep_alive=False)
        head, _, body = raw.partition(b"\r\n\r\n")
        assert b"HTTP/1.1 200 OK" in head
        assert b"Content-Length: 2" in head
        assert b"Connection: close" in head
        assert body == b"hi"

    def test_extra_headers_are_emitted(self):
        raw = render_response(
            429, b"{}", extra_headers={"Retry-After": "0.25"}
        )
        assert b"Retry-After: 0.25" in raw

    def test_json_response_round_trips(self):
        raw = json_response(206, {"b": 2, "a": 1})
        head, _, body = raw.partition(b"\r\n\r\n")
        assert b"206 Partial Content" in head
        assert json.loads(body) == {"a": 1, "b": 2}
        assert body.endswith(b"\n")

    def test_date_header_is_formatted_once_per_second(self, monkeypatch):
        from email.utils import formatdate

        from repro.serve import http

        calls = []

        def counting(timeval=None, localtime=False, usegmt=False):
            calls.append(timeval)
            return formatdate(timeval, localtime, usegmt)

        now = [1_700_000_000.25]
        monkeypatch.setattr(http, "formatdate", counting)
        monkeypatch.setattr(http.time, "time", lambda: now[0])
        http._http_date.cache_clear()
        try:
            first = render_response(200, b"")
            now[0] += 0.5
            second = render_response(200, b"")
            now[0] += 0.5
            third = render_response(200, b"")
        finally:
            http._http_date.cache_clear()
        assert calls == [1_700_000_000, 1_700_000_001]
        date = [
            line
            for line in first.split(b"\r\n")
            if line.startswith(b"Date: ")
        ]
        assert date == [b"Date: Tue, 14 Nov 2023 22:13:20 GMT"]
        assert date[0] in second
        assert date[0] not in third
        assert b"Date: Tue, 14 Nov 2023 22:13:21 GMT" in third
