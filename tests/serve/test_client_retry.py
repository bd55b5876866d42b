"""The bundled client's retry behaviour against canned responses."""

import json
import socket
import threading

import pytest

from repro.resilience.retry import RetryExhaustedError, RetryPolicy
from repro.serve.client import ServeClient, TransientServerError


class CannedServer:
    """A one-thread TCP server answering each connection from a script."""

    def __init__(self, responses):
        self._responses = list(responses)
        self.served = 0
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(8)
        self.host, self.port = self._sock.getsockname()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self):
        while self.served < len(self._responses):
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return
            with conn:
                conn.recv(65536)  # one request per connection
                response = self._responses[self.served]
                # Count before sending: the client may check ``served``
                # as soon as it has read the response.
                self.served += 1
                conn.sendall(response)

    def close(self):
        try:
            self._sock.close()
        finally:
            self._thread.join(timeout=5.0)


def canned(status: int, payload: dict, retry_after: float | None = None):
    body = json.dumps(payload).encode()
    phrase = {200: "OK", 429: "Too Many Requests", 503: "Unavailable"}[
        status
    ]
    head = (
        f"HTTP/1.1 {status} {phrase}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: close\r\n"
    )
    if retry_after is not None:
        head += f"Retry-After: {retry_after}\r\n"
    return head.encode() + b"\r\n" + body


class TestTransientRetries:
    def test_429_then_200_retries_through(self):
        server = CannedServer(
            [
                canned(429, {"error": "full"}, retry_after=0.1),
                canned(200, {"paths": ["p"]}),
            ]
        )
        try:
            sleeps = []
            client = ServeClient(
                server.host,
                server.port,
                policy=RetryPolicy(max_attempts=3, base_delay=0.0, seed=1),
                sleep=sleeps.append,
            )
            response = client.healthz()
            assert response.status == 200
            assert server.served == 2
            assert sleeps == [0.1]
        finally:
            server.close()

    def test_server_retry_after_overrides_backoff(self):
        server = CannedServer(
            [
                canned(503, {"error": "draining"}, retry_after=1.5),
                canned(200, {}),
            ]
        )
        try:
            sleeps = []
            client = ServeClient(
                server.host,
                server.port,
                policy=RetryPolicy(
                    max_attempts=2, base_delay=60.0, seed=1
                ),
                sleep=sleeps.append,
            )
            response = client.healthz()
            assert response.status == 200
            # The server's hint, not the 60 s computed backoff.
            assert sleeps == [1.5]
        finally:
            server.close()

    def test_exhausted_transient_returns_last_response(self):
        server = CannedServer(
            [canned(429, {"error": "full"}, retry_after=0.0)] * 3
        )
        try:
            client = ServeClient(
                server.host,
                server.port,
                policy=RetryPolicy(max_attempts=3, base_delay=0.0, seed=1),
                sleep=lambda _: None,
            )
            response = client.healthz()
            assert response.status == 429
            assert server.served == 3
        finally:
            server.close()

    def test_definitive_statuses_are_not_retried(self):
        server = CannedServer([canned(200, {"ok": True})])
        try:
            client = ServeClient(
                server.host,
                server.port,
                policy=RetryPolicy(max_attempts=5, base_delay=0.0, seed=1),
                sleep=lambda _: None,
            )
            assert client.healthz().status == 200
            assert server.served == 1
        finally:
            server.close()

    def test_connection_refused_exhausts_to_retry_error(self):
        # Bind-then-close guarantees an unused port.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        _, dead_port = probe.getsockname()
        probe.close()
        client = ServeClient(
            "127.0.0.1",
            dead_port,
            policy=RetryPolicy(max_attempts=2, base_delay=0.0, seed=1),
            sleep=lambda _: None,
        )
        with pytest.raises(RetryExhaustedError) as exc:
            client.healthz()
        assert exc.value.attempts == 2


class TestExhaustionSurface:
    def test_exhausted_transport_carries_last_server_answer(self):
        """Retries that end on a transport error still surface the last
        *server* answer structurally: a caller deciding when to come
        back reads ``error.status``/``error.retry_after`` instead of
        parsing the message."""
        server = CannedServer(
            [canned(429, {"error": "full"}, retry_after=2.5)]
        )
        closed = []

        def close_between_attempts(_delay):
            if not closed:
                server.close()
                closed.append(True)

        client = ServeClient(
            server.host,
            server.port,
            policy=RetryPolicy(max_attempts=3, base_delay=0.0, seed=1),
            sleep=close_between_attempts,
        )
        with pytest.raises(RetryExhaustedError) as exc:
            client.healthz()
        error = exc.value
        assert isinstance(error.last, ConnectionError)
        assert error.status == 429
        assert error.retry_after == 2.5
        assert error.response is not None
        assert error.response.json == {"error": "full"}

    def test_exhausted_without_any_server_answer_stays_bare(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        _, dead_port = probe.getsockname()
        probe.close()
        client = ServeClient(
            "127.0.0.1",
            dead_port,
            policy=RetryPolicy(max_attempts=2, base_delay=0.0, seed=1),
            sleep=lambda _: None,
        )
        with pytest.raises(RetryExhaustedError) as exc:
            client.healthz()
        assert exc.value.response is None
        assert exc.value.status is None
        assert exc.value.retry_after is None


class TestPolicyDeterminism:
    def test_seeded_backoff_is_reproducible(self):
        a = RetryPolicy(max_attempts=5, base_delay=0.1, seed=42)
        b = RetryPolicy(max_attempts=5, base_delay=0.1, seed=42)
        assert list(a.delays()) == list(b.delays())

    def test_jittered_delay_stays_in_band(self):
        policy = RetryPolicy(
            max_attempts=4,
            base_delay=0.1,
            multiplier=2.0,
            jitter=0.5,
            seed=7,
        )
        for index, delay in enumerate(policy.delays()):
            nominal = policy.backoff(index)
            assert nominal * 0.5 <= delay <= nominal * 1.5

    def test_transient_error_carries_retry_after(self):
        server = CannedServer(
            [canned(503, {"error": "x"}, retry_after=2.25)]
        )
        try:
            client = ServeClient(
                server.host,
                server.port,
                policy=RetryPolicy.none(),
                sleep=lambda _: None,
            )
            response = client.healthz()
            assert response.status == 503
            assert response.retry_after == 2.25
            error = TransientServerError(response)
            assert error.retry_after == 2.25
        finally:
            server.close()
