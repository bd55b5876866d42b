"""A bundled stdlib client for the serving tier, with retries.

:class:`ServeClient` speaks the tier's JSON protocol over
:mod:`http.client` and layers the shared
:class:`~repro.resilience.retry.RetryPolicy` on top: connection
failures and the tier's *transient* answers — ``429`` (shed) and
``503`` (draining or injected fault) — are retried with jittered
exponential backoff, and a server-supplied ``Retry-After`` header
overrides the computed delay (the server knows its own queue better
than our backoff curve does).  Definitive answers (``200``, ``206``,
``4xx`` protocol errors) are returned immediately.

Pass ``policy=RetryPolicy.none()`` to observe raw shed/drain responses
(the admission tests do), or a seeded policy for deterministic backoff.
"""

from __future__ import annotations

import http.client
import json
from collections.abc import Callable, Mapping

from repro.errors import ReproError
from repro.resilience.retry import RetryExhaustedError, RetryPolicy

__all__ = ["ServeClient", "ServerResponse", "TransientServerError"]

#: Statuses worth retrying: the server explicitly said "come back".
TRANSIENT_STATUSES = frozenset({429, 503})


class ServerResponse:
    """One decoded server answer: status, headers, parsed JSON body."""

    def __init__(
        self, status: int, headers: Mapping[str, str], body: bytes
    ) -> None:
        self.status = status
        self.headers = {key.lower(): value for key, value in headers.items()}
        self.body = body

    @property
    def json(self) -> dict:
        if not self.body:
            return {}
        return json.loads(self.body.decode("utf-8"))

    @property
    def retry_after(self) -> float | None:
        raw = self.headers.get("retry-after")
        if raw is None:
            return None
        try:
            return max(0.0, float(raw))
        except ValueError:
            return None

    @property
    def ok(self) -> bool:
        """True for definitive success, partial (206) included."""
        return self.status in (200, 206)


class TransientServerError(ReproError):
    """A retryable server answer (shed, draining, injected fault).

    Carries the server's ``Retry-After`` hint as ``retry_after`` —
    :meth:`RetryPolicy.call <repro.resilience.retry.RetryPolicy.call>`
    honours that attribute over its own computed backoff.
    """

    def __init__(self, response: ServerResponse) -> None:
        detail = ""
        try:
            detail = response.json.get("error", "")
        except ValueError:  # pragma: no cover - non-JSON transient body
            pass
        super().__init__(
            f"transient server response {response.status}"
            + (f": {detail}" if detail else "")
        )
        self.response = response
        self.status = response.status
        self.retry_after = response.retry_after


class ServeClient:
    """A small synchronous client for one serving-tier address."""

    def __init__(
        self,
        host: str,
        port: int,
        policy: RetryPolicy | None = None,
        timeout: float = 30.0,
        sleep: Callable[[float], None] | None = None,
    ) -> None:
        self.host = host
        self.port = port
        self.policy = policy if policy is not None else RetryPolicy()
        self.timeout = timeout
        self._sleep = sleep

    # -- endpoints -----------------------------------------------------

    def complete(
        self,
        expression: str,
        tenant: str | None = None,
        e: int = 1,
        deadline_ms: float | None = None,
        max_nodes: int | None = None,
    ) -> ServerResponse:
        """``POST /v1/complete`` with optional budget headers."""
        payload: dict = {"expression": expression, "e": e}
        if tenant is not None:
            payload["tenant"] = tenant
        headers = {}
        if deadline_ms is not None:
            headers["X-Deadline-Ms"] = str(deadline_ms)
        if max_nodes is not None:
            headers["X-Max-Nodes"] = str(max_nodes)
        return self._retrying_request(
            "POST", "/v1/complete", payload, headers
        )

    def query(
        self,
        text: str,
        tenant: str | None = None,
        deadline_ms: float | None = None,
    ) -> ServerResponse:
        """``POST /v1/query`` against a tenant with a database."""
        payload: dict = {"query": text}
        if tenant is not None:
            payload["tenant"] = tenant
        headers = {}
        if deadline_ms is not None:
            headers["X-Deadline-Ms"] = str(deadline_ms)
        return self._retrying_request("POST", "/v1/query", payload, headers)

    def schemas(self) -> ServerResponse:
        return self._retrying_request("GET", "/v1/schemas")

    def healthz(self) -> ServerResponse:
        return self._retrying_request("GET", "/healthz")

    def debug(self) -> ServerResponse:
        """The ``GET /v1/debug`` ops snapshot (SLO, sampler, residency)."""
        return self._retrying_request("GET", "/v1/debug")

    def metrics_text(self) -> str:
        """The raw Prometheus exposition from ``GET /metrics``."""
        response = self.request("GET", "/metrics")
        return response.body.decode("utf-8")

    # -- transport -----------------------------------------------------

    def request(
        self,
        method: str,
        path: str,
        payload: dict | None = None,
        headers: Mapping[str, str] | None = None,
    ) -> ServerResponse:
        """One raw request-response exchange, no retries."""
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            body = None
            send_headers = dict(headers or {})
            if payload is not None:
                body = json.dumps(payload, sort_keys=True).encode("utf-8")
                send_headers.setdefault("Content-Type", "application/json")
            connection.request(method, path, body=body, headers=send_headers)
            raw = connection.getresponse()
            data = raw.read()
            return ServerResponse(raw.status, dict(raw.getheaders()), data)
        finally:
            connection.close()

    def _retrying_request(
        self,
        method: str,
        path: str,
        payload: dict | None = None,
        headers: Mapping[str, str] | None = None,
    ) -> ServerResponse:
        """The raw exchange under the retry policy.

        Transport errors (refused, reset, timeout) and transient
        statuses retry with backoff; the server's ``Retry-After``
        overrides the computed delay.  Definitive responses — including
        error statuses like ``400``/``404`` — return as-is; mapping
        them to exceptions is the caller's policy, not the client's.
        When retries run out on a *transient status*, the last ``429``/
        ``503`` response is returned (so callers and tests can inspect
        the shed/drain answer); exhausted *transport* failures raise
        :class:`~repro.resilience.retry.RetryExhaustedError` with its
        structured surface filled in — ``response``, ``status``, and
        ``retry_after`` carry the last *server* answer observed across
        the attempts (``None`` if no attempt ever reached the server),
        so a caller deciding when to come back does not have to parse
        the exception message.
        """
        last_transient: list[ServerResponse] = []

        def attempt() -> ServerResponse:
            response = self.request(method, path, payload, headers)
            if response.status in TRANSIENT_STATUSES:
                last_transient[:] = [response]
                raise TransientServerError(response)
            return response

        kwargs: dict = {
            "retry_on": (TransientServerError, ConnectionError, OSError)
        }
        if self._sleep is not None:
            kwargs["sleep"] = self._sleep
        try:
            return self.policy.call(attempt, **kwargs)
        except RetryExhaustedError as error:
            if isinstance(error.last, TransientServerError):
                return error.last.response
            if last_transient:
                response = last_transient[0]
                error.response = response
                error.status = response.status
                error.retry_after = response.retry_after
            raise
