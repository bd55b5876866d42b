"""The resilient always-on serving tier.

:class:`ServingTier` is an asyncio front end over the synchronous
disambiguation engine, built so that *overload degrades service
instead of collapsing it*:

* **Bounded admission.**  At most ``queue_limit`` requests hold the
  executor at any moment (searching plus queued for a worker).
  The request over the bound is *shed* immediately with ``429 Too Many
  Requests`` and a ``Retry-After`` hint — clients wait in their own
  retry loops, not in unbounded server memory, and the server never
  hangs under a burst.

* **Mandatory per-request budgets.**  Every admitted request runs under
  a :class:`~repro.resilience.budget.Budget` with a wall-clock deadline
  (server default, request-adjustable via ``X-Deadline-Ms`` up to the
  configured ceiling; ``X-Max-Nodes`` caps expansion work).  Budgets are
  installed as the request's ambient budget with ``partial_ok`` on, so
  a tripped request returns ``206 Partial Content`` with the anytime
  best-so-far answer from the degradation ladder — never a hung
  connection.

* **Graceful degradation under drain.**  ``SIGTERM`` (or
  :meth:`begin_drain`) flips the tier to draining: new work is refused
  with ``503`` + ``Retry-After`` while in-flight requests keep running.
  Budgets are armed against the tier's *drain-aware clock* — after the
  drain hard deadline it reads far in the future, so every outstanding
  deadline expires at once and each in-flight request returns its
  best-so-far ``206`` within one budget-check stride.  No worker is
  ever killed mid-traversal; the executor never leaks a thread.

* **One request pipeline.**  A request's scope, slow-log observation,
  ``request`` span and cache lookup run on the event loop, so a warm
  hit never leaves it.  Only a miss's search (or a ``/v1/query``) runs
  on the bounded executor pool, in a :func:`contextvars.copy_context`
  copy of the request's context: no search blocks the accept loop.

* **Bounded memory.**  After every request that missed the cache the
  cross-tenant governor (:class:`~repro.serve.tenants.TenantRegistry`)
  evicts least-recently-used completion-cache entries from the least
  recently touched tenant until the fleet fits ``max_cache_bytes``.

* **Request-scoped observability.**  Every request carries a request
  ID (inbound ``X-Request-Id`` honoured after sanitation, minted
  otherwise) stamped into the response header, the structured access
  log (:class:`~repro.obs.reqlog.AccessLog`), the slow-log entry, and
  the audit stream.  ``trace_sample_rate`` head-samples requests into
  a per-request :class:`~repro.obs.tracer.RecordingTracer`; slow,
  truncated, or errored requests are *tail-promoted* into the slow log
  regardless of the sampling decision.  A rolling-window
  :class:`~repro.obs.slo.SLOMonitor` evaluates availability and
  latency burn rates into ``/healthz``, ``/metrics``, and the
  ``GET /v1/debug`` ops endpoint.

* **Cooperative drain cancellation.**  Past the drain hard deadline a
  :class:`~repro.resilience.budget.CancelSignal` shared by every
  admitted budget fires, so in-flight searches abort at their very
  next expansion — the dilated drain clock remains as the backstop for
  meters between clock samples.

Endpoints: ``POST /v1/complete``, ``POST /v1/query``,
``GET /v1/schemas``, ``GET /v1/debug``, plus the scrape pair
``GET /metrics`` (Prometheus text, with per-route/status labels) and
``GET /healthz``.
"""

from __future__ import annotations

import asyncio
import contextlib
import contextvars
import json
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError

from repro.core.compiled import registered_artifacts
from repro.core.engine import PendingCompletion
from repro.errors import (
    BudgetExceededError,
    InjectedFaultError,
    ReproError,
)
from repro.obs.metrics import (
    MetricsRegistry,
    NullMetricsRegistry,
    labelled,
    use_metrics,
)
from repro.obs.promtext import render_prometheus
from repro.obs.reqlog import (
    REQUEST_ID_HEADER,
    AccessLog,
    HeadSampler,
    RequestContext,
    clean_request_id,
    mint_request_id,
)
from repro.obs.slo import SLOMonitor
from repro.obs.slowlog import RETAINED_SAMPLED, SlowQueryLog
from repro.obs.tracer import RecordingTracer, get_tracer
from repro.query.language import run_query
from repro.resilience.budget import CancelSignal
from repro.scope import current, scoped
from repro.serve.config import ServeConfig
from repro.serve.http import (
    HttpError,
    Request,
    json_body,
    read_request,
    render_response,
)
from repro.serve.tenants import TenantRegistry, UnknownTenantError

__all__ = ["ServingTier", "health_snapshot"]

#: Content type of the Prometheus text exposition.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: The one method each route answers.
ROUTES = {
    "/metrics": "GET",
    "/healthz": "GET",
    "/v1/debug": "GET",
    "/v1/schemas": "GET",
    "/v1/complete": "POST",
    "/v1/query": "POST",
}

#: The ``route`` label of every request that matches no entry of
#: :data:`ROUTES` (a ``404`` or ``405``).  Labelling those with the raw
#: method and path would let any client mint unbounded metric series.
UNMATCHED_ROUTE = "unmatched"

#: Time-dilation factor of the drain-aware clock past the hard
#: deadline.  A *rate* rather than a constant offset on purpose: a
#: meter armed before the deadline sees an enormous jump and trips at
#: its next check, and a meter armed *after* it (a straggler already
#: admitted) still measures elapsed time — just a million times faster
#: — so even the 10 s deadline ceiling expires within ~10 µs of real
#: time.  A constant offset would shift ``started_at`` and the deadline
#: together and never trip late-armed meters.
_DRAIN_CLOCK_RATE = 1e6


def health_snapshot() -> dict:
    """The ``/healthz`` payload's liveness and registry occupancy.

    Reads the process-wide compiled-artifact registry and reports, per
    artifact, the fingerprint prefix, how many evolution steps produced
    it, and its completion cache's counters, so a healthy-but-bloated
    process (runaway schema evolution, a cache that never hits) is
    visible from one request.
    """
    artifacts = []
    for compiled in registered_artifacts():
        artifacts.append(
            {
                "fingerprint": compiled.fingerprint[:12],
                "lineage_depth": len(compiled.lineage),
                "completion_cache": compiled.cache.info(),
            }
        )
    artifacts.sort(key=lambda entry: entry["fingerprint"])
    return {
        "status": "ok",
        "registry": {
            "artifacts": len(artifacts),
            "max_lineage_depth": max(
                (entry["lineage_depth"] for entry in artifacts), default=0
            ),
            "cached_completions": sum(
                entry["completion_cache"]["size"] for entry in artifacts
            ),
            "entries": artifacts,
        },
    }


class ServingTier:
    """The async always-on front end over a :class:`TenantRegistry`.

    Two embeddings are supported:

    * **async** — ``await tier.start()`` inside a running loop, then
      ``await tier.serve_forever()`` (installs signal handlers) or
      drive requests yourself and ``await tier.drain()`` /
      ``await tier.aclose()``;
    * **threaded** — ``tier.run_in_thread()`` boots a private event
      loop on a daemon thread (tests, benchmarks, the bundled client's
      in-process mode); ``tier.stop()`` drains and joins it.
    """

    def __init__(
        self,
        tenants: TenantRegistry,
        config: ServeConfig | None = None,
        metrics: MetricsRegistry | NullMetricsRegistry | None = None,
        slowlog: SlowQueryLog | None = None,
    ) -> None:
        self.tenants = tenants
        self.config = config if config is not None else ServeConfig()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.slowlog = (
            slowlog
            if slowlog is not None
            else SlowQueryLog(
                threshold_ms=self.config.slow_ms, promote_failures=True
            )
        )
        self.access_log = AccessLog(
            capacity=self.config.access_log_capacity,
            path=self.config.access_log_path,
        )
        self.access_log.enabled = self.config.access_log
        self.sampler = HeadSampler(
            self.config.trace_sample_rate,
            seed=self.config.trace_sample_seed,
        )
        self.slo = SLOMonitor(
            availability_target=self.config.slo_availability_target,
            latency_threshold_ms=self.config.slo_latency_ms,
            latency_target=self.config.slo_latency_target,
        )
        #: One cancel signal shared by every admitted budget; fired
        #: when a drain crosses its hard deadline.
        self._drain_cancel = CancelSignal()
        self._pool = ThreadPoolExecutor(
            max_workers=self.config.workers, thread_name_prefix="repro-serve"
        )
        #: Requests holding the executor; mutated only on the loop
        #: thread, so the admission check needs no lock.
        self._pending = 0
        self._draining = False
        self._drain_hard_at: float | None = None
        self._drain_task: asyncio.Task | None = None
        self._server: asyncio.AbstractServer | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._idle: asyncio.Event | None = None
        self._stopped: asyncio.Event | None = None
        self._conn_tasks: set[asyncio.Task] = set()
        self._thread: threading.Thread | None = None
        self.address: tuple[str, int] | None = None
        #: (route label, status) -> (request counter, latency
        #: histogram); filled on the loop thread only.
        self._series: dict[tuple[str, int], tuple] = {}

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> "ServingTier":
        """Bind the listening socket inside the running event loop."""
        if self._server is not None:
            raise RuntimeError("serving tier already started")
        self._loop = asyncio.get_running_loop()
        self._idle = asyncio.Event()
        self._idle.set()
        self._stopped = asyncio.Event()
        self._server = await asyncio.start_server(
            self._on_connection, host=self.config.host, port=self.config.port
        )
        sock = self._server.sockets[0]
        self.address = sock.getsockname()[:2]
        return self

    @property
    def url(self) -> str:
        if self.address is None:
            raise RuntimeError("serving tier not started")
        host, port = self.address
        return f"http://{host}:{port}"

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def pending(self) -> int:
        return self._pending

    def server_clock(self) -> float:
        """The drain-aware clock every request budget is armed against.

        Monotonic time normally; past the drain hard deadline it runs
        ``_DRAIN_CLOCK_RATE`` times faster, so every deadline in every
        worker — whether armed before or after the drain — expires
        within microseconds of real time at its next budget check, and
        in-flight requests converge to best-so-far ``206`` responses
        without any thread being killed.
        """
        now = time.monotonic()
        hard_at = self._drain_hard_at
        if hard_at is not None and now > hard_at:
            return now + (now - hard_at) * _DRAIN_CLOCK_RATE
        return now

    def begin_drain(self) -> None:
        """Stop admitting work; start the drain countdown.  Idempotent.

        Must run on the loop thread (signal handlers and :meth:`drain`
        do); from another thread use :meth:`request_drain`.
        """
        if self._draining:
            return
        self._draining = True
        self._drain_hard_at = (
            time.monotonic() + self.config.drain_deadline_s
        )
        # At the hard deadline the shared cancel signal fires, so every
        # in-flight search trips at its next expansion — not merely at
        # its next deadline *clock sample* under the dilated clock.
        if self._loop is not None:
            self._loop.call_later(
                self.config.drain_deadline_s, self._drain_cancel.cancel
            )
        self.metrics.counter("serve.drains").inc()

    def request_drain(self) -> None:
        """Thread-safe :meth:`begin_drain` (e.g. from a test thread)."""
        loop = self._loop
        if loop is not None and loop.is_running():
            loop.call_soon_threadsafe(self.begin_drain)

    async def drain(self) -> None:
        """Refuse new work, let in-flight finish, then close.

        In-flight requests get until the drain hard deadline; past it
        the server clock expires their budgets, so the extra grace here
        only needs to cover one budget-check stride plus response
        writes.  Connections still open after that are cancelled.
        """
        self.begin_drain()
        assert self._idle is not None and self._drain_hard_at is not None
        remaining = max(0.0, self._drain_hard_at - time.monotonic())
        try:
            await asyncio.wait_for(self._idle.wait(), timeout=remaining + 1.0)
        except asyncio.TimeoutError:  # pragma: no cover - wedged worker
            pass
        await self.aclose()

    async def aclose(self) -> None:
        """Close the listener, cancel leftover connections, stop."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        self._pool.shutdown(wait=False, cancel_futures=True)
        if self._stopped is not None:
            self._stopped.set()

    async def serve_forever(self, handle_signals: bool = True) -> None:
        """Start (if needed) and serve until drained/closed.

        With ``handle_signals`` (the default, used by ``repro serve``),
        ``SIGTERM`` and ``SIGINT`` trigger one graceful :meth:`drain`.
        """
        if self._server is None:
            await self.start()
        assert self._loop is not None and self._stopped is not None
        if handle_signals:
            for signum in (signal.SIGTERM, signal.SIGINT):
                self._loop.add_signal_handler(signum, self._signal_drain)
        await self._stopped.wait()

    def _signal_drain(self) -> None:
        if self._drain_task is None and self._loop is not None:
            self._drain_task = self._loop.create_task(self.drain())

    # -- threaded embedding -------------------------------------------

    def run_in_thread(self, timeout: float = 10.0) -> "ServingTier":
        """Boot the tier on a private event loop in a daemon thread."""
        if self._thread is not None:
            raise RuntimeError("serving tier already running in a thread")
        ready = threading.Event()
        boot_error: list[BaseException] = []

        def runner() -> None:
            try:
                asyncio.run(self._thread_main(ready))
            except BaseException as error:  # pragma: no cover - boot race
                boot_error.append(error)
                ready.set()

        self._thread = threading.Thread(
            target=runner, name="repro-serving-tier", daemon=True
        )
        self._thread.start()
        if not ready.wait(timeout):  # pragma: no cover - wedged boot
            raise RuntimeError("serving tier did not start in time")
        if boot_error:
            self._thread.join(timeout=timeout)
            self._thread = None
            raise RuntimeError("serving tier failed to start") from (
                boot_error[0]
            )
        return self

    async def _thread_main(self, ready: threading.Event) -> None:
        await self.start()
        ready.set()
        assert self._stopped is not None
        await self._stopped.wait()

    def stop(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Stop a :meth:`run_in_thread` tier from any thread.

        ``drain=True`` performs the full graceful drain (in-flight
        requests finish or degrade); ``drain=False`` closes abruptly.
        """
        thread, loop = self._thread, self._loop
        if thread is None:
            return
        if loop is not None and loop.is_running():
            coro = self.drain() if drain else self.aclose()
            future = asyncio.run_coroutine_threadsafe(coro, loop)
            try:
                future.result(timeout)
            except (FutureTimeoutError, RuntimeError):  # pragma: no cover
                pass
        thread.join(timeout=timeout)
        self._thread = None

    # -- connection handling ------------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            await self._connection_loop(reader, writer)
        except asyncio.CancelledError:
            pass  # drain hard-cancel: just release the socket
        except (ConnectionError, OSError):
            pass  # peer vanished mid-exchange
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            try:
                writer.close()
            except Exception:  # pragma: no cover - already torn down
                pass

    async def _connection_loop(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        while True:
            try:
                async with asyncio.timeout(self.config.request_timeout_s):
                    request = await read_request(
                        reader, self.config.max_body_bytes
                    )
            except TimeoutError:
                await self._write(
                    writer,
                    self._json_bytes(
                        408, {"error": "request timed out"}, keep_alive=False
                    ),
                )
                return
            except HttpError as error:
                await self._write(
                    writer,
                    self._json_bytes(
                        error.status,
                        {"error": error.message},
                        keep_alive=False,
                    ),
                )
                return
            if request is None:
                return  # clean keep-alive close
            response, keep_alive = await self._dispatch(request)
            await self._write(writer, response)
            if not keep_alive:
                return

    @staticmethod
    async def _write(writer: asyncio.StreamWriter, response: bytes) -> None:
        writer.write(response)
        await writer.drain()

    @staticmethod
    def _json_bytes(
        status: int,
        payload: dict,
        extra_headers: dict[str, str] | None = None,
        keep_alive: bool = True,
    ) -> bytes:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        return render_response(
            status,
            body,
            extra_headers=extra_headers,
            keep_alive=keep_alive,
        )

    # -- routing and error mapping ------------------------------------

    async def _dispatch(self, request: Request) -> tuple[bytes, bool]:
        """Route one request; map every failure to a status code.

        The request's identity is resolved here — an inbound
        ``X-Request-Id`` honoured after sanitation, a fresh ID minted
        otherwise — handed to the route as a :class:`RequestContext`
        (an admitted request's scope installs it ambiently, and the
        executor's context copy carries it to a miss's search), stamped
        into the response header, and recorded with the outcome in the
        access log and SLO windows.
        """
        started = time.monotonic()
        content_type = "application/json"
        body: bytes | None = None
        extra: dict[str, str] | None = None
        request_id = (
            clean_request_id(request.headers.get(REQUEST_ID_HEADER))
            or mint_request_id()
        )
        sampled = (
            request.method == "POST"
            and request.path in ("/v1/complete", "/v1/query")
            and self.sampler.sample()
        )
        context = RequestContext(request_id, sampled=sampled)
        try:
            outcome = await self._route(request, context)
            status, payload, content_type, extra = outcome
            if isinstance(payload, bytes):
                body = payload
        except HttpError as error:
            status, payload = error.status, {"error": error.message}
        except UnknownTenantError as error:
            status, payload = 404, {"error": str(error)}
        except BudgetExceededError as error:
            # partial_ok is always set, so this is belt and braces
            # for a future engine path that refuses partial answers.
            status = 206
            payload = {
                "error": str(error),
                "truncation_reason": "deadline",
            }
        except InjectedFaultError as error:
            status = 503
            payload = {"error": str(error), "transient": True}
            extra = {"Retry-After": str(self.config.retry_after_s)}
        except (ReproError, ValueError) as error:
            status = 400
            payload = {"error": str(error), "kind": type(error).__name__}
        except asyncio.CancelledError:
            raise
        except Exception as error:  # noqa: BLE001 - last-resort mapping
            status = 500
            payload = {"error": f"internal error: {type(error).__name__}"}
            self.metrics.counter("serve.internal_errors").inc()
        if body is None:
            body = (json.dumps(payload, sort_keys=True) + "\n").encode(
                "utf-8"
            )
            content_type = "application/json"
        keep_alive = request.keep_alive and status < 500
        elapsed_ms = (time.monotonic() - started) * 1000.0
        requests, latency = self._request_series(request, status)
        requests.inc()
        latency.observe(elapsed_ms)
        self.slo.record(status, elapsed_ms)
        data = payload if isinstance(payload, dict) else {}
        if self.access_log.enabled:
            outcome_label, shed_reason = self._outcome_of(status, data)
            stats = data.get("stats")
            cache_hit = (
                stats.get("cache_hits", 0) > 0
                if isinstance(stats, dict)
                else None
            )
            error_text = data.get("error")
            self.access_log.record(
                request_id=request_id,
                method=request.method,
                route=request.path,
                status=status,
                latency_ms=elapsed_ms,
                outcome=outcome_label,
                tenant=data.get("tenant"),
                cache_hit=cache_hit,
                truncation_reason=data.get("truncation_reason"),
                shed_reason=shed_reason,
                sampled=sampled,
                error=str(error_text) if error_text is not None else None,
            )
        headers = {"X-Request-Id": request_id}
        if extra:
            headers.update(extra)
        response = render_response(
            status,
            body,
            content_type=content_type,
            extra_headers=headers,
            keep_alive=keep_alive,
        )
        return response, keep_alive

    def _request_series(self, request: Request, status: int) -> tuple:
        """The ``serve.requests`` counter and ``serve.latency_ms``
        histogram of one request's route and status, resolved once.

        The route label is ``"METHOD /path"`` for a served route and
        :data:`UNMATCHED_ROUTE` otherwise, so the series stay bounded
        by the route table times the status codes.
        """
        path = request.path
        route = (
            f"{request.method} {path}"
            if ROUTES.get(path) == request.method
            else UNMATCHED_ROUTE
        )
        series = self._series.get((route, status))
        if series is None:
            series = (
                self.metrics.counter(
                    labelled("serve.requests", route=route, status=str(status))
                ),
                self.metrics.histogram(
                    labelled("serve.latency_ms", route=route)
                ),
            )
            self._series[(route, status)] = series
        return series

    @staticmethod
    def _outcome_of(status: int, payload: dict) -> tuple[str, str | None]:
        """(access-log outcome label, shed reason) for one response."""
        if status == 206:
            return "partial", None
        if status == 429:
            return "shed", "queue_full"
        if status == 503:
            if payload.get("draining"):
                return "drain", "draining"
            return "transient", None
        if status >= 500:
            return "error", None
        if status >= 400:
            return "client_error", None
        return "ok", None

    async def _route(
        self, request: Request, context: RequestContext
    ) -> tuple[int, dict | bytes, str, dict[str, str] | None]:
        path = request.path
        method = ROUTES.get(path)
        if method is None:
            raise HttpError(404, f"no route for {path!r}")
        if request.method != method:
            raise HttpError(405, f"{path} only supports {method}")
        if path == "/metrics":
            self._export_obs_gauges()
            text = render_prometheus(self.metrics, namespace="repro")
            return 200, text.encode("utf-8"), PROMETHEUS_CONTENT_TYPE, None
        if path == "/healthz":
            return 200, self._health_payload(), "application/json", None
        if path == "/v1/debug":
            return 200, self._debug_payload(), "application/json", None
        if path == "/v1/schemas":
            payload = {
                "tenants": [
                    tenant.describe() for tenant in self.tenants.tenants()
                ]
            }
            return 200, payload, "application/json", None
        handler = self._complete if path == "/v1/complete" else self._query
        status, payload, extra = await self._admit(request, context, handler)
        return status, payload, "application/json", extra

    def _health_payload(self) -> dict:
        payload = health_snapshot()
        payload["serving"] = {
            "state": "draining" if self._draining else "serving",
            "pending": self._pending,
            "queue_limit": self.config.queue_limit,
            "workers": self.config.workers,
            "tenants": self.tenants.names(),
            "tenant_cache_bytes": self.tenants.total_cache_bytes(),
            "max_cache_bytes": self.tenants.max_cache_bytes,
        }
        payload["slo"] = self.slo.status()
        return payload

    def _debug_payload(self) -> dict:
        """The ``GET /v1/debug`` ops snapshot: everything an operator
        needs to correlate an incident without shelling into the box."""
        return {
            "serving": {
                "state": "draining" if self._draining else "serving",
                "pending": self._pending,
                "queue_limit": self.config.queue_limit,
                "workers": self.config.workers,
                "drain_hard_at": self._drain_hard_at,
                "drain_cancelled": self._drain_cancel.cancelled,
            },
            "slo": self.slo.status(),
            "sampler": self.sampler.stats(),
            "access_log": self.access_log.stats(),
            "slowlog": {
                "observed": self.slowlog.observed,
                "retained": len(self.slowlog.entries()),
                "threshold_ms": self.slowlog.threshold_ms,
                "top_k": self.slowlog.top_k,
                "capacity": self.slowlog.capacity,
                "promote_failures": self.slowlog.promote_failures,
            },
            "tenants": {
                "residency": [
                    dict(
                        tenant.describe(),
                        last_touch=tenant.last_touch,
                        estimated_bytes=tenant.estimated_cache_bytes(),
                    )
                    for tenant in self.tenants.tenants()
                ],
                "total_cache_bytes": self.tenants.total_cache_bytes(),
                "max_cache_bytes": self.tenants.max_cache_bytes,
            },
        }

    def _export_obs_gauges(self) -> None:
        """Refresh the SLO and sampler gauges ahead of a scrape."""
        self.slo.export_gauges(self.metrics)
        sampler = self.sampler.stats()
        self.metrics.gauge("serve.trace_sample_rate").set(sampler["rate"])
        self.metrics.gauge("serve.trace_sampled_total").set(
            float(sampler["sampled"])
        )
        log_stats = self.access_log.stats()
        self.metrics.gauge("serve.access_log_records").set(
            float(log_stats["recorded"])
        )

    # -- admission and execution --------------------------------------

    async def _admit(
        self, request: Request, context: RequestContext, handler
    ) -> tuple[int, dict, dict[str, str] | None]:
        """Load-shed, or answer with ``await handler(request, context)``.

        The drain and shed checks come first for every POST.  The
        handler runs on the event loop; only its :meth:`_offload` call
        (a cache miss's search, or a whole ``/v1/query``) holds an
        admission slot, so a warm hit never occupies one.
        """
        if self._draining:
            assert self._drain_hard_at is not None
            remaining = max(0.0, self._drain_hard_at - time.monotonic())
            self.metrics.counter("serve.drain_rejected").inc()
            return (
                503,
                {"error": "server is draining", "draining": True},
                {"Retry-After": f"{remaining + 1.0:.1f}"},
            )
        if self._pending >= self.config.queue_limit:
            self.metrics.counter("serve.shed").inc()
            return (
                429,
                {
                    "error": "admission queue full",
                    "queue_limit": self.config.queue_limit,
                },
                {"Retry-After": str(self.config.retry_after_s)},
            )
        status, payload = await handler(request, context)
        return status, payload, None

    async def _offload(self, call, *args):
        """Run ``call(*args)`` on the pool in a copy of the request's
        context, holding one admission slot (which :meth:`drain`
        waits on) until it returns."""
        assert self._loop is not None and self._idle is not None
        self._pending += 1
        self._idle.clear()
        self.metrics.gauge("serve.pending").set(float(self._pending))
        try:
            return await self._loop.run_in_executor(
                self._pool, contextvars.copy_context().run, call, *args
            )
        finally:
            self._pending -= 1
            self.metrics.gauge("serve.pending").set(float(self._pending))
            if self._pending == 0:
                self._idle.set()

    def _resolve_tenant(self, payload: dict):
        name = payload.get("tenant")
        if name is None:
            names = self.tenants.names()
            if len(names) == 1:
                name = names[0]
            else:
                raise HttpError(
                    400,
                    "'tenant' is required when multiple tenants are "
                    "registered",
                )
        if not isinstance(name, str):
            raise HttpError(400, "'tenant' must be a string")
        return self.tenants.get(name)

    def _request_budget(self, request: Request):
        try:
            return self.config.budget_for(
                request.headers,
                clock=self.server_clock,
                cancel=self._drain_cancel,
            )
        except ValueError as error:
            raise HttpError(400, str(error)) from error

    def _govern(self, tenant, cache, misses_before: int) -> None:
        """Run the memory governor if this request may have grown a cache.

        Only a miss can put an entry, so a request whose artifact cache
        counted no new miss skips the governor — unless the tenant's
        artifact was swapped mid-request, which the old cache's
        counters cannot see.  The governor's eviction counters go to
        the tier's registry.
        """
        if cache.misses != misses_before or tenant.compiled.cache is not cache:
            with use_metrics(self.metrics):
                self.tenants.enforce_memory_bound()

    @contextlib.contextmanager
    def _request_scope(
        self, context: RequestContext, budget, kind: str, query: str, **attrs
    ):
        """The ambient scope of one admitted request, on the event loop.

        Installs, in one :class:`~repro.scope.Scope`, the request's
        context and budget, the tier's metrics registry and slow log,
        and a fresh :class:`RecordingTracer` when the head sampler
        picked this request.  Then opens the slow-log observation
        (stamped with the request ID) and the ``request`` root span
        every retained trace hangs from, and yields both; work
        offloaded to the pool adopts the span.  Sampled observations
        are promoted so the slow log keeps them even when fast and
        healthy.
        """
        attrs["request_id"] = context.request_id
        with scoped(
            None,
            tracer=RecordingTracer() if context.sampled else current().tracer,
            metrics=self.metrics,
            slowlog=self.slowlog,
            budget=budget,
            request=context,
        ):
            with self.slowlog.observe(kind, query, **attrs) as obs:
                if context.sampled:
                    obs.promote(RETAINED_SAMPLED)
                with get_tracer().span(
                    "request", kind=kind, request_id=context.request_id
                ) as span:
                    yield obs, span

    async def _complete(
        self, request: Request, context: RequestContext
    ) -> tuple[int, dict]:
        payload = json_body(request)
        expression = payload.get("expression")
        if not isinstance(expression, str) or not expression.strip():
            raise HttpError(400, "'expression' must be a non-empty string")
        e = payload.get("e", 1)
        if not isinstance(e, int) or isinstance(e, bool) or e < 1:
            raise HttpError(400, "'e' must be a positive integer")
        tenant = self._resolve_tenant(payload)
        budget = self._request_budget(request)
        cache = tenant.compiled.cache
        misses_before = cache.misses
        engine = tenant.engine(e)
        scope = self._request_scope(
            context, budget, "serve.complete", expression, e=e, tenant=tenant.name
        )
        with scope as (obs, _):
            result = engine.lookup(expression)
            hit = not isinstance(result, PendingCompletion)
            if not hit:
                with result as pending:
                    result = engine.finish(
                        pending, await self._offload(engine.complete, pending)
                    )
            obs.record_result(result)
        self._govern(tenant, cache, misses_before)
        body = {
            "tenant": tenant.name,
            "expression": expression,
            "e": e,
            "paths": [str(path) for path in result.paths],
            "labels": [str(label) for label in result.labels],
            "exhausted": result.exhausted,
            "stats": {
                "recursive_calls": result.stats.recursive_calls,
                # This request's own lookup.  A cached result carries
                # the stats of the search that produced it, and the
                # artifact's counters move with concurrent requests.
                "cache_hits": int(hit),
                "cache_misses": int(not hit),
                "budget_trips": result.stats.budget_trips,
                "elapsed_ms": round(result.stats.elapsed_seconds * 1000.0, 3),
            },
        }
        if not result.exhausted:
            body["truncation_reason"] = result.truncation_reason
        return (200 if result.exhausted else 206), body

    async def _query(
        self, request: Request, context: RequestContext
    ) -> tuple[int, dict]:
        payload = json_body(request)
        text = payload.get("query")
        if not isinstance(text, str) or not text.strip():
            raise HttpError(400, "'query' must be a non-empty string")
        tenant = self._resolve_tenant(payload)
        if tenant.database is None:
            raise HttpError(
                400,
                f"tenant {tenant.name!r} has no instance database "
                "(serve it with a database to enable /v1/query)",
            )
        budget = self._request_budget(request)

        def run(span):
            with get_tracer().adopt(span):
                return run_query(
                    tenant.database, text, engine=tenant.engine(1)
                )

        cache = tenant.compiled.cache
        misses_before = cache.misses
        scope = self._request_scope(
            context, budget, "serve.query", text, tenant=tenant.name
        )
        with scope as (_, span):
            result = await self._offload(run, span)
        self._govern(tenant, cache, misses_before)
        return 200, {
            "tenant": tenant.name,
            "query": text,
            "completions": result.completions,
            "values": sorted(result.values, key=repr),
        }
