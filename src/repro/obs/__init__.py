"""``repro.obs`` — observability for the disambiguation pipeline.

The paper evaluates the system by *counting work* (Section 5.4:
recursive calls at 0.17 ms each, response time per query, pruning
effectiveness).  This package makes that visible at every layer:

* :mod:`repro.obs.tracer` — nested, timed spans (``parse``,
  ``compile``, ``traverse``, ``agg_select``, ``preemption``, ``rank``,
  ``cache_lookup``) with per-span attributes, a human-readable tree
  dump, and a JSON-lines event log.  The default tracer is a shared
  no-op, so instrumented hot paths pay ~zero cost unless a caller
  installs a :class:`~repro.obs.tracer.RecordingTracer`.
* :mod:`repro.obs.metrics` — a registry of named counters, gauges, and
  histograms that :class:`~repro.core.stats.TraversalStats` feeds into
  (the stats dataclass is a carrier, not the terminal sink).  The
  default registry is likewise a no-op; histograms keep an unbiased
  Algorithm-R reservoir for quantiles.
* :mod:`repro.obs.promtext` — the registry in Prometheus text
  exposition format, on stdout or in a file; the serving tier
  (:mod:`repro.serve`) serves it at ``GET /metrics``.
* :mod:`repro.obs.slowlog` — tail-based slow-query retention: only
  queries over a latency threshold, in the current top-K, or promoted
  (head-sampled or failed) keep their full span tree, query text, E,
  and budget outcome.
* :mod:`repro.obs.reqlog` — request-scoped identity: request IDs on an
  ambient scope, Bernoulli head sampling, and the structured
  JSONL access log the serving tier writes per request.
* :mod:`repro.obs.slo` — rolling-window SLO monitoring with
  multi-window burn-rate alerting (availability and latency
  objectives), rendered into ``/healthz`` and Prometheus gauges.
* :mod:`repro.obs.profile` — cProfile attached to a named span
  taxonomy, exported as flamegraph-ready collapsed stacks.
* :mod:`repro.obs.perf` — the benchmark-history ledger
  (``BENCH_history.jsonl``) and the ``python -m repro.obs.perf
  compare`` regression gate.
* :mod:`repro.obs.schema` — a dependency-free validator for the
  checked-in JSON schemas of every exported artifact
  (``python -m repro.obs.validate FILE ...``), so formats cannot
  silently drift.

Everything is ambient (:func:`use_tracer` / :func:`use_metrics` /
:func:`use_slowlog` install into the one :class:`repro.scope.Scope`
of the current :mod:`contextvars` context), so
engines, sessions, fox queries, and the experiments harness need no
extra plumbing parameters.
"""

from repro.obs.metrics import (
    SUMMARY_VERSION,
    MetricsRegistry,
    NullMetricsRegistry,
    get_metrics,
    use_metrics,
)
from repro.obs.profile import DEFAULT_PROFILED_SPANS, SpanProfiler
from repro.obs.reqlog import (
    ACCESS_LOG_VERSION,
    REQUEST_ID_HEADER,
    AccessLog,
    HeadSampler,
    RequestContext,
    clean_request_id,
    get_request,
    get_request_id,
    mint_request_id,
    use_request,
)
from repro.obs.promtext import (
    DEFAULT_BUCKET_BOUNDS,
    render_prometheus,
    write_prometheus,
)
from repro.obs.schema import (
    SchemaValidationError,
    load_builtin_schema,
    validate,
    validate_access_records,
    validate_audit_records,
    validate_bench_records,
    validate_metrics_summary,
    validate_slo_status,
    validate_slowlog_entries,
    validate_trace_events,
)
from repro.obs.slo import (
    SLO_STATUS_VERSION,
    Objective,
    SLOMonitor,
)
from repro.obs.slowlog import (
    RETAINED_PROMOTED,
    RETAINED_SAMPLED,
    SLOWLOG_VERSION,
    NullSlowQueryLog,
    SlowLogEntry,
    SlowQueryLog,
    get_slowlog,
    use_slowlog,
)
from repro.obs.tracer import (
    NullTracer,
    RecordingTracer,
    Span,
    get_tracer,
    use_tracer,
)

#: Names resolved lazily (PEP 562) from the runnable submodule, so
#: ``python -m repro.obs.perf`` doesn't trip runpy's already-imported
#: warning on package import.
_LAZY = {
    "BenchRecord": "repro.obs.perf",
    "append_records": "repro.obs.perf",
    "compare": "repro.obs.perf",
    "environment_fingerprint": "repro.obs.perf",
    "load_history": "repro.obs.perf",
    "new_run_id": "repro.obs.perf",
}


def __getattr__(name: str):
    if name in _LAZY:
        import importlib

        return getattr(importlib.import_module(_LAZY[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "ACCESS_LOG_VERSION",
    "AccessLog",
    "BenchRecord",
    "DEFAULT_BUCKET_BOUNDS",
    "DEFAULT_PROFILED_SPANS",
    "HeadSampler",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "NullSlowQueryLog",
    "NullTracer",
    "Objective",
    "REQUEST_ID_HEADER",
    "RETAINED_PROMOTED",
    "RETAINED_SAMPLED",
    "RecordingTracer",
    "RequestContext",
    "SLOMonitor",
    "SLOWLOG_VERSION",
    "SLO_STATUS_VERSION",
    "SUMMARY_VERSION",
    "SchemaValidationError",
    "SlowLogEntry",
    "SlowQueryLog",
    "Span",
    "SpanProfiler",
    "append_records",
    "clean_request_id",
    "compare",
    "environment_fingerprint",
    "get_metrics",
    "get_request",
    "get_request_id",
    "get_slowlog",
    "get_tracer",
    "load_builtin_schema",
    "load_history",
    "mint_request_id",
    "new_run_id",
    "render_prometheus",
    "use_metrics",
    "use_request",
    "use_slowlog",
    "use_tracer",
    "validate",
    "validate_access_records",
    "validate_audit_records",
    "validate_bench_records",
    "validate_metrics_summary",
    "validate_slo_status",
    "validate_slowlog_entries",
    "validate_trace_events",
    "write_prometheus",
]
