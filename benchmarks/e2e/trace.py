"""Layer spans recorded from outside the system, and their self times.

:func:`install` wraps the public entry points of each layer (the table
:data:`LAYERS`) in the process it runs in — the serving tier through
``serve_boot``, the in-process workloads through ``inproc``.  Nothing in
``src/`` changes, and the engine stays on the code path it takes
untraced: ``use_tracer``/``use_audit`` are never touched, because both
would move it onto another branch.

A span is a list ``[layer, start, end, parent, op, info]`` kept by the
thread that ran it: ``parent`` indexes the enclosing span of the same
thread, ``op`` is the operation the span served (a request ID for HTTP,
the in-process child's operation number), and ``info`` holds the counts
some layers report (hits, expansions, evictions).  Spans stay in memory
and are written out when the run ends.

A layer's *self* time is its spans' durations minus the part covered by
their child spans; summing self times over every span of an operation
gives back the operation's outermost spans exactly, which is what lets
the layers tile the end-to-end time.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import json
import threading
import time
from collections import defaultdict
from collections.abc import Callable, Iterable

__all__ = ["LAYERS", "Layer", "Recorder", "install", "load_spans", "self_times"]

_now = time.perf_counter


@dataclasses.dataclass(frozen=True)
class Layer:
    """One wrapped entry point: ``module[.owner].attr`` timed as ``layer``."""

    module: str
    owner: str | None
    attr: str
    layer: str
    #: "span" times the call; "event" stamps only its entry or return.
    kind: str = "span"


#: Every layer boundary the benchmark times, outermost first.
LAYERS = (
    Layer("repro.serve.app", None, "read_request", "http.read", "event"),
    Layer("repro.serve.app", None, "render_response", "http.render"),
    Layer("repro.obs.slowlog", "SlowQueryLog", "observe", "serve.worker", "event"),
    Layer("repro.obs.reqlog", "AccessLog", "record", "obs"),
    Layer("repro.obs.slo", "SLOMonitor", "record", "obs"),
    Layer("repro.obs.metrics", "MetricsRegistry", "record_completion", "obs"),
    Layer("repro.obs.metrics", "Counter", "inc", "obs"),
    Layer("repro.obs.metrics", "Gauge", "set", "obs"),
    Layer("repro.obs.metrics", "Histogram", "observe", "obs"),
    Layer("repro.serve.tenants", "TenantRegistry", "enforce_memory_bound", "tenants.governor"),
    Layer("repro.core.engine", "Disambiguator", "complete", "engine"),
    Layer("repro.core.engine", None, "parse_path_expression", "parser"),
    Layer("repro.core.engine", None, "complete_general", "general"),
    Layer("repro.core.compiled", "CompletionCache", "get", "cache.lookup"),
    Layer("repro.core.compiled", "CompiledSchema", "__init__", "compile"),
    Layer("repro.core.compiled", "CompiledSchema", "evolve", "compile.evolve"),
    Layer("repro.core.closure", "SchemaClosure", "tables_for", "closure"),
    Layer("repro.core.closure", "SchemaClosure", "_build_tables", "closure.build"),
    Layer("repro.core.closure", "SchemaClosure", "_build_reachability", "closure.build"),
    Layer("repro.core.completion", "CompletionSearch", "run", "search.run"),
    Layer("repro.core.completion", "CompletionSearch", "_traverse", "search.traverse"),
    Layer("repro.algebra.agg", "Aggregator", "aggregate", "agg.aggregate"),
    Layer("repro.core.completion", None, "apply_preemption", "agg.preemption"),
)


class Recorder:
    """Thread-safe in-memory span store.

    ``op_of`` names the operation a span serves; it is called at span
    entry on the thread running the span.  Events are ``(layer, time,
    op)`` stamps for boundaries that are not calls (a request read off
    the socket, a job reaching its worker).
    """

    def __init__(self, op_of: Callable[[], object] | None = None) -> None:
        self.op_of = op_of if op_of is not None else (lambda: None)
        self._local = threading.local()
        self._lock = threading.Lock()
        self.threads: list[list[list]] = []
        self.events: list[tuple[str, float, object]] = []

    def _thread_state(self):
        local = self._local
        spans = getattr(local, "spans", None)
        if spans is None:
            spans = local.spans = []
            local.stack = []
            local.pending = []
            with self._lock:
                self.threads.append(spans)
        return local

    def event(self, layer: str, op: object = None, at: float | None = None) -> None:
        self.events.append((layer, _now() if at is None else at, op))

    def begin(self, layer: str) -> tuple:
        local = self._thread_state()
        stack = local.stack
        span = [layer, _now(), 0.0, stack[-1] if stack else -1, self.op_of(), None]
        index = len(local.spans)
        local.spans.append(span)
        stack.append(index)
        return local, span

    @staticmethod
    def end(local, span: list, info=None) -> None:
        span[2] = _now()
        if info is not None:
            span[5] = info
        local.stack.pop()

    # -- attribution of loop-thread spans that carry no ambient op -------

    def hold_unowned(self, local, span: list) -> None:
        """Keep ``span`` until the next owned span on this thread names its op.

        The serving tier records status metrics and the SLO window after
        the request context is gone, then writes the access record and
        renders the response with the request ID in hand; those last two
        claim the spans recorded just before them.
        """
        local.pending.append(span)

    def claim(self, op: object) -> None:
        local = self._thread_state()
        for span in local.pending:
            span[4] = op
        local.pending.clear()

    def drop_unowned(self) -> None:
        self._thread_state().pending.clear()

    # -- output ---------------------------------------------------------

    def records(self) -> Iterable[dict]:
        """Every span and event as JSON-ready dicts, ids ``thread:index``."""
        with self._lock:
            threads = list(self.threads)
        for thread_no, spans in enumerate(threads):
            for index, span in enumerate(spans):
                layer, start, end, parent, op, info = span
                yield {
                    "id": f"{thread_no}:{index}",
                    "layer": layer,
                    "start": start,
                    "end": end,
                    "parent": f"{thread_no}:{parent}" if parent >= 0 else None,
                    "op": op,
                    "info": info,
                }
        for layer, at, op in self.events:
            yield {"layer": layer, "at": at, "op": op}

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.records():
                handle.write(json.dumps(record, separators=(",", ":")) + "\n")


def load_spans(lines: Iterable[str]) -> tuple[list[dict], list[dict]]:
    """(spans, events) from :meth:`Recorder.dump` output."""
    spans: list[dict] = []
    events: list[dict] = []
    for line in lines:
        record = json.loads(line)
        (events if "at" in record else spans).append(record)
    return spans, events


def self_times(spans: list[dict]) -> dict[str, float]:
    """Span id -> self time (duration minus the time its children cover)."""
    covered: dict[str, float] = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] += span["end"] - span["start"]
    return {
        span["id"]: (span["end"] - span["start"]) - covered.get(span["id"], 0.0)
        for span in spans
    }


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------


def _search_counts(args: tuple, result) -> list[int]:
    stats = result.stats
    pruned = (
        stats.pruned_visited
        + stats.pruned_target_bound
        + stats.pruned_best_bound
        + stats.nodes_pruned_reachability
        + stats.nodes_pruned_bound
    )
    return [stats.recursive_calls, pruned, stats.complete_paths_found, len(result.paths)]


def _engine_counts(args: tuple, result) -> list[int]:
    reason = result.truncation_reason or ""
    return [0 if result.exhausted else 1, 1 if reason.startswith("degraded") else 0]


#: layer -> what its span keeps from the call's arguments and result.
_INFO = {
    "cache.lookup": lambda args, result: 0 if result is None else 1,
    "search.run": _search_counts,
    "engine": _engine_counts,
    # Cache entries before and after the evolve (args[0] is the artifact).
    "compile.evolve": lambda args, result: [len(args[0].cache), len(result.cache)],
    "tenants.governor": lambda args, result: result[0],  # entries evicted
}


def _op_from_call(layer: str, args: tuple, kwargs: dict) -> object:
    """The request ID a loop-thread call carries explicitly, if any."""
    if layer == "obs" and "request_id" in kwargs:
        return kwargs["request_id"]
    if layer == "http.render":
        headers = kwargs.get("extra_headers") or {}
        return headers.get("X-Request-Id")
    return None


def _wrap(recorder: Recorder, spec: Layer, original):
    layer = spec.layer
    keep = _INFO.get(layer)
    explicit_op = layer in ("obs", "http.render")

    if spec.kind == "event":
        if inspect.iscoroutinefunction(original):

            @functools.wraps(original)
            async def read_wrapper(*args, **kwargs):
                request = await original(*args, **kwargs)
                if request is not None:
                    # A new request's turn on the loop: nothing recorded
                    # before it belongs to the request that follows.
                    recorder.drop_unowned()
                    recorder.event(layer, request.headers.get("x-request-id"))
                return request

            return read_wrapper

        @functools.wraps(original)
        def entry_wrapper(*args, **kwargs):
            recorder.event(layer, recorder.op_of())
            return original(*args, **kwargs)

        return entry_wrapper

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        local, span = recorder.begin(layer)
        info = None
        try:
            result = original(*args, **kwargs)
            if keep is not None:
                info = keep(args, result)
            return result
        finally:
            recorder.end(local, span, info)
            if explicit_op:
                op = _op_from_call(layer, args, kwargs)
                if op is not None:
                    span[4] = op
                    recorder.claim(op)
                elif span[4] is None:
                    recorder.hold_unowned(local, span)

    return wrapper


def install(recorder: Recorder, layers: Iterable[Layer] = LAYERS) -> tuple[list[str], Callable[[], None]]:
    """Wrap every importable layer entry point; return (missing, restore).

    A layer whose module or attribute is gone (renamed by a later
    change) is reported in ``missing`` instead of failing the run.
    """
    missing: list[str] = []
    undo: list[tuple[object, str, object]] = []
    for spec in layers:
        try:
            module = importlib.import_module(spec.module)
        except ImportError:
            missing.append(f"{spec.module}.{spec.attr}")
            continue
        owner = getattr(module, spec.owner, None) if spec.owner else module
        if owner is None or spec.attr not in vars(owner):
            missing.append(f"{spec.module}.{spec.owner or ''}.{spec.attr}")
            continue
        original = vars(owner)[spec.attr]
        setattr(owner, spec.attr, _wrap(recorder, spec, original))
        undo.append((owner, spec.attr, original))

    def restore() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return missing, restore
