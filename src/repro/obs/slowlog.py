"""Tail-based slow-query log.

Worst-case Algorithm 2 searches are exponential in the schema; under
production traffic, the queries worth a full trace are precisely the
outliers that blow the latency budget — tracing *everything* all the
time is unaffordable, tracing nothing hides the tail.  This module does
tail-based retention: while a :class:`SlowQueryLog` is installed, every
instrumented entry point (:meth:`Disambiguator.complete`,
``CompletionSession.ask``, ``run_fox``, the experiment harness's
per-query loop) runs under a private
:class:`~repro.obs.tracer.RecordingTracer`, but the resulting span tree
is *kept* only when the query

* exceeds the latency threshold (``threshold_ms``, when set), or
* ranks in the current top-K by elapsed time (``top_k``).

Everything else is dropped on the floor, so memory stays bounded by
``capacity`` over-threshold entries plus K ranked ones, no matter how
much traffic flows through.

Each retained :class:`SlowLogEntry` carries the query text, E, the
active ``pruning`` mode (a slow query under ``pruning=none`` is
expected; the same query slow under ``closure`` is a regression — the
log must say which one you are looking at), the
budget outcome (``exhausted``/``truncation_reason``/``error``), the
traversal stats, and the full trace-event subtree; exports carry
``version``  :data:`SLOWLOG_VERSION` and validate against the
checked-in ``slowlog_entry.schema.json``, which rejects records from
older versions.

An entry keeps the closed span tree and the stats object, and exports
them (:attr:`SlowLogEntry.spans`, :attr:`SlowLogEntry.stats`) on first
read: with the serving tier's default threshold of 0 ms every request
is retained into the ring, and most entries are evicted unread.  A
closed span holds no reference to its tracer, so a kept tree is
acyclic and an evicted entry is freed by reference counting alone.

Like the tracer and metrics registry, the ambient default
(:func:`get_slowlog`) is a shared no-op whose :attr:`enabled` flag the
hot path checks first, preserving the <5% no-instrumentation overhead
contract.  Entry points are reentrancy-guarded: the *outermost*
observation wins (a session ``ask`` logs one entry, not one per nested
``complete``), so entries never double-count one user-visible query.
"""

from __future__ import annotations

import heapq
import json
import threading
import time
from collections import deque
from typing import IO

from repro.obs.tracer import RecordingTracer, span_events
from repro.scope import current, enter, restore, scoped

__all__ = [
    "NullSlowQueryLog",
    "Observation",
    "SLOWLOG_VERSION",
    "SlowLogEntry",
    "SlowQueryLog",
    "get_slowlog",
    "observing",
    "use_slowlog",
]

#: Record format version stamped on every exported entry.  Version 1
#: never recorded the active pruning mode, which made slow-query triage
#: ambiguous (was that 40ms search running with the closure cuts or
#: without them?); version 2 added it and a ``delta`` mode; version 3
#: drops ``delta``, since schema edits have one strategy.  The schema
#: rejects older versions.
SLOWLOG_VERSION = 3

#: Reasons an entry was retained.
RETAINED_THRESHOLD = "threshold"
RETAINED_TOP_K = "top_k"
#: Head-sampled request: the serving tier decided at admission to keep
#: a representative trace regardless of latency.
RETAINED_SAMPLED = "sampled"
#: Tail-promoted request: it ended truncated or errored, so the trace
#: is kept no matter how fast it was (``promote_failures`` or an
#: explicit :meth:`Observation.promote`).
RETAINED_PROMOTED = "promoted"


class SlowLogEntry:
    """One retained slow query (mutable only inside the log's lock).

    ``spans`` and ``stats`` are exported from the kept span tree and
    stats object when first read.
    """

    __slots__ = (
        "seq",
        "kind",
        "query",
        "e",
        "pruning",
        "elapsed_ms",
        "exhausted",
        "truncation_reason",
        "error",
        "retained",
        "attrs",
        "_stats",
        "_roots",
        "_spans",
    )

    def __init__(
        self,
        seq: int,
        kind: str,
        query: str,
        e: int | None,
        pruning: str,
        elapsed_ms: float,
        exhausted: bool,
        truncation_reason: str | None,
        error: str | None,
        retained: str,
        stats: object | None,
        attrs: dict,
        roots: list,
    ) -> None:
        self.seq = seq
        self.kind = kind
        self.query = query
        self.e = e
        self.pruning = pruning
        self.elapsed_ms = elapsed_ms
        self.exhausted = exhausted
        self.truncation_reason = truncation_reason
        self.error = error
        self.retained = retained
        self.attrs = attrs
        self._stats = stats
        self._roots = roots
        self._spans: list[dict] | None = None

    @property
    def stats(self) -> dict | None:
        """The traversal stats as a plain dict, or ``None``."""
        stats = self._stats
        if stats is not None and not isinstance(stats, dict):
            stats = self._stats = stats.as_dict()
        return stats

    @property
    def spans(self) -> list[dict]:
        """The span trees as trace-event records, exported once."""
        spans = self._spans
        if spans is None:
            spans = self._spans = span_events(self._roots)
        return spans

    def to_record(self) -> dict:
        """The JSONL record (validates against the checked-in schema)."""
        return {
            "version": SLOWLOG_VERSION,
            "seq": self.seq,
            "kind": self.kind,
            "query": self.query,
            "e": self.e,
            "pruning": self.pruning,
            "elapsed_ms": self.elapsed_ms,
            "exhausted": self.exhausted,
            "truncation_reason": self.truncation_reason,
            "error": self.error,
            "retained": self.retained,
            "stats": self.stats,
            "attrs": self.attrs,
            "spans": self.spans,
        }

    def __repr__(self) -> str:
        return (
            f"SlowLogEntry(#{self.seq} {self.kind} {self.query!r}, "
            f"{self.elapsed_ms:.2f}ms, retained={self.retained})"
        )


class Observation:
    """One query under observation: what ``slowlog.observe(...)`` returns.

    Entering it marks the context as observing, installs a private
    :class:`RecordingTracer` when no real tracer is ambient (so a
    retained entry always carries a span tree) and starts the clock;
    leaving it records an escaping error and hands the query to the log
    for retention.  In between, the instrumented entry point decorates
    it: :meth:`record_result` takes the budget outcome and stats off a
    :class:`~repro.core.completion.CompletionResult`-shaped object;
    :meth:`set` attaches extra attributes (row counts, query ids).
    """

    __slots__ = (
        "kind",
        "query",
        "e",
        "pruning",
        "attrs",
        "exhausted",
        "truncation_reason",
        "error",
        "stats",
        "promoted",
        "_log",
        "_tracer",
        "_roots_before",
        "_token",
        "_start",
    )

    def __init__(
        self,
        log: "SlowQueryLog",
        kind: str,
        query: str,
        e: int | None,
        attrs: dict,
        pruning: str,
    ) -> None:
        self._log = log
        self.kind = kind
        self.query = query
        self.e = e
        self.pruning = pruning
        self.attrs = attrs
        self.exhausted = True
        self.truncation_reason: str | None = None
        self.error: str | None = None
        self.stats: object | None = None
        self.promoted: str | None = None

    def __enter__(self) -> "Observation":
        scope = current()
        tracer = scope.tracer
        if tracer is not None and tracer.enabled:
            self._roots_before = len(tracer.roots)
        else:
            tracer = RecordingTracer()
            self._roots_before = 0
        self._tracer = tracer
        self._token = enter(scope._replace(observing=True, tracer=tracer))
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, error, traceback) -> None:
        elapsed_ms = (time.perf_counter() - self._start) * 1000.0
        restore(self._token)
        if error is not None:
            self.error = f"{type(error).__name__}: {error}"
            self.exhausted = False
            reason = getattr(error, "reason", None)
            if isinstance(reason, str):
                self.truncation_reason = reason
            partial = getattr(error, "partial", None)
            if partial is not None:
                self.record_result(partial)
                self.exhausted = False
        roots = self._tracer.roots[self._roots_before:]
        self._tracer = None
        self._log._consider(self, elapsed_ms, roots)

    def set(self, **attrs: object) -> "Observation":
        self.attrs.update(attrs)
        return self

    def promote(self, reason: str = RETAINED_PROMOTED) -> "Observation":
        """Force retention of this query's entry regardless of latency.

        ``reason`` becomes the entry's ``retained`` label
        (:data:`RETAINED_SAMPLED` for head-sampled requests,
        :data:`RETAINED_PROMOTED` for explicit tail promotion).
        """
        self.promoted = reason
        return self

    def record_result(self, result: object) -> None:
        """Take budget outcome and stats from a completion result.

        The stats object is kept as is; a retained entry converts it
        when read.
        """
        self.exhausted = bool(getattr(result, "exhausted", True))
        self.truncation_reason = getattr(result, "truncation_reason", None)
        stats = getattr(result, "stats", None)
        if stats is not None and hasattr(stats, "as_dict"):
            self.stats = stats
        paths = getattr(result, "paths", None)
        if paths is not None:
            self.attrs.setdefault("paths", len(paths))


class _NullObservation:
    """Shared do-nothing observation for the no-op log."""

    __slots__ = ()

    def set(self, **attrs: object) -> "_NullObservation":
        return self

    def promote(self, reason: str = RETAINED_PROMOTED) -> "_NullObservation":
        return self

    def record_result(self, result: object) -> None:
        pass

    def __enter__(self) -> "_NullObservation":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass


_NULL_OBSERVATION = _NullObservation()


class SlowQueryLog:
    """Bounded tail-based retention of slow-query traces.

    Parameters
    ----------
    threshold_ms:
        Queries at or above this latency are always retained (until
        ``capacity`` pushes the oldest out).  ``None`` disables the
        threshold rule; retention is then purely top-K.
    top_k:
        The K slowest queries seen so far are retained regardless of
        the threshold; when a new query outranks the current minimum,
        the minimum is evicted (unless it also cleared the threshold).
    capacity:
        Ring-buffer bound on threshold- and promotion-retained entries.
    promote_failures:
        When set, a query that ended truncated (``exhausted=False``) or
        errored is retained even below the latency threshold — the
        serving tier's *tail promotion*: a 206 or a 5xx is worth its
        trace no matter how quickly it failed.
    """

    enabled = True
    is_noop = False

    def __init__(
        self,
        threshold_ms: float | None = None,
        top_k: int = 10,
        capacity: int = 256,
        promote_failures: bool = False,
    ) -> None:
        if top_k < 0 or capacity < 1:
            raise ValueError("top_k must be >= 0 and capacity >= 1")
        self.threshold_ms = threshold_ms
        self.top_k = top_k
        self.capacity = capacity
        self.promote_failures = promote_failures
        self._seq = 0
        self._observed = 0
        self._by_threshold: deque[SlowLogEntry] = deque(maxlen=capacity)
        #: Min-heap of (elapsed_ms, seq, entry) — the current top-K.
        self._heap: list[tuple[float, int, SlowLogEntry]] = []
        self._lock = threading.Lock()

    # -- the entry-point hook -----------------------------------------

    def observe(
        self,
        kind: str,
        query: str,
        e: int | None = None,
        pruning: str = "closure",
        **attrs: object,
    ) -> Observation | _NullObservation:
        """Time a with-block as one query and consider it for retention.

        ``with log.observe(...) as obs:`` — see :class:`Observation`.
        ``pruning`` defaults to the default mode, so every retained
        entry says whether the closure cuts were on — callers that
        know better (the engine knows its own ``pruning``) pass the
        exact value.  Inside an open observation (an engine
        ``complete`` inside a session ``ask``) this returns a no-op
        observation: the outermost entry point owns the query.
        """
        if current().observing:
            return _NULL_OBSERVATION
        return Observation(self, kind, query, e, attrs, pruning)

    # -- retention ----------------------------------------------------

    def _consider(
        self, observation: Observation, elapsed_ms: float, roots: list
    ) -> None:
        with self._lock:
            self._observed += 1
            seq = self._seq
            self._seq += 1
            over_threshold = (
                self.threshold_ms is not None
                and elapsed_ms >= self.threshold_ms
            )
            promoted = observation.promoted
            if promoted is None and self.promote_failures and (
                observation.error is not None or not observation.exhausted
            ):
                promoted = RETAINED_PROMOTED
            in_top_k = self.top_k > 0 and (
                len(self._heap) < self.top_k or elapsed_ms > self._heap[0][0]
            )
            if not over_threshold and not in_top_k and promoted is None:
                return  # drop: the trace is freed with the observation
            if over_threshold:
                retained = RETAINED_THRESHOLD
            elif promoted is not None:
                retained = promoted
            else:
                retained = RETAINED_TOP_K
            entry = SlowLogEntry(
                seq=seq,
                kind=observation.kind,
                query=observation.query,
                e=observation.e,
                pruning=observation.pruning,
                elapsed_ms=elapsed_ms,
                exhausted=observation.exhausted,
                truncation_reason=observation.truncation_reason,
                error=observation.error,
                retained=retained,
                stats=observation.stats,
                attrs=_jsonable_attrs(observation.attrs),
                roots=roots,
            )
            if over_threshold or (promoted is not None and not in_top_k):
                # Promotions share the threshold ring so `capacity`
                # still bounds total retention under a failure storm.
                self._by_threshold.append(entry)
            if in_top_k:
                if len(self._heap) < self.top_k:
                    heapq.heappush(self._heap, (elapsed_ms, seq, entry))
                else:
                    heapq.heappushpop(self._heap, (elapsed_ms, seq, entry))

    # -- inspection / export ------------------------------------------

    @property
    def observed(self) -> int:
        """How many queries were considered (retained or not)."""
        with self._lock:
            return self._observed

    def entries(self) -> list[SlowLogEntry]:
        """The retained entries in arrival (seq) order, deduplicated."""
        with self._lock:
            merged = {entry.seq: entry for entry in self._by_threshold}
            for _, _, entry in self._heap:
                merged.setdefault(entry.seq, entry)
        return [merged[seq] for seq in sorted(merged)]

    def __len__(self) -> int:
        return len(self.entries())

    def render(self, limit: int | None = None) -> str:
        """Human-readable dump, slowest first."""
        entries = sorted(
            self.entries(), key=lambda entry: -entry.elapsed_ms
        )[: limit or None]
        if not entries:
            return "slow-query log is empty"
        lines = [
            f"{len(self.entries())} retained of {self.observed} observed "
            f"(threshold "
            + (
                f"{self.threshold_ms:g}ms"
                if self.threshold_ms is not None
                else "off"
            )
            + f", top-{self.top_k})"
        ]
        for entry in entries:
            flags = []
            if not entry.exhausted:
                flags.append(
                    f"partial:{entry.truncation_reason or 'unknown'}"
                )
            if entry.error:
                flags.append(f"error:{entry.error}")
            lines.append(
                f"  #{entry.seq:<4} {entry.elapsed_ms:9.2f}ms "
                f"[{entry.retained}] {entry.kind}: {entry.query}"
                f"  pruning={entry.pruning}"
                + (f"  ({', '.join(flags)})" if flags else "")
            )
        return "\n".join(lines)

    def to_records(self) -> list[dict]:
        return [entry.to_record() for entry in self.entries()]

    def write_jsonl(self, target: str | IO[str]) -> int:
        """Write retained entries as JSON lines; returns the count."""
        records = self.to_records()
        payload = "".join(
            json.dumps(record, sort_keys=True) + "\n" for record in records
        )
        if hasattr(target, "write"):
            target.write(payload)  # type: ignore[union-attr]
        else:
            with open(target, "w", encoding="utf-8") as handle:
                handle.write(payload)
        return len(records)

    def __repr__(self) -> str:
        return (
            f"SlowQueryLog(threshold_ms={self.threshold_ms}, "
            f"top_k={self.top_k}, retained={len(self)})"
        )


def _jsonable_attrs(attrs: dict) -> dict:
    """Attributes coerced to JSON-safe scalars (repr fallback)."""
    safe: dict = {}
    for key, value in attrs.items():
        if isinstance(value, (str, int, float, bool)) or value is None:
            safe[str(key)] = value
        else:
            safe[str(key)] = repr(value)
    return safe


class NullSlowQueryLog:
    """The ambient default: observes nothing, costs one attribute read."""

    enabled = False
    is_noop = True
    threshold_ms = None
    top_k = 0
    observed = 0

    def observe(
        self,
        kind: str,
        query: str,
        e: int | None = None,
        pruning: str = "closure",
        **attrs: object,
    ) -> _NullObservation:
        return _NULL_OBSERVATION

    def entries(self) -> list:
        return []

    def to_records(self) -> list:
        return []

    def __len__(self) -> int:
        return 0

    def render(self, limit: int | None = None) -> str:
        return "slow-query log is off"


_NULL_SLOWLOG = NullSlowQueryLog()


def get_slowlog() -> SlowQueryLog | NullSlowQueryLog:
    """The slow-query log instrumented entry points should consult."""
    log = current().slowlog
    return _NULL_SLOWLOG if log is None else log


def observing() -> bool:
    """True while an observation is open in this context.

    A nested :meth:`SlowQueryLog.observe` would yield a no-op
    observation, so a hot entry point can check this and skip opening
    one at all.
    """
    return current().observing


def use_slowlog(log: SlowQueryLog | NullSlowQueryLog) -> scoped:
    """Install ``log`` as the ambient slow-query log for the with-block."""
    return scoped(log, slowlog=log)
