"""Tracing spans for the disambiguation pipeline.

A *span* is one named, timed region of work (``parse``, ``compile``,
``traverse``, ``agg_select``, ``preemption``, ``rank``,
``cache_lookup``, ...) with attributes attached as it runs and point
*events* recorded inside it.  Spans nest: entering a span inside
another makes it a child, so one ``complete`` call produces a tree
whose leaves tile the total elapsed time.

Two tracers implement the same duck-typed interface:

* :class:`NullTracer` — the ambient default.  ``span()`` hands back a
  process-wide singleton whose enter/exit/set/event are all no-ops, so
  instrumented code costs one context-variable read plus one method
  call per span when tracing is off.
* :class:`RecordingTracer` — keeps the span trees (one root per
  top-level region, per-thread nesting; a thread can adopt a span
  another thread keeps open, :meth:`RecordingTracer.adopt`), renders
  them as an indented tree (:meth:`RecordingTracer.render`), exports
  them as a JSON-lines event log (:meth:`RecordingTracer.write_jsonl`),
  and aggregates a per-span-name summary
  (:meth:`RecordingTracer.summary`).

The active tracer is a field of the ambient :class:`repro.scope.Scope`,
so ``with use_tracer(RecordingTracer()):`` scopes tracing to one CLI
command, session, or test without any global mutable state leaking
between threads or asyncio tasks.

A closed span forgets its tracer, so a kept span tree holds no
reference back to the tracer that holds it: once the last owner of a
tree lets go (the slow-query log evicting an entry), reference counting
frees it without waiting for the cycle collector.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from typing import IO, Iterator

from repro.scope import current, scoped

__all__ = [
    "NullTracer",
    "RecordingTracer",
    "Span",
    "get_tracer",
    "span_events",
    "use_tracer",
]


class Span:
    """One timed, attributed region of a :class:`RecordingTracer` tree.

    Used as a context manager; attributes set via :meth:`set` and point
    events via :meth:`event` while the span is open.  Durations are
    ``time.perf_counter()`` based.
    """

    __slots__ = (
        "name",
        "attrs",
        "start",
        "end",
        "children",
        "events",
        "_tracer",
    )

    def __init__(self, tracer: "RecordingTracer", name: str, attrs: dict) -> None:
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self.start = 0.0
        self.end = 0.0
        self.children: list[Span] = []
        self.events: list[tuple[float, str, dict]] = []

    # -- recording ----------------------------------------------------

    def set(self, **attrs: object) -> "Span":
        """Attach (or overwrite) attributes; returns self for chaining."""
        self.attrs.update(attrs)
        return self

    def event(self, name: str, **attrs: object) -> None:
        """Record a point event inside this span."""
        self.events.append((time.perf_counter(), name, attrs))

    @property
    def duration(self) -> float:
        """Span duration in seconds (0.0 while still open)."""
        return max(0.0, self.end - self.start)

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def walk(self) -> Iterator[tuple["Span", int]]:
        """Depth-first ``(span, depth)`` pairs over this subtree."""
        stack: list[tuple[Span, int]] = [(self, 0)]
        while stack:
            span, depth = stack.pop()
            yield span, depth
            for child in reversed(span.children):
                stack.append((child, depth + 1))

    # -- context manager ----------------------------------------------

    def __enter__(self) -> "Span":
        self._tracer._push(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.end = time.perf_counter()
        self._tracer._pop(self)
        # The tracer keeps the closed span (as a root or a child); a
        # span keeping the tracer too would make every tree a cycle.
        self._tracer = None

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, {self.duration * 1000:.3f}ms, "
            f"children={len(self.children)})"
        )


class _NullSpan:
    """The shared do-nothing span the :class:`NullTracer` hands out."""

    __slots__ = ()

    def set(self, **attrs: object) -> "_NullSpan":
        return self

    def event(self, name: str, **attrs: object) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The ambient default tracer: every span is the no-op singleton."""

    enabled = False

    def span(self, name: str, **attrs: object) -> _NullSpan:
        return _NULL_SPAN

    def adopt(self, span: object) -> _NullSpan:
        return _NULL_SPAN


_NULL_TRACER = NullTracer()


class RecordingTracer:
    """Collects span trees; thread-safe (per-thread nesting stacks).

    One tracer may record many top-level regions (e.g. every ``ask`` of
    a session while ``:trace on``); each becomes one root in
    :attr:`roots`.
    """

    enabled = True

    def __init__(self) -> None:
        self.roots: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- span plumbing ------------------------------------------------

    def span(self, name: str, **attrs: object) -> Span:
        return Span(self, name, attrs)

    @contextmanager
    def adopt(self, span: Span) -> Iterator[Span]:
        """Nest this thread's spans under ``span``, opened on another thread.

        A span that stays open across a thread hand-off (the serving
        tier opens ``complete`` on its event loop and searches on a
        worker) would otherwise see the worker's spans become new
        roots.  Adoption pushes ``span`` onto this thread's stack for
        the with-block and takes it off again without attaching it
        anywhere: the span still closes, and joins its parent, on the
        thread that opened it.
        """
        stack = self._stack()
        stack.append(span)
        try:
            yield span
        finally:
            if stack and stack[-1] is span:
                stack.pop()
            elif span in stack:
                stack.remove(span)

    def _stack(self) -> list[Span]:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    def _push(self, span: Span) -> None:
        try:
            self._local.stack.append(span)
        except AttributeError:
            self._local.stack = [span]

    def _pop(self, span: Span) -> None:
        stack = self._stack()
        # Tolerate exits out of order (a span kept open across threads);
        # only pop spans we actually track.
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:
            stack.remove(span)
        if stack:
            stack[-1].children.append(span)
        else:
            with self._lock:
                self.roots.append(span)

    # -- inspection ---------------------------------------------------

    @property
    def span_count(self) -> int:
        return sum(1 for root in self.roots for _ in root.walk())

    def find(self, name: str) -> list[Span]:
        """All recorded spans with the given name, in tree order."""
        return [
            span
            for root in self.roots
            for span, _ in root.walk()
            if span.name == name
        ]

    def summary(self) -> dict[str, dict[str, float]]:
        """Aggregate per span name: count, total/self seconds."""
        table: dict[str, dict[str, float]] = {}
        for root in self.roots:
            for span, _ in root.walk():
                entry = table.setdefault(
                    span.name,
                    {"count": 0, "total_seconds": 0.0, "self_seconds": 0.0},
                )
                entry["count"] += 1
                entry["total_seconds"] += span.duration
                entry["self_seconds"] += span.duration - sum(
                    child.duration for child in span.children
                )
        return table

    # -- exporters ----------------------------------------------------

    def render(self, min_ms: float = 0.0) -> str:
        """Human-readable tree dump, one line per span.

        ``min_ms`` hides spans shorter than the threshold (their time
        still shows in the parent).
        """
        lines: list[str] = []
        for root in self.roots:
            epoch = root.start
            for span, depth in root.walk():
                if span.duration * 1000 < min_ms and depth > 0:
                    continue
                attrs = " ".join(
                    f"{key}={value!r}" for key, value in span.attrs.items()
                )
                indent = "  " * depth
                lines.append(
                    f"{indent}{span.name:<{max(1, 24 - len(indent))}}"
                    f" {span.duration * 1000:9.3f}ms"
                    f"  +{(span.start - epoch) * 1000:.3f}ms"
                    + (f"  [{attrs}]" if attrs else "")
                )
                for at, name, event_attrs in span.events:
                    event_rendered = " ".join(
                        f"{key}={value!r}" for key, value in event_attrs.items()
                    )
                    lines.append(
                        f"{indent}  * {name} +{(at - epoch) * 1000:.3f}ms"
                        + (f"  [{event_rendered}]" if event_rendered else "")
                    )
        return "\n".join(lines)

    def to_events(self, roots: list[Span] | None = None) -> list[dict]:
        """The JSON-lines event log as a list of plain dicts.

        ``roots`` restricts the export to a subset of recorded trees;
        by default every recorded root is exported (see
        :func:`span_events`).
        """
        return span_events(self.roots if roots is None else roots)

    def write_jsonl(self, target: str | IO[str]) -> int:
        """Write the event log as JSON lines; returns the record count."""
        records = self.to_events()
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
        return f"RecordingTracer(roots={len(self.roots)}, spans={self.span_count})"


def span_events(roots: list[Span]) -> list[dict]:
    """The JSON-lines event log of the span trees under ``roots``.

    One ``span`` record per span (pre-order, so parents precede
    children) and one ``event`` record per point event, all with
    millisecond offsets relative to their root span's start.  Span ids
    number the records of all ``roots`` together from 0.
    """
    records: list[dict] = []
    next_id = 0
    for root in roots:
        epoch = root.start
        parents: dict[int, int | None] = {id(root): None}
        for span, depth in root.walk():
            span_id = next_id
            next_id += 1
            for child in span.children:
                parents[id(child)] = span_id
            records.append(
                {
                    "type": "span",
                    "id": span_id,
                    "parent": parents.get(id(span)),
                    "name": span.name,
                    "depth": depth,
                    "start_ms": (span.start - epoch) * 1000,
                    "duration_ms": span.duration * 1000,
                    "attrs": _jsonable(span.attrs),
                }
            )
            for at, name, attrs in span.events:
                records.append(
                    {
                        "type": "event",
                        "span": span_id,
                        "name": name,
                        "at_ms": (at - epoch) * 1000,
                        "attrs": _jsonable(attrs),
                    }
                )
    return records


def _jsonable(attrs: dict) -> dict:
    """Attributes coerced to JSON-safe scalars (repr fallback)."""
    safe: dict = {}
    for key, value in attrs.items():
        if isinstance(value, (str, int, float, bool)) or value is None:
            safe[str(key)] = value
        else:
            safe[str(key)] = repr(value)
    return safe


# ----------------------------------------------------------------------
# The ambient tracer
# ----------------------------------------------------------------------


def get_tracer() -> NullTracer | RecordingTracer:
    """The tracer instrumented code should emit spans to."""
    tracer = current().tracer
    return _NULL_TRACER if tracer is None else tracer


def use_tracer(tracer: NullTracer | RecordingTracer) -> scoped:
    """Install ``tracer`` as the ambient tracer for the with-block."""
    return scoped(tracer, tracer=tracer)
