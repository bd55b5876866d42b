"""Request identity and the structured access log.

The serving tier's signals — labelled Prometheus series, the slow-query
log, the search audit log, per-request traces — were uncorrelated:
given one slow or shed response there was no way to walk from the
symptom to the exact trace and budget decisions that produced it.  This
module supplies the correlation key and the first place it lands:

* **Request IDs.**  Every request gets one: an inbound ``X-Request-Id``
  is honoured after sanitation (:func:`clean_request_id` — bounded
  length, conservative charset, so a hostile header cannot smuggle
  bytes into logs), otherwise :func:`mint_request_id` generates 128
  fresh random bits in hex.  The ID is stamped into the response
  header, the access log, the slow-log entry's attributes, the audit
  log's ``search`` record, and the root span of a sampled trace.

* **Ambient request context.**  :class:`RequestContext` rides the
  ambient :class:`repro.scope.Scope` (:func:`use_request` /
  :func:`get_request` / :func:`get_request_id`) beside the tracer and
  metrics registry, so the engine-side hooks (slowlog,
  audit) pick the ID up without any parameter threading.  The default
  is ``None`` and every consumer guards on it, preserving the
  no-instrumentation overhead contract.

* **Head sampling.**  :class:`HeadSampler` decides *at admission*
  whether a request gets a recording tracer (``trace_sample_rate``),
  with a seedable RNG for deterministic tests and cheap counters for
  the ops endpoint.  Tail retention of slow/truncated/errored requests
  is the slow log's job (see ``promote_failures``), head sampling only
  adds a representative cross-section of *healthy* traffic.

* **The access log.**  :class:`AccessLog` keeps a bounded ring of
  structured per-request records (method, route, tenant, status,
  latency, budget outcome, shed/drain reason, cache hit, sample
  decision, request ID) and optionally appends each record to a JSONL
  file sink.  Records carry ``version`` :data:`ACCESS_LOG_VERSION` and
  validate against the checked-in ``access_record.schema.json``.
"""

from __future__ import annotations

import json
import os
import random
import threading
import time
from collections import deque
from typing import IO

from repro.scope import current, scoped

__all__ = [
    "ACCESS_LOG_VERSION",
    "AccessLog",
    "HeadSampler",
    "REQUEST_ID_HEADER",
    "RequestContext",
    "clean_request_id",
    "get_request",
    "get_request_id",
    "mint_request_id",
    "use_request",
]

#: Record format version stamped on every exported access record.
ACCESS_LOG_VERSION = 1

#: The request/response header carrying the correlation ID (lowercase:
#: the HTTP parser lowercases inbound header names).
REQUEST_ID_HEADER = "x-request-id"

#: Inbound IDs are accepted only from this conservative charset and
#: length — anything else is replaced with a minted ID rather than
#: propagated into logs verbatim.
_ID_CHARS = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-"
)
_MAX_ID_LENGTH = 128

#: Outcome labels an access record can carry (the schema enum).
OUTCOMES = (
    "ok",
    "partial",
    "shed",
    "drain",
    "transient",
    "client_error",
    "error",
)


def mint_request_id() -> str:
    """A fresh 32-hex-character request ID (128 random bits)."""
    return os.urandom(16).hex()


def clean_request_id(raw: str | None) -> str | None:
    """The inbound ``X-Request-Id`` if it is safe to honour, else None.

    Returns ``None`` (mint instead) for missing, empty, over-long, or
    out-of-charset values — a client-supplied ID is a convenience for
    cross-system correlation, never a channel into the logs.
    """
    if not raw:
        return None
    if len(raw) > _MAX_ID_LENGTH:
        return None
    if not all(ch in _ID_CHARS for ch in raw):
        return None
    return raw


class RequestContext:
    """The per-request identity the serving tier installs ambiently.

    ``request_id`` is the correlation key; ``sampled`` records the head
    sampler's decision so the worker-side job knows whether to install
    a recording tracer and promote the slow-log entry.
    """

    __slots__ = ("request_id", "sampled")

    def __init__(self, request_id: str, sampled: bool = False) -> None:
        self.request_id = request_id
        self.sampled = sampled

    def __repr__(self) -> str:
        return (
            f"RequestContext({self.request_id!r}, sampled={self.sampled})"
        )


def get_request() -> RequestContext | None:
    """The ambient request context, or ``None`` outside a request."""
    return current().request


def get_request_id() -> str | None:
    """The ambient request ID, or ``None`` outside a request."""
    context = current().request
    return context.request_id if context is not None else None


def use_request(context: RequestContext | None) -> scoped:
    """Install ``context`` as the ambient request for the with-block."""
    return scoped(context, request=context)


class HeadSampler:
    """Bernoulli head sampling with observable counters.

    One decision per request at admission; ``rate`` is the probability
    a request gets a recording tracer.  ``seed`` makes the decision
    sequence deterministic for tests; production leaves it ``None``.
    Thread-safe — decisions may come from the event loop or tests.
    """

    def __init__(self, rate: float, seed: int | None = None) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {rate!r}")
        self.rate = rate
        self._rng = random.Random(seed) if seed is not None else random.Random()
        self._decisions = 0
        self._sampled = 0
        self._lock = threading.Lock()

    def sample(self) -> bool:
        """Decide one request; counts the decision either way."""
        with self._lock:
            self._decisions += 1
            if self.rate <= 0.0:
                return False
            hit = self.rate >= 1.0 or self._rng.random() < self.rate
            if hit:
                self._sampled += 1
            return hit

    def stats(self) -> dict:
        """Counters for the ops endpoint (`/v1/debug`)."""
        with self._lock:
            return {
                "rate": self.rate,
                "decisions": self._decisions,
                "sampled": self._sampled,
            }


class AccessLog:
    """A bounded ring of structured access records, with a file sink.

    ``capacity`` bounds in-memory retention (oldest records fall off);
    ``path`` optionally appends every record as one JSON line to a
    file, flushed per record so a crash loses at most the in-flight
    line.  ``record`` is thread-safe; the serving tier calls it once
    per response from the event loop.
    """

    enabled = True

    def __init__(
        self, capacity: int = 1024, path: str | None = None
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity!r}")
        self.capacity = capacity
        self.path = path
        self._ring: "deque[dict]" = deque(maxlen=capacity)
        self._seq = 0
        self._lock = threading.Lock()
        self._sink: IO[str] | None = (
            open(path, "a", encoding="utf-8") if path is not None else None
        )

    def record(
        self,
        *,
        request_id: str,
        method: str,
        route: str,
        status: int,
        latency_ms: float,
        outcome: str,
        tenant: str | None = None,
        cache_hit: bool | None = None,
        truncation_reason: str | None = None,
        shed_reason: str | None = None,
        sampled: bool = False,
        error: str | None = None,
    ) -> dict:
        """Append one access record; returns the stored dict."""
        with self._lock:
            entry = {
                "version": ACCESS_LOG_VERSION,
                "seq": self._seq,
                "ts": time.time(),
                "request_id": request_id,
                "method": method,
                "route": route,
                "status": status,
                "latency_ms": round(latency_ms, 3),
                "outcome": outcome,
                "tenant": tenant,
                "cache_hit": cache_hit,
                "truncation_reason": truncation_reason,
                "shed_reason": shed_reason,
                "sampled": sampled,
                "error": error,
            }
            self._seq += 1
            self._ring.append(entry)
            if self._sink is not None:
                self._sink.write(json.dumps(entry, sort_keys=True) + "\n")
                self._sink.flush()
        return entry

    def records(self) -> list[dict]:
        """Copies of the retained records, oldest first."""
        with self._lock:
            return [dict(entry) for entry in self._ring]

    def find(self, request_id: str) -> dict | None:
        """The most recent record for ``request_id``, if retained."""
        with self._lock:
            for entry in reversed(self._ring):
                if entry["request_id"] == request_id:
                    return dict(entry)
        return None

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    def stats(self) -> dict:
        """Occupancy counters for the ops endpoint."""
        with self._lock:
            return {
                "enabled": self.enabled,
                "recorded": self._seq,
                "retained": len(self._ring),
                "capacity": self.capacity,
                "path": self.path,
            }

    def write_jsonl(self, target: str | IO[str]) -> int:
        """Write the retained records as JSON lines; returns the count."""
        records = self.records()
        payload = "".join(
            json.dumps(record, sort_keys=True) + "\n" for record in records
        )
        if hasattr(target, "write"):
            target.write(payload)  # type: ignore[union-attr]
        else:
            with open(target, "w", encoding="utf-8") as handle:
                handle.write(payload)
        return len(records)

    def close(self) -> None:
        """Close the file sink (ring stays readable)."""
        with self._lock:
            if self._sink is not None:
                self._sink.close()
                self._sink = None

    def __repr__(self) -> str:
        return (
            f"AccessLog(capacity={self.capacity}, retained={len(self)}, "
            f"path={self.path!r})"
        )
