"""Multi-tenant schema residency with a global cache memory bound.

The serving tier keeps many schemas resident at once — one
:class:`Tenant` per schema name, each wrapping a shared
:class:`~repro.core.compiled.CompiledSchema` from the process-wide
compile registry (so a tenant added twice, or added by a CLI and a
test, shares one artifact and one warm cache) plus memoized per-E
:class:`~repro.core.engine.Disambiguator` instances and an optional
instance :class:`~repro.model.instances.Database` for ``/v1/query``.

Each tenant's completion cache is already bounded by entry *count*;
what a multi-tenant server additionally needs is a bound on total
*memory* across tenants, enforced with cross-tenant LRU: every request
stamps its tenant with a monotonically increasing touch sequence, and
when the summed :meth:`CompletionCache.estimated_bytes
<repro.core.compiled.CompletionCache.estimated_bytes>` exceeds the
configured bound, entries are evicted from the least recently *touched*
tenant first (each tenant's own cache evicts its LRU entries).  A cold
tenant therefore pays for a hot tenant's traffic — which is the right
way around: the hot tenant's entries are the ones earning their keep.

:func:`prewarm_tenant` warms a tenant's cache through a
:class:`~repro.resilience.retry.RetryPolicy`, so a transient backend
fault (chaos tests inject them) costs a retry, not a cold first
request.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Iterable, Sequence

from repro.core.compiled import CompiledSchema, compile_schema
from repro.core.engine import Disambiguator
from repro.errors import InjectedFaultError, ReproError
from repro.model.instances import Database
from repro.model.schema import Schema
from repro.obs.metrics import get_metrics
from repro.resilience.retry import RetryExhaustedError, RetryPolicy

__all__ = [
    "Tenant",
    "TenantRegistry",
    "UnknownTenantError",
    "prewarm_tenant",
]

#: Bound on the memoized engines per tenant, one per E.  E comes from
#: the request, so an unbounded memo would let clients grow server
#: memory one engine per distinct E, unseen by the memory governor;
#: past the bound the least recently used engine is dropped.
ENGINE_MEMO_SIZE = 8


class UnknownTenantError(ReproError):
    """A request named a tenant the registry does not hold."""

    def __init__(self, name: str, known: Sequence[str]) -> None:
        rendered = ", ".join(sorted(known)) or "(none)"
        super().__init__(f"unknown tenant {name!r} (registered: {rendered})")
        self.tenant = name


class Tenant:
    """One resident schema: compiled artifact, engines, optional data."""

    def __init__(
        self,
        name: str,
        compiled: CompiledSchema,
        database: Database | None = None,
    ) -> None:
        self.name = name
        self.compiled = compiled
        self.database = database
        #: Monotonic touch sequence assigned by the registry; the
        #: cross-tenant LRU victim is the smallest value.
        self.last_touch = 0
        self._engines: OrderedDict[int, Disambiguator] = OrderedDict()
        self._lock = threading.Lock()

    def engine(self, e: int = 1) -> Disambiguator:
        """The memoized engine for one E (engines share the artifact).

        An engine binds its searcher to the artifact's graph at
        construction; if the graph has been swapped since (fault
        injection in tests, artifact hot-repair in production), the
        memoized engine is stale and is rebuilt against the current
        graph.  Test doubles without a ``graph`` attribute are treated
        as always-fresh.  At most :data:`ENGINE_MEMO_SIZE` engines stay
        memoized (least recently used dropped first).
        """
        with self._lock:
            engine = self._engines.get(e)
            if engine is not None:
                bound = getattr(engine, "graph", self.compiled.graph)
                if bound is not self.compiled.graph:
                    engine = None
            if engine is None:
                engine = Disambiguator(self.compiled, e=e)
                self._engines[e] = engine
                if len(self._engines) > ENGINE_MEMO_SIZE:
                    self._engines.popitem(last=False)
            self._engines.move_to_end(e)
            return engine

    def describe(self) -> dict:
        """The ``/v1/schemas`` entry for this tenant.

        Reads ``self.compiled`` exactly once: a concurrent hot-swap
        (``evolve`` replacing the artifact) must never produce a *torn*
        description mixing one artifact's fingerprint with another's
        lineage depth — health snapshots race schema evolution by
        design.
        """
        compiled = self.compiled
        return {
            "tenant": self.name,
            "schema": compiled.schema.name,
            "fingerprint": compiled.fingerprint[:12],
            "classes": len(compiled.schema.class_names),
            "lineage_depth": len(compiled.lineage),
            "has_database": self.database is not None,
            "completion_cache": compiled.cache.info(),
        }

    def estimated_cache_bytes(self) -> int:
        """This tenant's completion-cache byte estimate (ops endpoint)."""
        return self.compiled.cache.estimated_bytes()


class TenantRegistry:
    """Resident tenants plus the cross-tenant cache memory governor."""

    #: Entries evicted per governor step; small enough to stop right at
    #: the bound, large enough to amortize the per-call locking.
    EVICTION_BATCH = 8

    def __init__(self, max_cache_bytes: int) -> None:
        if max_cache_bytes < 1:
            raise ValueError(
                f"max_cache_bytes must be >= 1, got {max_cache_bytes!r}"
            )
        self.max_cache_bytes = max_cache_bytes
        self._tenants: dict[str, Tenant] = {}
        self._touch_seq = 0
        self._lock = threading.Lock()

    def add(
        self,
        name: str,
        schema: Schema | CompiledSchema,
        database: Database | None = None,
    ) -> Tenant:
        """Register (or re-register) a tenant.

        Compilation goes through the memoized
        :func:`~repro.core.compiled.compile_schema` registry, so equal
        schema content shares one artifact across tenants and across
        the rest of the process.
        """
        compiled = compile_schema(schema)
        tenant = Tenant(name, compiled, database=database)
        with self._lock:
            self._touch_seq += 1
            tenant.last_touch = self._touch_seq
            self._tenants[name] = tenant
        return tenant

    def get(self, name: str) -> Tenant:
        """The tenant, touched for cross-tenant LRU; raises if unknown."""
        with self._lock:
            tenant = self._tenants.get(name)
            if tenant is None:
                raise UnknownTenantError(name, list(self._tenants))
            self._touch_seq += 1
            tenant.last_touch = self._touch_seq
            return tenant

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._tenants)

    def tenants(self) -> list[Tenant]:
        with self._lock:
            return [self._tenants[name] for name in sorted(self._tenants)]

    def __len__(self) -> int:
        return len(self._tenants)

    # -- the memory governor ------------------------------------------

    def total_cache_bytes(self) -> int:
        """Summed byte estimates of every tenant's completion cache.

        Tenants sharing one compiled artifact (equal schema content)
        share one cache; it is counted once.
        """
        seen: set[int] = set()
        total = 0
        for tenant in self.tenants():
            cache = tenant.compiled.cache
            if id(cache) in seen:
                continue
            seen.add(id(cache))
            total += cache.estimated_bytes()
        return total

    def enforce_memory_bound(self) -> tuple[int, int]:
        """Evict cross-tenant LRU entries until the fleet fits the bound.

        Returns ``(entries_evicted, bytes_freed)``.  Victim order is by
        tenant ``last_touch`` (least recently touched first); within a
        tenant, its cache's own LRU order applies.  Called after every
        cache-filling request — each call does at most the work the
        overshoot requires.
        """
        evicted = freed = 0
        while self.total_cache_bytes() > self.max_cache_bytes:
            with self._lock:
                candidates = sorted(
                    (
                        tenant
                        for tenant in self._tenants.values()
                        if len(tenant.compiled.cache) > 0
                    ),
                    key=lambda tenant: tenant.last_touch,
                )
            if not candidates:
                break  # every cache empty; the bound is simply tiny
            victim = candidates[0]
            count, size = victim.compiled.cache.evict_lru(self.EVICTION_BATCH)
            if count == 0:  # pragma: no cover - raced to empty
                break
            evicted += count
            freed += size
        if evicted:
            metrics = get_metrics()
            metrics.counter("serve.cache_evictions").inc(evicted)
            metrics.counter("serve.cache_bytes_evicted").inc(freed)
        return evicted, freed


def prewarm_tenant(
    tenant: Tenant,
    expressions: Iterable[str],
    e: int = 1,
    policy: RetryPolicy | None = None,
) -> int:
    """Warm a tenant's completion cache, retrying transient faults.

    Each expression is completed through the tenant's engine; a
    :class:`~repro.errors.InjectedFaultError` (or an ``OSError`` from a
    real flaky backend) is retried under ``policy`` with jittered
    backoff.  Non-transient :class:`~repro.errors.ReproError` failures
    (bad expression, no completion) are *not* retried — the live
    request will surface them with full context.  Returns how many
    expressions ended up warm; never raises.
    """
    policy = policy if policy is not None else RetryPolicy()
    engine = tenant.engine(e)
    warmed = 0
    metrics = get_metrics()

    def count_retry(attempt: int, error: BaseException, delay: float) -> None:
        metrics.counter("serve.prewarm_retries").inc()

    for expression in dict.fromkeys(expressions):
        try:
            policy.call(
                lambda expression=expression: engine.complete(expression),
                retry_on=(InjectedFaultError, OSError),
                on_retry=count_retry,
            )
            warmed += 1
        except (ReproError, RetryExhaustedError):
            continue
    return warmed
