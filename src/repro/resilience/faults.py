"""Deterministic, seeded fault injection for chaos testing.

The resilience contract — budgets trip cleanly, truncated results never
reach the completion cache, sessions and experiment runners survive
mid-traversal failures — is only trustworthy if it is *exercised*.
This module makes the completion pipeline's dependencies misbehave on
a deterministic schedule:

* :class:`FaultyMeter` — wraps the budget meter the search loop
  (:func:`repro.core.kernel.run_flat`) checks on every node expansion;
  each expansion can raise :class:`~repro.errors.InjectedFaultError`
  (a failed adjacency read) and/or add latency by advancing a
  :class:`FakeClock` (so deadline trips are reproducible without real
  sleeping);
* :class:`FaultyGraph` — proxies a
  :class:`~repro.model.graph.SchemaGraph` with the same schedule on
  ``edges_from``, for the adjacency reads made outside the search loop
  (validating a complete expression, the explicit steps of a general
  one);
* :class:`FaultyCache` — proxies a
  :class:`~repro.core.compiled.CompletionCache`; lookups can be forced
  to miss and stores can be silently dropped (a cache is a *cache* —
  the pipeline must stay correct when it degrades to a no-op);
* :class:`FakeClock` — a callable virtual monotonic clock, pluggable as
  ``Budget.clock``.

Everything is driven by a :class:`FaultPlan` holding one
``random.Random(seed)`` stream, so a failing chaos test reproduces from
its seed alone.  :func:`inject` rewires an existing
:class:`~repro.core.compiled.CompiledSchema` in place (graph, cache,
search type and memoized searchers) and returns a restore handle.  A
search's faults fire inside the search loop itself; a search with no
faults injected runs exactly the code it always runs.
"""

from __future__ import annotations

import dataclasses
import random
from typing import TYPE_CHECKING

from repro.errors import InjectedFaultError
from repro.resilience.budget import get_budget

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.core.compiled import CompiledSchema
    from repro.model.graph import SchemaEdge, SchemaGraph
    from repro.resilience.budget import BudgetMeter

__all__ = [
    "FakeClock",
    "FaultPlan",
    "FaultyCache",
    "FaultyGraph",
    "FaultyMeter",
    "inject",
]


class FakeClock:
    """A virtual monotonic clock.

    Calling the instance returns the current virtual time, so it plugs
    directly into ``Budget(clock=...)``; :meth:`advance` moves time
    forward (time never goes backward, matching a monotonic clock).
    """

    __slots__ = ("now",)

    def __init__(self, start: float = 0.0) -> None:
        self.now = float(start)

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> float:
        if seconds < 0:
            raise ValueError(f"cannot move a monotonic clock back {seconds!r}")
        self.now += seconds
        return self.now

    def __repr__(self) -> str:
        return f"FakeClock(now={self.now:g})"


@dataclasses.dataclass
class FaultPlan:
    """A seeded schedule of injected failures and latency.

    Rates are per-call probabilities drawn from one ``Random(seed)``
    stream; a plan with the same seed and the same call sequence
    injects identically.  ``edge_fail_rate`` and ``edge_latency`` apply
    to each adjacency read — every node expansion of a search, and
    every ``edges_from`` call outside one — the cache rates and
    ``cache_latency`` to each cache call.  ``clock`` (when
    set) is advanced by the latency of each wrapped call, simulating
    slow storage against a virtual deadline.

    ``armed_after`` delays injection by that many wrapped calls — used
    to let a traversal get provably *mid-way* before the first fault.
    """

    seed: int = 0
    edge_fail_rate: float = 0.0
    edge_latency: float = 0.0
    cache_miss_rate: float = 0.0
    cache_drop_rate: float = 0.0
    cache_latency: float = 0.0
    clock: FakeClock | None = None
    armed_after: int = 0

    def __post_init__(self) -> None:
        for name in ("edge_fail_rate", "cache_miss_rate", "cache_drop_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate!r}")
        if self.edge_latency < 0 or self.cache_latency < 0:
            raise ValueError("latencies must be >= 0")
        self._random = random.Random(self.seed)
        self._calls = 0
        self.injected: list[str] = []

    # -- the injection stream ------------------------------------------

    def _tick(self, latency: float) -> bool:
        """Advance latency/armed counters; True when injection is live."""
        self._calls += 1
        if self.clock is not None and latency:
            self.clock.advance(latency)
        return self._calls > self.armed_after

    def should_fail_edge(self) -> bool:
        live = self._tick(self.edge_latency)
        if live and self.edge_fail_rate and (
            self._random.random() < self.edge_fail_rate
        ):
            self.injected.append("graph.edges_from")
            return True
        return False

    def should_miss_cache(self) -> bool:
        live = self._tick(self.cache_latency)
        if live and self.cache_miss_rate and (
            self._random.random() < self.cache_miss_rate
        ):
            self.injected.append("cache.get")
            return True
        return False

    def should_drop_put(self) -> bool:
        live = self._tick(self.cache_latency)
        if live and self.cache_drop_rate and (
            self._random.random() < self.cache_drop_rate
        ):
            self.injected.append("cache.put")
            return True
        return False

    @property
    def injection_count(self) -> int:
        return len(self.injected)


class FaultyMeter:
    """A budget meter that draws a :class:`FaultPlan`'s expansion
    faults before the wrapped meter's own check.

    The search loop calls :meth:`tripped` once per node expansion, so
    every expansion ticks the plan: it may raise
    :class:`~repro.errors.InjectedFaultError` (a failed adjacency read)
    and advances the plan's clock by ``edge_latency``.  ``meter`` is
    the search's real meter, or ``None`` for an ungoverned search;
    every other attribute delegates to it.
    """

    __slots__ = ("_plan", "_meter")

    def __init__(self, plan: FaultPlan, meter: "BudgetMeter | None") -> None:
        self._plan = plan
        self._meter = meter

    def tripped(self, nodes: int, paths: int, depth: int) -> str | None:
        if self._plan.should_fail_edge():
            raise InjectedFaultError(
                "graph.edges_from", f"adjacency read of expansion {nodes}"
            )
        meter = self._meter
        return None if meter is None else meter.tripped(nodes, paths, depth)

    def __getattr__(self, name: str):
        return getattr(self._meter, name)

    def __repr__(self) -> str:
        return f"FaultyMeter({self._meter!r}, injected={self._plan.injection_count})"


class FaultyGraph:
    """A :class:`~repro.model.graph.SchemaGraph` proxy with scheduled
    ``edges_from`` failures and latency.

    Only the adjacency read is intercepted; every other attribute
    (``schema``, ``nodes``, ``fingerprint``, ...) delegates to the
    wrapped graph.  Searches do not read it — they walk the closure's
    tables and draw their faults through :class:`FaultyMeter` — so it
    covers the adjacency reads made outside the search loop.
    """

    def __init__(self, graph: "SchemaGraph", plan: FaultPlan) -> None:
        self._graph = graph
        self._plan = plan

    def edges_from(self, node: str) -> "list[SchemaEdge]":
        if self._plan.should_fail_edge():
            raise InjectedFaultError(
                "graph.edges_from", f"adjacency read for {node!r}"
            )
        return self._graph.edges_from(node)

    def __getattr__(self, name: str):
        return getattr(self._graph, name)

    def __repr__(self) -> str:
        return f"FaultyGraph({self._graph!r}, injected={self._plan.injection_count})"


class FaultyCache:
    """A :class:`~repro.core.compiled.CompletionCache` proxy that can
    forget: scheduled lookup misses and dropped stores.

    Deliberately *not* able to raise — the cache contract downstream is
    "may lose entries, never lies" — so chaos runs distinguish degraded
    performance (this wrapper) from hard faults (:class:`FaultyMeter`,
    :class:`FaultyGraph`).
    """

    def __init__(self, cache, plan: FaultPlan) -> None:
        self._cache = cache
        self._plan = plan

    def get(self, key: tuple):
        if self._plan.should_miss_cache():
            return None
        return self._cache.get(key)

    def put(self, key: tuple, value) -> None:
        if self._plan.should_drop_put():
            return
        self._cache.put(key, value)

    def __getattr__(self, name: str):
        return getattr(self._cache, name)

    def __len__(self) -> int:
        return len(self._cache)

    def __repr__(self) -> str:
        return f"FaultyCache({self._cache!r}, injected={self._plan.injection_count})"


class _Injection:
    """Restore handle returned by :func:`inject` (context manager)."""

    def __init__(self, compiled: "CompiledSchema", plan: FaultPlan) -> None:
        self.compiled = compiled
        self.plan = plan
        self._graph = compiled.graph
        self._cache = compiled.cache
        self._search_class = compiled.__dict__.get("search_class")

    def restore(self) -> None:
        compiled = self.compiled
        compiled.graph = self._graph
        compiled.cache = self._cache
        if self._search_class is None:
            del compiled.search_class
        else:
            compiled.search_class = self._search_class
        compiled._searches.clear()

    def __enter__(self) -> FaultPlan:
        return self.plan

    def __exit__(self, *exc_info: object) -> None:
        self.restore()


def inject(compiled: "CompiledSchema", plan: FaultPlan) -> _Injection:
    """Rewire a compiled artifact's searches, graph and cache through
    ``plan``.

    Every search the artifact hands out afterwards runs under a
    :class:`FaultyMeter`, so its faults fire inside the search loop;
    the graph becomes a :class:`FaultyGraph` for the reads outside it.
    Memoized searchers are cleared so engines built afterwards get the
    faulty ones.  Use as a context manager (or call
    ``.restore()``) to undo — shared registry artifacts must not leak
    faults into other tests::

        with inject(compiled, FaultPlan(seed=7, edge_fail_rate=0.05)):
            ...  # chaos

    The artifact is mutated in place; do not use on an artifact other
    sessions are concurrently querying.
    """
    handle = _Injection(compiled, plan)

    class FaultySearch(compiled.search_class):
        """The artifact's search type, its meter drawing ``plan``."""

        def run(self, root, target, budget=None, meter=None):
            if meter is None:
                if budget is None:
                    budget = get_budget()
                if budget is not None and not budget.is_unlimited:
                    meter = budget.start()
            return super().run(root, target, meter=FaultyMeter(plan, meter))

    compiled.search_class = FaultySearch
    compiled.graph = FaultyGraph(compiled.graph, plan)
    compiled.cache = FaultyCache(compiled.cache, plan)
    compiled._searches.clear()
    return handle
