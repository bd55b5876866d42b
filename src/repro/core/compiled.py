"""The compile-once / query-many layer.

The disambiguator is an optimal-path computation over a *fixed* schema
graph, yet the original seed had every :class:`Disambiguator`, Fox-query
evaluator, and experiment harness privately re-derive the same
per-schema structures (adjacency lists, partial-order closure, caution
sets) and re-run identical completions.  Following the precompiled
automaton/grammar designs of the best-path and context-free path-query
literature, this module splits the pipeline into

* **compile** — :class:`CompiledSchema`: one immutable artifact per
  ``(schema content, partial order, domain knowledge)`` holding the
  schema's content fingerprint, the frozen
  :class:`~repro.model.graph.SchemaGraph` adjacency, the shared
  :class:`~repro.algebra.caution.CautionSets`, memoized
  :class:`~repro.core.completion.CompletionSearch` instances, and a
  bounded LRU completion cache; and
* **query** — every engine, session, and experiment shares the artifact
  and consults the cache before traversing.

Cache entries are keyed by the full tuple
``(schema fingerprint, normalized expression text, order content key,
E, ablation flags, max depth, domain-knowledge key)`` so results can
never leak across schema mutations, order variants, E sweeps, ablation
settings, or knowledge declarations.

Compiles themselves are memoized: :func:`compile_schema` keeps a
module-level registry (an LRU bounded by :data:`REGISTRY_SIZE`) keyed
by the same content triple, so
``Disambiguator(schema)`` constructed twice over an unchanged schema
reuses one artifact (and therefore one warm cache).  Mutating a schema
changes its fingerprint, which both misses the registry (a fresh
compile) and invalidates every old cache entry (stale artifacts are
also evicted eagerly on lookup).  :func:`invalidate` clears the
registry explicitly.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict
from collections.abc import Iterable

from repro.algebra.caution import CautionSets
from repro.algebra.order import DEFAULT_ORDER, PartialOrder
from repro.core.audit import get_audit
from repro.core.closure import SchemaClosure, resolve_pruning
from repro.core.completion import CompletionResult, CompletionSearch
from repro.core.domain import DomainKnowledge
from repro.core.target import RelationshipTarget
from repro.errors import EvaluationError
from repro.model.graph import SchemaGraph
from repro.model.schema import Schema
from repro.obs.metrics import get_metrics
from repro.obs.tracer import get_tracer
from repro.resilience.budget import Budget, BudgetMeter

__all__ = [
    "CompiledSchema",
    "CompletionCache",
    "REGISTRY_SIZE",
    "compile_schema",
    "domain_knowledge_key",
    "estimate_result_bytes",
    "invalidate",
    "registry_size",
]

#: Default bound on the number of cached completion results per artifact.
DEFAULT_CACHE_SIZE = 1024

#: Bound on the memoized searchers per artifact, one per (E, flags,
#: pruning) setting.  E comes from clients, so an unbounded memo would
#: let them grow server memory one ~8 KB searcher per distinct E; past
#: the bound the least recently used searcher is dropped (rebuilding
#: one costs ~60 us, and engines keep the searcher they were built with).
SEARCHER_MEMO_SIZE = 16

#: Bound on the artifacts the compile registry keeps, least recently
#: compiled or looked up dropped first.  Every ``evolve`` registers a new
#: artifact, so a long-lived editing process would otherwise keep each
#: superseded artifact (its cache, searchers and closure) forever.  An
#: engine or tenant holding an artifact keeps it alive regardless.
REGISTRY_SIZE = 32


def estimate_result_bytes(value: CompletionResult) -> int:
    """A deterministic, cheap estimate of one cached result's footprint.

    Used by the serving tier's cross-tenant memory governor
    (:mod:`repro.serve.tenants`), which needs a *stable* accounting
    unit rather than a byte-exact one: the estimate covers the rendered
    path texts (the dominant variable part), a fixed per-path and
    per-label object overhead, and a fixed per-entry overhead for the
    key tuple, dict slot, and result shell.  Computed once per ``put``
    (puts are cold-path), never on lookups.  Rendering a path here
    memoizes its text on the path
    (:meth:`~repro.core.ast.ConcretePath.__str__`), so the warm hits
    that later serve the same result objects reuse it; the ``2 * len``
    charge covers that cached string.

    Duck-typed on purpose: tests (and fault wrappers) park sentinel
    values in the cache, which are charged the fixed shell only.
    """
    size = 512  # key tuple + OrderedDict slot + CompletionResult shell
    for path in getattr(value, "paths", ()):
        size += 96 + 2 * len(str(path))
    size += 64 * len(getattr(value, "labels", ()))
    size += 48 * len(getattr(value, "support", ()))
    return size

def domain_knowledge_key(knowledge: DomainKnowledge) -> str:
    """A stable digest of a domain-knowledge declaration's content."""
    hasher = hashlib.sha256()
    for name in sorted(knowledge.excluded_classes):
        hasher.update(f"XC|{name}\n".encode())
    for source, rel_name in sorted(knowledge.excluded_relationships):
        hasher.update(f"XR|{source}|{rel_name}\n".encode())
    for name, penalty in sorted(knowledge.class_penalties):
        hasher.update(f"P|{name}|{penalty}\n".encode())
    return hasher.hexdigest()


class CompletionCache:
    """A bounded, thread-safe LRU cache of completion results.

    Values are the frozen :class:`CompletionResult` objects themselves —
    a warm lookup hands back the very object the cold run produced,
    which is what guarantees byte-identical ranked paths.  ``hits`` and
    ``misses`` are cumulative counters the batch entry points snapshot
    to report warm-vs-cold behavior.
    """

    def __init__(self, maxsize: int = DEFAULT_CACHE_SIZE) -> None:
        if maxsize < 1:
            raise ValueError(f"cache maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._data: OrderedDict[tuple, CompletionResult] = OrderedDict()
        # Keys whose entries were carried across a schema delta by
        # :meth:`adopt` rather than computed by a search on this
        # artifact — the audit log's lineage provenance.  Kept in
        # lockstep with ``_data`` under the same lock.
        self._carried: set[tuple] = set()
        # Memory accounting: per-entry byte estimates and their running
        # total (see :func:`estimate_result_bytes`), maintained in
        # lockstep with ``_data`` so the serving tier's cross-tenant
        # governor reads one integer instead of walking the cache.
        self._entry_bytes: dict[tuple, int] = {}
        self._bytes = 0
        self._lock = threading.Lock()

    def get(self, key: tuple) -> CompletionResult | None:
        with self._lock:
            try:
                value = self._data[key]
            except KeyError:
                self.misses += 1
                return None
            self._data.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: tuple, value: CompletionResult) -> None:
        # The resilience hard invariant: anytime partial results (budget
        # truncations, degraded-E answers) must never be served warm —
        # a later un-governed query would silently inherit the
        # truncation.  Callers check ``exhausted`` first; this raise is
        # the backstop the chaos suite leans on.
        if not getattr(value, "exhausted", True):
            raise ValueError(
                "refusing to cache a partial completion result "
                f"(truncation_reason={value.truncation_reason!r})"
            )
        size = estimate_result_bytes(value)
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            self._carried.discard(key)  # freshly computed on this artifact
            self._bytes += size - self._entry_bytes.get(key, 0)
            self._entry_bytes[key] = size
            while len(self._data) > self.maxsize:
                self._drop_oldest_locked()

    def _drop_oldest_locked(self) -> tuple:
        """Evict the LRU entry (caller holds the lock)."""
        evicted_key, _ = self._data.popitem(last=False)
        self._carried.discard(evicted_key)
        self._bytes -= self._entry_bytes.pop(evicted_key, 0)
        return evicted_key

    def evict_lru(self, count: int = 1) -> tuple[int, int]:
        """Evict up to ``count`` least-recently-used entries.

        Returns ``(entries_evicted, bytes_freed)``.  This is the
        serving tier's memory-pressure valve: the cross-tenant governor
        calls it on whichever tenant cache is globally least recently
        touched until the fleet fits the configured bound again.
        """
        evicted = 0
        freed = 0
        with self._lock:
            while evicted < count and self._data:
                before = self._bytes
                self._drop_oldest_locked()
                freed += before - self._bytes
                evicted += 1
        return evicted, freed

    def estimated_bytes(self) -> int:
        """The running total of the per-entry byte estimates."""
        with self._lock:
            return self._bytes

    def clear(self) -> None:
        with self._lock:
            self._data.clear()
            self._carried.clear()
            self._entry_bytes.clear()
            self._bytes = 0

    def provenance(self, key: tuple) -> str:
        """How this artifact's cache came to hold ``key``.

        ``"carried"`` when the entry survived a schema delta through
        :meth:`adopt`'s support-set check; ``"computed"`` when a search
        on this artifact produced it.  Only meaningful for keys
        currently cached (the audit log asks right after a hit).
        """
        return "carried" if key in self._carried else "computed"

    def adopt(
        self,
        other: "CompletionCache",
        old_fingerprint: str,
        new_fingerprint: str,
        frontier: frozenset[str],
    ) -> tuple[int, int]:
        """Carry ``other``'s entries across a schema delta, surgically.

        An entry survives iff its result's recorded support set is
        non-empty and disjoint from the delta's eviction frontier
        (:meth:`SchemaDelta.eviction_frontier
        <repro.model.delta.SchemaDelta.eviction_frontier>` — the source
        classes of its added/removed edges) — the soundness argument is
        on :attr:`CompletionResult.support
        <repro.core.completion.CompletionResult.support>`: no edge
        change outside the support can alter the result, so the carried
        object is byte-identical to what a cold search over the evolved
        schema would produce.  Surviving keys are re-stamped from the
        old fingerprint to the new one (the fingerprint is the key's
        first element by construction of
        :meth:`CompiledSchema.cache_key`).  Returns
        ``(carried, evicted)`` counts; LRU recency is preserved.
        """
        carried = evicted = 0
        with other._lock:
            entries = [
                (key, value, other._entry_bytes.get(key))
                for key, value in other._data.items()
            ]
        with self._lock:
            for key, value, size in entries:
                support = getattr(value, "support", frozenset())
                if (
                    support
                    and frontier.isdisjoint(support)
                    and key
                    and key[0] == old_fingerprint
                ):
                    new_key = (new_fingerprint,) + key[1:]
                    self._data[new_key] = value
                    self._carried.add(new_key)
                    if size is None:
                        size = estimate_result_bytes(value)
                    self._bytes += size - self._entry_bytes.get(new_key, 0)
                    self._entry_bytes[new_key] = size
                    carried += 1
                else:
                    evicted += 1
            while len(self._data) > self.maxsize:
                self._drop_oldest_locked()
        return carried, evicted

    def __len__(self) -> int:
        return len(self._data)

    def info(self) -> dict[str, int]:
        """Counter snapshot for reports."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "size": len(self._data),
            "maxsize": self.maxsize,
            "bytes": self._bytes,
        }

    def __repr__(self) -> str:
        return (
            f"CompletionCache(size={len(self._data)}/{self.maxsize}, "
            f"hits={self.hits}, misses={self.misses})"
        )


class CompiledSchema:
    """One immutable compilation artifact for a schema.

    Construct directly for an unshared artifact (benchmarks measuring
    true cold cost do this); everyday code should go through
    :func:`compile_schema`, which memoizes by content.

    Parameters
    ----------
    schema:
        The schema to compile.  The artifact snapshots its content; the
        stored :attr:`fingerprint` is the mutation detector.
    order:
        Better-than partial order; defaults to the paper's Figure 3
        reconstruction.
    domain_knowledge:
        Optional Section 5.2 knowledge; its exclusions are baked into
        the frozen traversal graph.
    cache_size:
        Bound of the completion LRU cache.
    """

    #: The search type :meth:`searcher` builds.  Fault injection
    #: (:func:`repro.resilience.faults.inject`) swaps in a subclass
    #: whose budget meter draws the injected faults.
    search_class: type[CompletionSearch] = CompletionSearch

    def __init__(
        self,
        schema: Schema,
        order: PartialOrder | None = None,
        domain_knowledge: DomainKnowledge | None = None,
        cache_size: int = DEFAULT_CACHE_SIZE,
    ) -> None:
        started = time.perf_counter()
        with get_tracer().span("compile", schema=schema.name) as span:
            self.schema = schema
            self.order = order if order is not None else DEFAULT_ORDER
            self.domain_knowledge = (
                domain_knowledge
                if domain_knowledge is not None
                else DomainKnowledge.none()
            )
            problems = self.domain_knowledge.validate_against(schema)
            if problems:
                raise EvaluationError(
                    "domain knowledge does not match schema: "
                    + "; ".join(problems)
                )
            self.fingerprint = schema.fingerprint()
            self.order_key = self.order.content_key()
            self.knowledge_key = domain_knowledge_key(self.domain_knowledge)
            self.graph = self.domain_knowledge.restrict(SchemaGraph(schema))
            self.caution_sets = CautionSets.for_order(self.order)
            # The Carré label closure (all-pairs reachability + label
            # lower bounds) shared by every search over this artifact.
            # Construction is cheap: the reachability matrix and the
            # per-target tables are built lazily on first use, so
            # compile_seconds stays dominated by the caution-set
            # brute force.
            self.closure = SchemaClosure.for_graph(self.graph)
            self.cache = CompletionCache(cache_size)
            self._searches: OrderedDict[tuple, CompletionSearch] = OrderedDict()
            self._lock = threading.Lock()
            #: Fingerprints of the ancestor artifacts this one was
            #: evolved from, oldest first; empty for cold compiles.
            self.lineage: tuple[str, ...] = ()
            # Whether the schema is known to be Isa-acyclic: a cold
            # compile never checks, an evolve proves it (see evolve).
            self._isa_acyclic = False
            self.compile_seconds = time.perf_counter() - started
            span.set(
                fingerprint=self.fingerprint[:16],
                order=self.order.name,
                seconds=self.compile_seconds,
            )
        get_metrics().record_compile(self.compile_seconds)

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------

    @property
    def key(self) -> tuple[str, str, str]:
        """The registry identity: (fingerprint, order key, knowledge key)."""
        return (self.fingerprint, self.order_key, self.knowledge_key)

    def is_stale(self) -> bool:
        """True when the underlying schema mutated after compilation."""
        return self.schema.fingerprint() != self.fingerprint

    # ------------------------------------------------------------------
    # Schema deltas
    # ------------------------------------------------------------------

    def evolve(
        self,
        delta,
        cache_size: int | None = None,
    ) -> "CompiledSchema":
        """A new artifact for this schema edited by ``delta``.

        The delta (a :class:`~repro.model.delta.SchemaDelta`) is applied
        to a *copy* of the schema — this artifact stays immutable and
        registered — and the copy is checked for Isa cycles before any
        compiled state is touched.  The check is scoped to the delta:
        only an added Isa edge can close a cycle, so once this
        artifact's schema is known acyclic only the delta's Isa edges
        are checked.  A cold compile never checked acyclicity, so the
        first evolve from one runs the full check once and the evolved
        artifacts carry the proof along their lineage.

        The compiled pieces are patched along the delta instead of
        rebuilt: the fingerprint is re-hashed from the copy's patched
        records, the frozen adjacency is patched structurally
        (untouched rows shared), the order closure and caution sets are
        reused outright (they depend only on the partial order), the
        label closure is maintained per edge (:meth:`SchemaClosure.evolved
        <repro.core.closure.SchemaClosure.evolved>`, whose table repairs
        wait for the first search that reads them), and the completion
        cache carries every entry whose support set the delta provably
        cannot affect.  Completions are byte-identical to a cold compile
        of the edited schema.

        The evolved artifact registers under its new fingerprint with
        this artifact's fingerprint appended to its :attr:`lineage`, so
        repeated edits form a traceable chain; an edit back to content
        that is still registered returns that artifact.  A stale
        artifact (its schema mutated in place after compiling) has
        nothing to patch from, so its edited copy is compiled cold.
        """
        size = cache_size if cache_size is not None else self.cache.maxsize
        with get_tracer().span("delta_apply", schema=self.schema.name) as span:
            stale = self.is_stale()
            new_schema = self.schema.copy()
            new_schema.apply(delta)
            if self._isa_acyclic and not stale:
                new_schema.check_isa_additions(delta.added_isa_edges())
            else:
                new_schema.validate()
            touched = delta.touched_classes()
            key = (new_schema.fingerprint(), self.order_key, self.knowledge_key)
            with _REGISTRY_LOCK:
                evolved = _registry_get(key)
            if evolved is None:
                if stale:
                    # The schema changed under this artifact, so its
                    # graph, closure and cache describe content the
                    # copy no longer has: nothing of them can be kept.
                    evolved = CompiledSchema(
                        new_schema, self.order, self.domain_knowledge, size
                    )
                else:
                    evolved = self._evolve_incremental(
                        new_schema, touched, delta.eviction_frontier(), size
                    )
                evolved.lineage = self.lineage + (self.fingerprint,)
            evolved._isa_acyclic = True
            span.set(
                commands=len(delta),
                touched=len(touched),
                fingerprint=evolved.fingerprint[:16],
                seconds=evolved.compile_seconds,
            )
        get_metrics().counter("delta.applied").inc()
        with _REGISTRY_LOCK:
            existing = _registry_get(evolved.key)
            if existing is not None:
                return existing
            _registry_put(evolved)
        return evolved

    def _evolve_incremental(
        self,
        new_schema: Schema,
        touched: frozenset[str],
        frontier: frozenset[str],
        cache_size: int,
    ) -> "CompiledSchema":
        """The patching path of :meth:`evolve` (see its contract)."""
        started = time.perf_counter()
        evolved = CompiledSchema.__new__(CompiledSchema)
        evolved.schema = new_schema
        evolved.order = self.order
        evolved.domain_knowledge = self.domain_knowledge
        evolved.fingerprint = new_schema.fingerprint()
        evolved.order_key = self.order_key
        evolved.knowledge_key = self.knowledge_key
        evolved.graph = self.graph.evolved(new_schema, touched)
        evolved.caution_sets = self.caution_sets
        evolved.closure = self.closure.evolved(evolved.graph)
        evolved.cache = CompletionCache(cache_size)
        carried, evicted = evolved.cache.adopt(
            self.cache, self.fingerprint, evolved.fingerprint, frontier
        )
        if evicted:
            get_metrics().counter("cache.selective_evictions").inc(evicted)
        evolved._searches = OrderedDict()
        evolved._lock = threading.Lock()
        evolved.lineage = ()
        evolved.compile_seconds = time.perf_counter() - started
        return evolved

    # ------------------------------------------------------------------
    # Shared search instances and the completion cache
    # ------------------------------------------------------------------

    def searcher(
        self,
        e: int = 1,
        use_caution_sets: bool = True,
        apply_inheritance_criterion: bool = True,
        max_depth: int | None = None,
        pruning: str | None = None,
    ) -> CompletionSearch:
        """The shared Algorithm 2 instance for one (E, flags) setting."""
        pruning = resolve_pruning(pruning)
        key = (
            e,
            use_caution_sets,
            apply_inheritance_criterion,
            max_depth,
            pruning,
        )
        with self._lock:
            search = self._searches.get(key)
            if search is not None:
                self._searches.move_to_end(key)
            else:
                search = self.search_class(
                    self.graph,
                    order=self.order,
                    e=e,
                    use_caution_sets=use_caution_sets,
                    apply_inheritance_criterion=apply_inheritance_criterion,
                    max_depth=max_depth,
                    caution_sets=self.caution_sets,
                    pruning=pruning,
                    closure=self.closure,
                )
                self._searches[key] = search
                if len(self._searches) > SEARCHER_MEMO_SIZE:
                    self._searches.popitem(last=False)
            return search

    def cache_key(
        self,
        text: str,
        e: int,
        use_caution_sets: bool,
        apply_inheritance_criterion: bool,
        max_depth: int | None,
        pruning: str | None = None,
    ) -> tuple:
        """The full cache key for one normalized expression text.

        ``text`` must be the *normalized* rendering (``str()`` of the
        parsed expression, or the ``"class:"``-prefixed form for
        class-target completions) so spelling variants of one
        expression share an entry.

        The pruning mode is part of the key even though it is
        answer-preserving: A/B comparisons (equivalence tests,
        benchmarks) must never have one mode served warm from the
        other's cold run.
        """
        return (
            self.fingerprint,
            text,
            self.order_key,
            e,
            use_caution_sets,
            apply_inheritance_criterion,
            max_depth,
            self.knowledge_key,
            resolve_pruning(pruning),
        )

    def complete_simple(
        self,
        root: str,
        relationship_name: str,
        e: int = 1,
        use_caution_sets: bool = True,
        apply_inheritance_criterion: bool = True,
        max_depth: int | None = None,
        budget: "Budget | None" = None,
        meter: "BudgetMeter | None" = None,
        pruning: str | None = None,
    ) -> CompletionResult:
        """Cached single-gap completion ``root ~ relationship_name``.

        This is both the engine's fast path for the paper's focus form
        and the sub-completion entry :mod:`repro.core.multi` uses for
        each ``~`` segment of a general expression — so tilde segments
        shared across different queries hit the same cache entries.

        ``budget``/``meter`` govern a cache *miss* exactly as in
        :meth:`~repro.core.completion.CompletionSearch.run`; only
        exhausted results enter the cache, so a budget can shrink what
        gets cached but never poison it.  A warm hit is returned as-is
        (cached results are exhaustive by invariant).
        """
        text = f"{root}~{relationship_name}"
        key = self.cache_key(
            text,
            e,
            use_caution_sets,
            apply_inheritance_criterion,
            max_depth,
            pruning,
        )
        with get_tracer().span("cache_lookup", expression=text) as lookup:
            cached = self.cache.get(key)
            lookup.set(hit=cached is not None)
        audit = get_audit()
        if audit.enabled:
            audit.record(
                "cache",
                scope="simple",
                query=text,
                outcome="hit" if cached is not None else "miss",
                fingerprint=self.fingerprint[:12],
                lineage_depth=len(self.lineage),
                provenance=(
                    self.cache.provenance(key) if cached is not None else None
                ),
            )
        if cached is not None:
            get_metrics().record_cache(hit=True)
            return cached
        result = self.searcher(
            e=e,
            use_caution_sets=use_caution_sets,
            apply_inheritance_criterion=apply_inheritance_criterion,
            max_depth=max_depth,
            pruning=pruning,
        ).run(root, RelationshipTarget(relationship_name), budget=budget, meter=meter)
        if result.exhausted:
            self.cache.put(key, result)
        get_metrics().record_cache(hit=False)
        return result

    def cache_info(self) -> dict[str, float]:
        """Cache counters plus the one-off compile cost."""
        return self.cache.info() | {"compile_seconds": self.compile_seconds}

    def __repr__(self) -> str:
        return (
            f"CompiledSchema(schema={self.schema.name!r}, "
            f"fingerprint={self.fingerprint[:12]}..., "
            f"order={self.order.name!r}, cache={self.cache!r})"
        )


# ----------------------------------------------------------------------
# The module-level compile registry
# ----------------------------------------------------------------------

#: Least recently used first; bounded by :data:`REGISTRY_SIZE`.
_REGISTRY: OrderedDict[tuple[str, str, str], CompiledSchema] = OrderedDict()
#: Secondary index: fingerprint -> the registry keys carrying it.  Kept
#: in lockstep with ``_REGISTRY`` (same lock) so fingerprint-scoped
#: operations — :func:`invalidate`, eager stale eviction — are O(matches)
#: instead of a scan over every registered artifact.
_REGISTRY_BY_FP: dict[str, set[tuple[str, str, str]]] = {}
_REGISTRY_LOCK = threading.Lock()


def _registry_get(key: tuple[str, str, str]) -> CompiledSchema | None:
    """The live artifact under ``key``, marked recently used, or None
    (under ``_REGISTRY_LOCK``, held by the caller).

    A registered artifact whose schema mutated after compilation can
    never be served again, so it is evicted here rather than left to
    accumulate until the next full :func:`invalidate`.
    """
    compiled = _REGISTRY.get(key)
    if compiled is None:
        return None
    if compiled.is_stale():
        _registry_discard(key)
        return None
    _REGISTRY.move_to_end(key)
    return compiled


def _registry_put(compiled: CompiledSchema) -> None:
    """Insert under ``_REGISTRY_LOCK`` (held by the caller), dropping the
    least recently used artifacts beyond :data:`REGISTRY_SIZE`."""
    _REGISTRY[compiled.key] = compiled
    _REGISTRY.move_to_end(compiled.key)
    _REGISTRY_BY_FP.setdefault(compiled.fingerprint, set()).add(compiled.key)
    while len(_REGISTRY) > REGISTRY_SIZE:
        _registry_discard(next(iter(_REGISTRY)))


def _registry_discard(key: tuple[str, str, str]) -> None:
    """Remove under ``_REGISTRY_LOCK`` (held by the caller)."""
    _REGISTRY.pop(key, None)
    keys = _REGISTRY_BY_FP.get(key[0])
    if keys is not None:
        keys.discard(key)
        if not keys:
            del _REGISTRY_BY_FP[key[0]]


def compile_schema(
    schema: Schema | CompiledSchema,
    order: PartialOrder | None = None,
    domain_knowledge: DomainKnowledge | None = None,
    cache_size: int = DEFAULT_CACHE_SIZE,
) -> CompiledSchema:
    """Compile a schema, reusing a content-equal artifact if one exists.

    Passing an existing :class:`CompiledSchema` returns it unchanged
    (so call sites can accept either form).  The registry key is the
    content triple, so two different-but-equal schema objects share one
    artifact and therefore one warm cache; a registered artifact whose
    schema has since mutated is evicted and recompiled from the schema
    handed in.
    """
    if isinstance(schema, CompiledSchema):
        return schema
    order = order if order is not None else DEFAULT_ORDER
    knowledge = (
        domain_knowledge
        if domain_knowledge is not None
        else DomainKnowledge.none()
    )
    key = (
        schema.fingerprint(),
        order.content_key(),
        domain_knowledge_key(knowledge),
    )
    with _REGISTRY_LOCK:
        compiled = _registry_get(key)
    if compiled is not None:
        return compiled
    # Compile outside the lock (brute-forcing caution sets and freezing
    # adjacency can take a while on large schemas); last writer wins.
    compiled = CompiledSchema(
        schema,
        order=order,
        domain_knowledge=knowledge,
        cache_size=cache_size,
    )
    with _REGISTRY_LOCK:
        existing = _registry_get(key)
        if existing is not None:
            return existing  # a concurrent compile won the race
        _registry_put(compiled)
        return compiled


def invalidate(schema: Schema | None = None) -> int:
    """Drop registry entries; returns how many were removed.

    With a schema, only artifacts compiled from content equal to its
    *current* content are dropped; without one, the whole registry is
    cleared.
    """
    with _REGISTRY_LOCK:
        if schema is None:
            removed = len(_REGISTRY)
            _REGISTRY.clear()
            _REGISTRY_BY_FP.clear()
            return removed
        fingerprint = schema.fingerprint()
        stale = list(_REGISTRY_BY_FP.get(fingerprint, ()))
        for key in stale:
            _registry_discard(key)
        return len(stale)


def registry_size() -> int:
    """Number of live registry entries (for tests and diagnostics)."""
    return len(_REGISTRY)


def registered_artifacts() -> Iterable[CompiledSchema]:
    """Snapshot of the registered artifacts (for diagnostics)."""
    with _REGISTRY_LOCK:
        return list(_REGISTRY.values())
