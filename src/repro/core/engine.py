"""The :class:`Disambiguator` facade — the path-expression completion
module of the paper's Figure 1.

Bundles a compiled schema artifact, the path algebra configuration
(partial order, E, caution sets, inheritance criterion), and optional
domain knowledge into one object with a single entry point,
:meth:`Disambiguator.complete`:

* complete input expressions are validated and passed through;
* simple incomplete expressions (``s ~ N``) run Algorithm 2 directly;
* general incomplete expressions (multiple ``~``, mixed connectors)
  are delegated to :mod:`repro.core.multi`.

Since the compile-once/query-many refactor the engine holds no private
per-schema state: ``Disambiguator(schema)`` compiles through the
memoized :func:`repro.core.compiled.compile_schema` registry, and
``Disambiguator(compiled_schema)`` shares an explicit artifact.  Every
successful completion is stored in the artifact's bounded LRU cache, so
any engine, session, Fox query, or experiment sharing the artifact
reuses it; :meth:`Disambiguator.complete_batch` runs a workload through
the cache and reports hit/miss counters.

A completion is three steps: :meth:`Disambiguator.lookup` (parse and one
counted cache read), the search, and :meth:`Disambiguator.finish`
(cache, account).  ``complete`` runs them inline; a server answers a hit
from ``lookup`` alone and hands only a miss's search to a worker, as
``complete(pending)``.
"""

from __future__ import annotations

import dataclasses

from repro.algebra.order import PartialOrder
from repro.core.ast import ConcretePath, PathExpression
from repro.core.audit import get_audit
from repro.core.closure import resolve_pruning
from repro.core.compiled import CompiledSchema, compile_schema
from repro.core.completion import CompletionResult
from repro.core.domain import DomainKnowledge
from repro.core.multi import complete_general
from repro.core.parser import parse_path_expression
from repro.core.stats import TraversalStats
from repro.core.target import ClassTarget, RelationshipTarget, Target
from repro.errors import BudgetExceededError, NoCompletionError
from repro.model.schema import Schema
from repro.obs.metrics import get_metrics
from repro.obs.slowlog import get_slowlog, observing
from repro.obs.tracer import _NULL_SPAN, get_tracer
from repro.resilience.budget import Budget, BudgetMeter, TruncationReason, get_budget
from typing import TYPE_CHECKING
from collections.abc import Iterable

if TYPE_CHECKING:  # pragma: no cover - circular at runtime
    from repro.core.explain import Explanation

__all__ = ["BatchCompletionResult", "Disambiguator", "PendingCompletion"]


@dataclasses.dataclass(frozen=True)
class BatchCompletionResult:
    """Results of one :meth:`Disambiguator.complete_batch` call.

    ``stats`` aggregates the per-result traversal counters (cached
    results contribute the counters recorded by the run that produced
    them — the hardware-independent cost is reported identically warm
    and cold) plus the batch's own ``cache_hits`` / ``cache_misses``
    and the artifact's one-off ``compile_seconds``.
    """

    results: tuple[CompletionResult, ...]
    stats: TraversalStats

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    @property
    def expressions(self) -> list[list[str]]:
        """Per-input completions rendered as expression strings."""
        return [result.expressions for result in self.results]


class PendingCompletion:
    """A cache miss between :meth:`Disambiguator.lookup` and its finish.

    Holds what the search needs (the parsed ``expression``) and what
    :meth:`Disambiguator.finish` needs (the cache ``key`` and the
    ``complete`` span, still open).  Passing it to
    :meth:`Disambiguator.complete` runs the search, on whatever thread
    makes the call, under the ambient budget.  Used as a context
    manager, it closes the span on exit, so the span ends on the
    thread that opened it, whether the search answered or raised.
    """

    __slots__ = ("expression", "key", "span")

    def __init__(self, expression: PathExpression, key: tuple, span) -> None:
        self.expression = expression
        self.key = key
        self.span = span

    def __enter__(self) -> "PendingCompletion":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.span.__exit__(*exc_info)


class Disambiguator:
    """Completes incomplete path expressions over one schema.

    Parameters
    ----------
    schema:
        The schema to disambiguate against — either a plain
        :class:`~repro.model.schema.Schema` (compiled internally through
        the memoized registry) or a prebuilt
        :class:`~repro.core.compiled.CompiledSchema` to share.
    order:
        Better-than partial order; defaults to the paper's Figure 3
        reconstruction.  Must not be combined with a prebuilt artifact
        (the artifact already fixes the order).
    e:
        AGG* relaxation parameter (Section 4.4); E=1 reproduces plain
        AGG.
    domain_knowledge:
        Optional :class:`~repro.core.domain.DomainKnowledge`
        (Section 5.2).  Like ``order``, baked into the artifact.
    use_caution_sets, apply_inheritance_criterion:
        Ablation switches; both on by default as in the paper.  These
        are per-engine (part of every cache key), so engines with
        different ablation settings can share one artifact safely.
    budget:
        Optional default :class:`~repro.resilience.budget.Budget`
        governing every completion this engine runs (per-call
        ``complete(..., budget=...)`` overrides it; with neither, the
        ambient :func:`~repro.resilience.budget.get_budget` applies).
        Governed cache misses run the degradation ladder: a tripped
        E=k search is retried at k-1, ..., 1 (each rung re-armed, with
        ``budget.degrades`` counted), and only if E=1 still trips does
        the policy decide between raising
        :class:`~repro.errors.BudgetExceededError` and returning the
        flagged partial.  Non-exhausted results are never cached.
    pruning:
        Search-pruning mode for every completion this engine runs:
        ``"closure"`` (the default) enables the compile-time closure
        cut rules (reachability and label-bound pruning, see
        :mod:`repro.core.closure`); ``"none"`` runs the same search
        loop with those cuts off (the paper's Algorithm 2).  Both modes
        return byte-identical ranked paths; the mode is part of every
        cache key.  ``None`` means the default.

    Examples
    --------
    >>> from repro.schemas.university import build_university_schema
    >>> engine = Disambiguator(build_university_schema())
    >>> result = engine.complete("ta ~ name")
    >>> len(result.paths)
    2
    """

    def __init__(
        self,
        schema: Schema | CompiledSchema,
        order: PartialOrder | None = None,
        e: int = 1,
        domain_knowledge: DomainKnowledge | None = None,
        use_caution_sets: bool = True,
        apply_inheritance_criterion: bool = True,
        max_depth: int | None = None,
        budget: Budget | None = None,
        pruning: str | None = None,
    ) -> None:
        if isinstance(schema, CompiledSchema):
            if order is not None and order is not schema.order:
                raise ValueError(
                    "order is fixed by the compiled schema; compile a new "
                    "artifact instead of overriding it"
                )
            if (
                domain_knowledge is not None
                and domain_knowledge != schema.domain_knowledge
            ):
                raise ValueError(
                    "domain knowledge is fixed by the compiled schema; "
                    "compile a new artifact instead of overriding it"
                )
            self.compiled = schema
        else:
            self.compiled = compile_schema(
                schema, order=order, domain_knowledge=domain_knowledge
            )
        self.schema = self.compiled.schema
        self.order = self.compiled.order
        self.domain_knowledge = self.compiled.domain_knowledge
        self.graph = self.compiled.graph
        self.e = e
        self.use_caution_sets = use_caution_sets
        self.apply_inheritance_criterion = apply_inheritance_criterion
        self.max_depth = max_depth
        self.budget = budget
        self.pruning = resolve_pruning(pruning)
        self._search = self.compiled.searcher(
            e=e,
            use_caution_sets=use_caution_sets,
            apply_inheritance_criterion=apply_inheritance_criterion,
            max_depth=max_depth,
            pruning=self.pruning,
        )

    # ------------------------------------------------------------------
    # Completion entry points
    # ------------------------------------------------------------------

    def complete(
        self,
        expression: str | PathExpression | PendingCompletion,
        budget: Budget | None = None,
    ) -> CompletionResult:
        """Complete an expression given as text or AST.

        Returns a :class:`~repro.core.completion.CompletionResult` whose
        ``paths`` are the optimal completions the user is asked to
        approve (paper Figure 1's loop).  For already-complete input the
        result contains exactly that path, validated against the schema.

        Successful exhaustive results are cached on the shared artifact
        keyed by the normalized expression text (plus E, ablation
        flags, order, and knowledge); failures and anytime partial or
        degraded results are never cached.

        ``budget`` overrides the engine's default budget for this call
        (see the class docstring for the governance and degradation
        semantics); warm cache hits are served regardless of budget —
        the cache only ever holds exhaustive results.

        A completion is three steps — :meth:`lookup`, the search, and
        :meth:`finish` — and this call runs all three.  Given the
        :class:`PendingCompletion` a miss's :meth:`lookup` returned, it
        runs only the search, on the calling thread, and returns the
        result for :meth:`finish`; the serving tier looks up and
        finishes on its event loop and sends only this call to a worker.
        """
        if isinstance(expression, PendingCompletion):
            with get_tracer().adopt(expression.span):
                return self._complete_governed(expression.expression, budget)
        slowlog = get_slowlog()
        if not slowlog.enabled or observing():
            # No log, or an outer entry point (a session ask, a serving
            # request) already owns this query's observation.
            return self._complete_impl(expression, budget)
        # Tail-based slow-query logging: the observation records the
        # span tree (installing a private tracer when none is ambient),
        # elapsed time, and budget outcome.
        with slowlog.observe(
            "complete", str(expression), e=self.e, pruning=self.pruning
        ) as obs:
            result = self._complete_impl(expression, budget)
            obs.record_result(result)
            return result

    def _complete_impl(
        self,
        expression: str | PathExpression,
        budget: Budget | None = None,
    ) -> CompletionResult:
        """:meth:`complete` minus the slow-log hook: the three steps inline."""
        found = self.lookup(expression)
        if not isinstance(found, PendingCompletion):
            return found
        with found:
            return self.finish(
                found, self._complete_governed(found.expression, budget)
            )

    def lookup(
        self, expression: str | PathExpression
    ) -> CompletionResult | PendingCompletion:
        """Step one of a completion: parse, then one counted cache read.

        Renders the normalized text once (the cache key, the span
        attribute and the audit ``cache`` record share it) and writes
        that audit record.  A hit is accounted and returned; a miss
        returns a :class:`PendingCompletion` whose ``complete`` span is
        still open.  Budgets are resolved only by the search, after a
        miss, so a warm hit never touches one.
        """
        tracer = get_tracer()
        if not tracer.enabled:
            # Untraced fast path.  This is the warm-cache hot loop
            # (microseconds per call), where even no-op span plumbing
            # is measurable; the traced branch below is the same logic
            # with spans.
            if isinstance(expression, str):
                expression = parse_path_expression(expression)
            text = str(expression)
            key = self._cache_key(text)
            return self._account_lookup(
                expression, text, key, self.compiled.cache.get(key), _NULL_SPAN
            )
        span = tracer.span("complete", expression=str(expression), e=self.e)
        span.__enter__()
        found = None
        try:
            if isinstance(expression, str):
                with tracer.span("parse"):
                    expression = parse_path_expression(expression)
            text = str(expression)
            span.set(expression=text)
            key = self._cache_key(text)
            with tracer.span("cache_lookup") as lookup:
                cached = self.compiled.cache.get(key)
                lookup.set(hit=cached is not None)
            found = self._account_lookup(expression, text, key, cached, span)
            return found
        finally:
            if not isinstance(found, PendingCompletion):
                span.__exit__(None, None, None)

    def _account_lookup(
        self,
        expression: PathExpression,
        text: str,
        key: tuple,
        cached: CompletionResult | None,
        span,
    ) -> CompletionResult | PendingCompletion:
        """The audit record and hit accounting of both :meth:`lookup`
        branches: the hit itself, or the miss as a pending completion."""
        audit = get_audit()
        if audit.enabled:
            self._audit_cache(audit, text, cached, key)
        if cached is None:
            return PendingCompletion(expression, key, span)
        span.set(cache="hit")
        get_metrics().record_completion(cached.stats, cached=True)
        return cached

    def finish(
        self, pending: PendingCompletion, result: CompletionResult
    ) -> CompletionResult:
        """Step three of a completion: cache, account, annotate.

        Stores an exhaustive ``result`` under the miss's key (partial
        and degraded answers are never cached), counts the miss in the
        ambient metrics, and annotates the still-open ``complete``
        span, which closes when ``pending``'s with-block exits.
        """
        span = pending.span
        if result.exhausted:
            self.compiled.cache.put(pending.key, result)
        else:
            span.set(truncated=result.truncation_reason)
        span.set(cache="miss", paths=len(result.paths))
        get_metrics().record_completion(result.stats, cached=False)
        return result

    def complete_batch(
        self, expressions: Iterable[str | PathExpression]
    ) -> BatchCompletionResult:
        """Complete a workload of expressions through the shared cache.

        The aggregated stats carry the batch's cache hit/miss counters
        and the artifact's compile time, so benchmarks can report
        warm-vs-cold behavior directly.

        Expressions run one after another, in input order, each
        governed by its own budget meter: one input tripping its budget
        flags (or raises for) that input alone, and with
        ``partial_ok=False`` budgets the earliest failing input is the
        one raised.
        """
        hits_before = self.compiled.cache.hits
        misses_before = self.compiled.cache.misses
        results = tuple(
            self.complete(expression) for expression in expressions
        )
        stats = TraversalStats()
        for result in results:
            stats.add(result.stats)
        stats.cache_hits = self.compiled.cache.hits - hits_before
        stats.cache_misses = self.compiled.cache.misses - misses_before
        stats.compile_seconds = self.compiled.compile_seconds
        return BatchCompletionResult(results=results, stats=stats)

    def complete_between(self, root: str, target_class: str) -> CompletionResult:
        """Class-to-class completion (the formalization's node target)."""
        tracer = get_tracer()
        with tracer.span(
            "complete", expression=f"class:{root}->{target_class}", e=self.e
        ) as span:
            key = self._cache_key(f"class:{root}->{target_class}")
            with tracer.span("cache_lookup") as lookup:
                cached = self.compiled.cache.get(key)
                lookup.set(hit=cached is not None)
            audit = get_audit()
            if audit.enabled:
                self._audit_cache(
                    audit, f"class:{root}->{target_class}", cached, key
                )
            if cached is not None:
                span.set(cache="hit")
                get_metrics().record_completion(cached.stats, cached=True)
                return cached
            result = self._search.run(root, ClassTarget(target_class))
            if result.exhausted:
                self.compiled.cache.put(key, result)
            else:
                span.set(truncated=result.truncation_reason)
            span.set(cache="miss", paths=len(result.paths))
            get_metrics().record_completion(result.stats, cached=False)
            return result

    def complete_to_target(self, root: str, target: Target) -> CompletionResult:
        """Completion with an explicit target specification.

        Arbitrary :class:`~repro.core.target.Target` objects have no
        stable content key, so this entry point bypasses the cache.
        """
        with get_tracer().span(
            "complete", expression=f"{root} ~ {target.describe()}", e=self.e
        ):
            result = self._search.run(root, target)
        get_metrics().record_completion(result.stats)
        return result

    def cache_info(self) -> dict[str, float]:
        """Counters of the shared completion cache (plus compile time)."""
        return self.compiled.cache_info()

    def explain(
        self, query_text: str, candidate_text: str
    ) -> "Explanation":
        """Why is ``candidate_text`` (not) an answer to ``query_text``?

        Convenience wrapper over
        :func:`repro.core.explain.explain_candidate` bound to this
        engine's graph, order, and E.
        """
        from repro.core.explain import explain_candidate

        return explain_candidate(
            self.graph,
            query_text,
            candidate_text,
            e=self.e,
            order=self.order,
        )

    def with_e(self, e: int) -> "Disambiguator":
        """A copy of this engine with a different E (for sweeps).

        The copy shares this engine's compiled artifact — E is part of
        every cache key, so the sweep points coexist in one cache.
        """
        return Disambiguator(
            self.compiled,
            e=e,
            use_caution_sets=self.use_caution_sets,
            apply_inheritance_criterion=self.apply_inheritance_criterion,
            max_depth=self.max_depth,
            pruning=self.pruning,
        )

    def evolved(self, delta) -> "Disambiguator":
        """An engine over this schema edited by ``delta``.

        Thin wrapper over :meth:`CompiledSchema.evolve
        <repro.core.compiled.CompiledSchema.evolve>`: the evolved
        artifact keeps every compiled piece the delta cannot affect
        (and the surviving completion-cache entries); the returned engine carries this one's E, ablation flags, depth
        bound, budget, and pruning mode.  This engine and its schema
        are untouched — sessions re-point to the returned engine.
        """
        return Disambiguator(
            self.compiled.evolve(delta),
            e=self.e,
            use_caution_sets=self.use_caution_sets,
            apply_inheritance_criterion=self.apply_inheritance_criterion,
            max_depth=self.max_depth,
            budget=self.budget,
            pruning=self.pruning,
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _audit_cache(self, audit, query: str, cached, key: tuple) -> None:
        """One ``cache`` audit record with lineage provenance."""
        audit.record(
            "cache",
            scope="complete",
            query=query,
            outcome="hit" if cached is not None else "miss",
            fingerprint=self.compiled.fingerprint[:12],
            lineage_depth=len(self.compiled.lineage),
            provenance=(
                self.compiled.cache.provenance(key)
                if cached is not None
                else None
            ),
        )

    def _cache_key(self, text: str) -> tuple:
        return self.compiled.cache_key(
            text,
            self.e,
            self.use_caution_sets,
            self.apply_inheritance_criterion,
            self.max_depth,
            self.pruning,
        )

    def _effective_budget(self, budget: Budget | None) -> Budget | None:
        """Per-call override, else engine default, else ambient."""
        if budget is not None:
            return budget
        if self.budget is not None:
            return self.budget
        return get_budget()

    def _complete_governed(
        self, expression: PathExpression, budget: Budget | None
    ) -> CompletionResult:
        """Run one uncached completion under the effective budget.

        Ungoverned calls go straight to :meth:`_complete_uncached`.
        Governed calls walk the degradation ladder: every rung gets a
        freshly armed meter (the deadline restarts — the ladder trades
        total latency for the chance of *an* exhaustive answer), and a
        rung that finishes below the requested E returns its result
        flagged ``exhausted=False`` with reason ``degraded:e=k``.  If
        the E=1 rung still trips, ``partial_ok`` decides between
        returning the flagged best-so-far and raising
        :class:`~repro.errors.BudgetExceededError` around it.
        """
        budget = self._effective_budget(budget)
        if budget is None or budget.is_unlimited:
            return self._complete_uncached(expression)
        armed = budget.allowing_partial()
        metrics = get_metrics()
        tracer = get_tracer()
        e = self.e
        while True:
            result = self._complete_uncached(
                expression, e=e, meter=armed.start()
            )
            if result.exhausted:
                if e != self.e:
                    result = dataclasses.replace(
                        result,
                        exhausted=False,
                        truncation_reason=TruncationReason.degraded(e),
                    )
                return result
            if e > 1:
                # Rung down: a lower E prunes harder, so the same
                # budget may suffice for an exhaustive (if relaxed)
                # answer.
                with tracer.span(
                    "degrade",
                    expression=str(expression),
                    from_e=e,
                    to_e=e - 1,
                    reason=result.truncation_reason,
                ):
                    e -= 1
                    metrics.counter("budget.degrades").inc()
                continue
            if budget.partial_ok:
                return result
            raise BudgetExceededError(
                result.truncation_reason or TruncationReason.DEADLINE,
                partial=result,
            )

    def _complete_uncached(
        self,
        expression: PathExpression,
        e: int | None = None,
        meter: BudgetMeter | None = None,
    ) -> CompletionResult:
        """One completion straight through the search (no result cache).

        ``e`` overrides the engine's relaxation for one call (ladder
        rungs); ``meter`` is a shared armed budget meter — per the
        :meth:`CompletionSearch.run` contract it must come from an
        ``allowing_partial()`` budget, so trips surface as flags here.
        """
        e = self.e if e is None else e
        if expression.is_complete:
            return self._validate_complete(expression)
        if expression.is_simple_incomplete:
            search = (
                self._search
                if e == self.e
                else self.compiled.searcher(
                    e=e,
                    use_caution_sets=self.use_caution_sets,
                    apply_inheritance_criterion=self.apply_inheritance_criterion,
                    max_depth=self.max_depth,
                    pruning=self.pruning,
                )
            )
            return search.run(
                expression.root,
                RelationshipTarget(expression.last_name),
                meter=meter,
            )
        general = complete_general(
            self.compiled,
            expression,
            e=e,
            use_caution_sets=self.use_caution_sets,
            apply_inheritance_criterion=self.apply_inheritance_criterion,
            meter=meter,
            pruning=self.pruning,
        )
        return CompletionResult(
            root=expression.root,
            target_description=f"pattern {expression}",
            paths=general.paths,
            labels=tuple(
                {path.label().key: path.label() for path in general.paths}.values()
            ),
            stats=general.stats,
            exhausted=general.exhausted,
            truncation_reason=general.truncation_reason,
        )

    def _validate_complete(
        self, expression: PathExpression
    ) -> CompletionResult:
        """Resolve a complete expression's steps to schema edges."""
        path = ConcretePath.start(expression.root)
        for step in expression.steps:
            anchor = path.target_class
            if not self.schema.has_relationship(anchor, step.name):
                raise NoCompletionError(
                    f"class {anchor!r} has no relationship {step.name!r} "
                    f"(in {expression})"
                )
            edge = next(
                (
                    candidate
                    for candidate in self.graph.edges_from(anchor)
                    if candidate.name == step.name
                ),
                None,
            )
            if edge is None:
                raise NoCompletionError(
                    f"relationship {anchor}.{step.name} is excluded by "
                    "domain knowledge"
                )
            if edge.connector is not step.connector:
                raise NoCompletionError(
                    f"step {step} uses connector {step.symbol!r} but "
                    f"{anchor}.{step.name} is a {edge.kind.name} "
                    "relationship"
                )
            path = path.extend(edge)
        label = path.label()
        return CompletionResult(
            root=expression.root,
            target_description="(already complete)",
            paths=(path,),
            labels=(label,),
            stats=TraversalStats(),
        )

    def __repr__(self) -> str:
        return (
            f"Disambiguator(schema={self.schema.name!r}, "
            f"order={self.order.name!r}, e={self.e}, "
            f"domain_knowledge={'yes' if not self.domain_knowledge.is_empty else 'no'})"
        )
