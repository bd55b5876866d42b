r"""Algorithm 2 — depth-first search for path-expression completion
(paper Section 4.5).

This is the paper's Algorithm 1 (a traditional path-computation DFS)
enhanced with:

* **caution sets** (Section 4.1): because AGG does not distribute over
  CON, a dominated label may still need exploration when a dominating
  label at the node sits in its caution set;
* **path reconstruction** (Section 4.2): the pruning tests use
  set-membership (``l_u ∈ AGG*(...)``) rather than set-change, so paths
  tied with the current best are still explored and reported;
* **the Inheritance Semantics Criterion** (Section 4.3): applied inside
  ``update(paths)`` whenever a complete path is recorded;
* **AGG\*** (Section 4.4): the ``E`` parameter relaxes the semantic-length
  cut to the E lowest distinct lengths.

:class:`CompletionSearch` runs one loop, the flat search kernel
(:func:`repro.core.kernel.run_flat`), over dense integers, audited or
not.  With closure pruning (the default) it runs over the closure's
cut tables, adding the reachability and label-bound cut rules to the
paper's; ``pruning="none"`` runs the same loop with those cuts off,
which is the paper's Algorithm 2 search call for call.  The loop is
iterative rather than recursive (real schemas produce search stacks
deeper than CPython's recursion limit), but mirrors the paper's
``traverse`` routine line by line; ``stats.recursive_calls`` counts
what would be recursive invocations.  Chaos faults
(:func:`repro.resilience.faults.inject`) fire inside that loop too,
through the budget meter it checks on every expansion.
"""

from __future__ import annotations

import dataclasses
import time

from repro.algebra.agg import Aggregator
from repro.algebra.caution import CautionSets
from repro.algebra.labels import PathLabel
from repro.algebra.order import DEFAULT_ORDER, PartialOrder
from repro.core.ast import ConcretePath
from repro.core.audit import get_audit, record_scores
from repro.core.closure import SchemaClosure, TargetTables, resolve_pruning
from repro.core.inheritance_criterion import apply_preemption
from repro.core.kernel import BudgetTrip, run_flat
from repro.core.stats import TraversalStats
from repro.core.target import Target
from repro.errors import BudgetExceededError
from repro.model.graph import SchemaGraph
from repro.obs.metrics import get_metrics
from repro.obs.tracer import get_tracer
from repro.resilience.budget import Budget, BudgetMeter, get_budget

__all__ = ["CompletionSearch", "CompletionResult", "complete_paths"]


@dataclasses.dataclass(frozen=True)
class CompletionResult:
    """Outcome of one completion search.

    ``paths`` are the optimal consistent completions, best label first
    (ties broken by semantic length, then actual length, then text).
    ``labels`` are the surviving optimal labels (the best[T] set).

    ``exhausted`` is the anytime flag: ``True`` means the search space
    was fully explored at the requested parameters, so ``paths`` is
    *the* optimal set.  ``False`` means a resource budget tripped (or
    the degradation ladder answered at a lower E); every path is still
    a genuinely consistent completion, but the set may be incomplete or
    non-optimal, and ``truncation_reason`` says why
    (:class:`~repro.resilience.budget.TruncationReason`).  Partial
    results are never stored in the completion cache.

    ``support`` is the result's dependency footprint for surgical cache
    invalidation: the set of class names reachable from the root in the
    traversal graph at search time.  Any edge insertion or deletion that
    could change this result has its source class in the set — an
    insertion at an unreachable class can never extend a path from the
    root, and a deletion at one can never break an existing optimal
    path — so a schema delta whose touched classes are disjoint from the
    support provably leaves the result byte-identical
    (:meth:`CompletionCache.adopt
    <repro.core.compiled.CompletionCache.adopt>`).  An *empty* support
    means "unknown" and is treated as intersecting everything; results
    produced outside the single-gap search (general expressions,
    validation) stay conservatively evictable.
    """

    root: str
    target_description: str
    paths: tuple[ConcretePath, ...]
    labels: tuple[PathLabel, ...]
    stats: TraversalStats
    exhausted: bool = True
    truncation_reason: str | None = None
    support: frozenset[str] = frozenset()

    @property
    def expressions(self) -> list[str]:
        """The completions rendered as path-expression strings."""
        return [str(path) for path in self.paths]

    @property
    def is_empty(self) -> bool:
        return not self.paths

    @property
    def is_unique(self) -> bool:
        """True when the user has nothing left to choose."""
        return len(self.paths) == 1

    @property
    def is_partial(self) -> bool:
        """True for anytime results (budget-truncated or degraded)."""
        return not self.exhausted

    def __str__(self) -> str:
        suffix = (
            f" [partial: {self.truncation_reason}]" if self.is_partial else ""
        )
        lines = [
            f"completions of {self.root} ~ {self.target_description} "
            f"({len(self.paths)}){suffix}:"
        ]
        for path in self.paths:
            lines.append(f"  {path}  {path.label()}")
        return "\n".join(lines)


class CompletionSearch:
    """A reusable completion engine bound to a graph and an algebra.

    Parameters
    ----------
    graph:
        The schema graph to search (domain-knowledge exclusions are
        applied by restricting the graph before constructing the search).
    order:
        The better-than partial order; defaults to the paper's.
    e:
        The AGG* relaxation parameter (E >= 1).
    use_caution_sets:
        Disable only for the ablation that demonstrates lost answers.
    apply_inheritance_criterion:
        Disable only for ablations; on by default as in the paper.
    max_depth:
        Optional bound on path edge count (None = unbounded, the
        paper's setting; acyclicity already bounds depth by the class
        count).
    caution_sets:
        Optional precomputed :class:`~repro.algebra.caution.CautionSets`
        for ``order`` — a :class:`~repro.core.compiled.CompiledSchema`
        passes its compiled artifact here so every search it hands out
        shares one instance.  Ignored when ``use_caution_sets`` is off.
    pruning:
        ``"closure"`` (the default) runs the flat search kernel
        (:func:`repro.core.kernel.run_flat`) with the compile-time
        closure cut rules — reachability pruning and label-bound
        pruning (see :mod:`repro.core.closure`).  ``"none"`` runs the
        same loop with those cuts off: the paper's Algorithm 2, whose
        call counts Figure 7 reports.  Both modes return identical
        exhausted results and both emit the search audit log when one
        is installed; ``"none"`` exists for A/B verification and
        paper-fidelity measurements.
    closure:
        Optional precomputed :class:`~repro.core.closure.SchemaClosure`
        for ``graph`` (a compiled artifact shares one across all its
        searches); built on demand (content-cached) otherwise.
    """

    def __init__(
        self,
        graph: SchemaGraph,
        order: PartialOrder | None = None,
        e: int = 1,
        use_caution_sets: bool = True,
        apply_inheritance_criterion: bool = True,
        max_depth: int | None = None,
        caution_sets: CautionSets | None = None,
        pruning: str | None = None,
        closure: SchemaClosure | None = None,
    ) -> None:
        self.graph = graph
        self.order = order if order is not None else DEFAULT_ORDER
        self.aggregator = Aggregator(self.order, e=e)
        if not use_caution_sets:
            self.caution = None
        elif caution_sets is not None:
            self.caution = caution_sets
        else:
            self.caution = CautionSets(self.order)
        self.apply_inheritance_criterion = apply_inheritance_criterion
        self.max_depth = max_depth
        self.pruning = resolve_pruning(pruning)
        self.closure = (
            closure if closure is not None else SchemaClosure.for_graph(graph)
        )
        # Memoized per-root support sets (reachable class names) for
        # result footprints; the adjacency is frozen, so each root's set
        # is computed at most once per search instance.
        self._supports: dict[str, frozenset[str]] = {}

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def run(
        self,
        root: str,
        target: Target,
        budget: Budget | None = None,
        meter: BudgetMeter | None = None,
    ) -> CompletionResult:
        """Find the optimal consistent completions from ``root``.

        Mirrors the paper's ``traverse(S, Theta, S)`` invocation.

        Resource governance: ``budget`` (or, when omitted, the ambient
        :func:`repro.resilience.budget.get_budget`) bounds the
        traversal.  On a trip the best-so-far completions are finalized
        into an anytime result flagged ``exhausted=False``; under the
        budget's ``partial_ok`` policy it is returned, otherwise
        :class:`~repro.errors.BudgetExceededError` is raised carrying
        it.  Pass an armed ``meter`` instead to share one budget across
        several searches (the segments of a general expression, the
        engine's degradation ladder); the meter's own budget then
        supplies the policy.
        """
        self.graph.schema.get_class(root)
        if meter is None:
            if budget is None:
                budget = get_budget()
            if budget is not None and not budget.is_unlimited:
                meter = budget.start()
        stats = TraversalStats()
        started = time.perf_counter()
        state = _SearchState(complete=[], stats=stats)
        # The closure's cut tables; ``pruning="none"``, and a target
        # type the closure cannot key, run on uncut tables instead.
        tables = (
            self.closure.tables_for(target)
            if self.pruning == "closure"
            else None
        )
        if tables is None:
            tables = self.closure.uncut_tables_for(target)
        pruning = "closure" if tables.cut else "none"
        audit = get_audit()
        if audit.enabled:
            audit.record(
                "search",
                root=root,
                target=target.describe(),
                e=self.aggregator.e,
                pruning=pruning,
            )
        with get_tracer().span(
            "traverse",
            root=root,
            target=target.describe(),
            e=self.aggregator.e,
            pruning=pruning,
        ) as span:
            # A class excluded from the traversal view (domain
            # knowledge) roots no path.
            reason = (
                self._traverse(root, state, target, meter, tables)
                if root in self.closure.index
                else None
            )
            span.set(
                calls=stats.recursive_calls,
                edges=stats.edges_considered,
                complete_paths=stats.complete_paths_found,
                pruned_visited=stats.pruned_visited,
                pruned_target_bound=stats.pruned_target_bound,
                pruned_best_bound=stats.pruned_best_bound,
                caution_rescues=stats.rescued_by_caution,
                pruned_reachability=stats.nodes_pruned_reachability,
                pruned_bound=stats.nodes_pruned_bound,
            )
            if reason is not None:
                span.set(truncated=reason)
        paths = self._finalize(state)
        stats.elapsed_seconds = time.perf_counter() - started
        labels = tuple(
            self.aggregator.aggregate([path.label() for path in paths])
        )
        if reason is not None:
            stats.budget_trips += 1
            get_metrics().counter("budget.trips").inc()
        if audit.enabled:
            if reason is not None:
                audit.record("budget_trip", reason=reason)
            record_scores(audit, paths)
        result = CompletionResult(
            root=root,
            target_description=target.describe(),
            paths=tuple(paths),
            labels=labels,
            stats=stats,
            exhausted=reason is None,
            truncation_reason=reason,
            support=self._support_of(root),
        )
        if reason is not None and meter is not None and not meter.budget.partial_ok:
            raise BudgetExceededError(reason, partial=result)
        return result

    def _support_of(self, root: str) -> frozenset[str]:
        """Class names reachable from ``root`` in the traversal graph.

        Every path the search can ever produce — and every edge it can
        ever consider — lives inside this set, which makes it a sound
        dependency footprint for :attr:`CompletionResult.support`.  Read
        from the closure's reachability row, so both pruning modes
        stamp identical footprints.
        """
        support = self._supports.get(root)
        if support is None:
            closure = self.closure
            root_i = closure.index.get(root)
            if root_i is None:  # excluded from the traversal view
                support = frozenset((root,))
            else:
                row = closure.reach[root_i]
                support = frozenset(
                    name
                    for position, name in enumerate(closure.nodes)
                    if row >> position & 1
                )
            self._supports[root] = support
        return support

    # ------------------------------------------------------------------
    # The traversal (Algorithm 2)
    # ------------------------------------------------------------------

    def _traverse(
        self,
        root: str,
        state: "_SearchState",
        target: Target,
        meter: BudgetMeter | None,
        tables: TargetTables,
    ) -> str | None:
        """Run the search loop over ``tables``.

        Returns ``None`` on exhaustion, or the truncation reason when
        ``meter`` trips — the state's recorded complete paths are then
        the best-so-far anytime answer.
        """
        try:
            run_flat(
                self.closure,
                tables,
                root,
                state,
                self.aggregator,
                self.caution.masks if self.caution is not None else None,
                self.max_depth,
                meter,
            )
        except BudgetTrip as trip:
            return trip.reason
        return None

    # ------------------------------------------------------------------
    # Finalization: update(paths) semantics applied to the full set
    # ------------------------------------------------------------------

    def _finalize(self, state: "_SearchState") -> list[ConcretePath]:
        """Filter recorded complete paths to the AGG*-optimal set and
        apply the Inheritance Semantics Criterion."""
        complete = state.complete
        audit = get_audit()
        if not complete:
            if audit.enabled:
                audit.record(
                    "agg_select",
                    candidates=0,
                    optimal_labels=0,
                    survivors=0,
                    preempted=0,
                )
            return []
        tracer = get_tracer()
        with tracer.span("agg_select", candidates=len(complete)) as span:
            optimal_labels = {
                label.key
                for label in self.aggregator.aggregate(
                    [path.label() for path in complete]
                )
            }
            survivors = [
                path for path in complete if path.label().key in optimal_labels
            ]
            # De-duplicate identical edge sequences (a path can be recorded
            # twice when caution sets force re-exploration).
            unique: dict[tuple, ConcretePath] = {}
            for path in survivors:
                unique.setdefault((path.root, path.edges), path)
            survivors = list(unique.values())
            span.set(optimal_labels=len(optimal_labels), survivors=len(survivors))
        if self.apply_inheritance_criterion:
            with tracer.span("preemption", candidates=len(survivors)) as span:
                survivors, removed = apply_preemption(survivors)
                state.stats.preempted_paths = removed
                span.set(removed=removed)
        with tracer.span("rank", paths=len(survivors)):
            survivors.sort(
                key=lambda p: (
                    p.label().connector.sort_rank,
                    p.semantic_length,
                    p.length,
                    str(p),
                )
            )
        if audit.enabled:
            audit.record(
                "agg_select",
                candidates=len(complete),
                optimal_labels=len(optimal_labels),
                survivors=len(survivors),
                preempted=state.stats.preempted_paths,
            )
        return survivors

    def __repr__(self) -> str:
        return (
            f"CompletionSearch(graph={self.graph!r}, "
            f"order={self.order.name!r}, e={self.aggregator.e}, "
            f"caution={'on' if self.caution else 'off'})"
        )


@dataclasses.dataclass(slots=True)
class _SearchState:
    """What the traversal fills: the recorded paths and its counters."""

    complete: list[ConcretePath]
    stats: TraversalStats


def complete_paths(
    graph: SchemaGraph,
    root: str,
    target: Target,
    order: PartialOrder | None = None,
    e: int = 1,
    use_caution_sets: bool = True,
    apply_inheritance_criterion: bool = True,
    max_depth: int | None = None,
    budget: Budget | None = None,
    pruning: str | None = None,
) -> CompletionResult:
    """One-shot convenience wrapper around :class:`CompletionSearch`."""
    search = CompletionSearch(
        graph,
        order=order,
        e=e,
        use_caution_sets=use_caution_sets,
        apply_inheritance_criterion=apply_inheritance_criterion,
        max_depth=max_depth,
        pruning=pruning,
    )
    return search.run(root, target, budget=budget)
