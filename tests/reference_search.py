"""The paper's Algorithm 2 verbatim: the oracle for the search kernel.

:class:`ReferenceSearch` is a :class:`~repro.core.completion.CompletionSearch`
whose traversal is the published ``traverse`` routine rendered line by
line over schema-graph objects (string node names, :class:`PathLabel`
objects, ``graph.edges_from`` per visit) instead of the production
loop, :func:`repro.core.kernel.run_flat`.  Everything around the
traversal (budget handling, AGG* selection, preemption, ranking,
support) is the production code, so a difference between the two is a
difference between the loops.

``pruning="none"`` runs ``run_flat`` with its cuts off, and it must
equal this loop on ranked paths, labels, anytime flags and every
:class:`~repro.core.stats.TraversalStats` counter
(``tests/core/test_oracle_search.py``).  ``benchmarks/bench_closure.py``
times it as the unpruned baseline of the closure speedup gates.
"""

from __future__ import annotations

import dataclasses

from repro.algebra.labels import IDENTITY_LABEL, PathLabel
from repro.core.ast import ConcretePath
from repro.core.audit import get_audit
from repro.core.compiled import CompiledSchema
from repro.core.completion import CompletionResult, CompletionSearch
from repro.core.engine import Disambiguator
from repro.core.kernel import BudgetTrip
from repro.core.stats import TraversalStats
from repro.core.target import Target
from repro.model.graph import SchemaGraph
from repro.resilience.budget import BudgetMeter

__all__ = [
    "ReferenceSearch",
    "reference_complete_paths",
    "reference_engine",
]


class ReferenceSearch(CompletionSearch):
    """A completion search whose loop is Algorithm 2 as published."""

    def __init__(self, graph: SchemaGraph, *args, **kwargs) -> None:
        kwargs["pruning"] = "none"
        super().__init__(graph, *args, **kwargs)

    def _traverse(
        self,
        root: str,
        state,
        target: Target,
        meter: BudgetMeter | None = None,
        tables=None,
    ) -> str | None:
        reference_state = _ReferenceState(
            best_target=[], complete=state.complete, stats=state.stats
        )
        try:
            self._traverse_reference(root, reference_state, target, meter)
        except BudgetTrip as trip:
            return trip.reason
        return None

    def _traverse_reference(
        self,
        root: str,
        state: "_ReferenceState",
        target: Target,
        meter: BudgetMeter | None,
    ) -> None:
        """The paper's Algorithm 2, line by line.

        Iterative rendering of the recursive ``traverse``: each stack
        frame carries ``(node, label, path, next edge index)``; pushing
        a frame corresponds to a recursive call (line 13), popping a
        frame past its last edge to returning past line 15 (which
        clears the ``visited`` flag).

        This is the reference the flat kernel is verified against; it
        stays deliberately close to the published pseudocode."""
        visited: set[str] = state.visited
        aggregator = self.aggregator
        aggregate = aggregator.aggregate
        keeps = aggregator.keeps
        stats = state.stats
        best = state.best
        best_get = best.get
        graph = self.graph
        edges_from = graph.edges_from
        is_completing = target.is_completing_edge
        caution = self.caution
        max_depth = self.max_depth
        complete = state.complete
        # One hoisted flag guards every audit hook: the disabled default
        # costs a boolean test per decision site and the traversal is
        # byte-identical either way (asserted in tests/core/test_audit.py).
        audit = get_audit()
        audit_on = audit.enabled
        audit_record = audit.record

        stack: list[tuple[str, PathLabel, ConcretePath, int]] = []
        stack_append = stack.append

        def enter(node: str, label: PathLabel, path: ConcretePath) -> None:
            # Lines 1-5: mark visited, record any complete paths via the
            # completing edges out of this node, run update(paths).
            visited.add(node)
            stats.recursive_calls += 1
            if audit_on:
                audit_record(
                    "expand",
                    node=node,
                    depth=path.length,
                    edge=path.edges[-1].name if path.edges else None,
                    label=str(label),
                    length=label.semantic_length,
                )
            if meter is not None:
                reason = meter.tripped(
                    stats.recursive_calls, len(complete), len(stack)
                )
                if reason is not None:
                    raise BudgetTrip(reason)
            for edge in edges_from(node):
                if not is_completing(edge):
                    continue
                if edge.target in visited:
                    continue  # would close a cycle; ignored per semantics
                candidate = label.extend(edge.connector)
                state.best_target = aggregate(
                    [candidate, *state.best_target]
                )
                kept = keeps(candidate, state.best_target)
                if kept:
                    complete.append(path.extend(edge))
                    stats.complete_paths_found += 1
                if audit_on:
                    audit_record(
                        "complete",
                        node=node,
                        depth=path.length,
                        edge=edge.name,
                        path=str(path.extend(edge)),
                        label=str(candidate),
                        length=candidate.semantic_length,
                        kept=kept,
                    )
            stack_append((node, label, path, 0))

        enter(root, IDENTITY_LABEL, ConcretePath.start(root))
        while stack:
            node, label, path, edge_index = stack.pop()
            edges = edges_from(node)
            n_edges = len(edges)
            advanced = False
            while edge_index < n_edges:
                edge = edges[edge_index]
                edge_index += 1
                if is_completing(edge):
                    continue  # handled in enter(); never extended
                child = edge.target
                stats.edges_considered += 1
                if child in visited:
                    stats.pruned_visited += 1
                    if audit_on:
                        audit_record(
                            "cut",
                            rule="visited",
                            node=node,
                            depth=path.length,
                            edge=edge.name,
                            child=child,
                            caution=False,
                        )
                    continue
                if not edges_from(child) and not _can_complete_at(
                    graph, child, target
                ):
                    if audit_on:
                        audit_record(
                            "cut",
                            rule="dead_end",
                            node=node,
                            depth=path.length,
                            edge=edge.name,
                            child=child,
                            caution=False,
                        )
                    continue  # dead end (e.g. primitive class)
                if (
                    max_depth is not None
                    and path.length + 1 >= max_depth
                ):
                    if audit_on:
                        audit_record(
                            "cut",
                            rule="max_depth",
                            node=node,
                            depth=path.length,
                            edge=edge.name,
                            child=child,
                            caution=False,
                        )
                    continue
                child_label = label.extend(edge.connector)
                # Line 9: bound against the best complete labels so far.
                if state.best_target and not keeps(
                    child_label, state.best_target
                ):
                    stats.pruned_target_bound += 1
                    if audit_on:
                        audit_record(
                            "cut",
                            rule="target_bound",
                            node=node,
                            depth=path.length,
                            edge=edge.name,
                            child=child,
                            label=str(child_label),
                            length=child_label.semantic_length,
                            frontier=[str(k) for k in state.best_target],
                            caution=False,
                        )
                    continue
                # Lines 10-11: bound against best[u], rescued by caution.
                child_best = best_get(child, [])
                if child_best and not keeps(child_label, child_best):
                    if caution is not None and caution.intersects(
                        child_label, child_best
                    ):
                        stats.rescued_by_caution += 1
                        if audit_on:
                            audit_record(
                                "rescue",
                                rule="best_bound",
                                node=node,
                                depth=path.length,
                                edge=edge.name,
                                child=child,
                                label=str(child_label),
                            )
                    else:
                        stats.pruned_best_bound += 1
                        if audit_on:
                            audit_record(
                                "cut",
                                rule="best_bound",
                                node=node,
                                depth=path.length,
                                edge=edge.name,
                                child=child,
                                label=str(child_label),
                                length=child_label.semantic_length,
                                frontier=[str(k) for k in child_best],
                                caution=False,
                            )
                        continue
                # Line 12: best[u] := AGG*({l_u} ∪ best[u]).
                best[child] = aggregate(
                    [child_label, *child_best]
                )
                # Line 13: recurse — push the parent frame back with its
                # position, then enter the child.
                stack_append((node, label, path, edge_index))
                enter(child, child_label, path.extend(edge))
                advanced = True
                break
            if not advanced:
                visited.discard(node)  # line 15


def _can_complete_at(
    graph: SchemaGraph, node: str, target: Target
) -> bool:
    """True if some completing edge departs from ``node``."""
    return any(
        target.is_completing_edge(edge) for edge in graph.edges_from(node)
    )


@dataclasses.dataclass(slots=True)
class _ReferenceState:
    """Mutable globals of the traversal (the paper's best[], paths)."""

    best_target: list[PathLabel]
    complete: list[ConcretePath]
    stats: TraversalStats
    best: dict[str, object] = dataclasses.field(default_factory=dict)
    visited: set[str] = dataclasses.field(default_factory=set)


def reference_complete_paths(
    graph: SchemaGraph, root: str, target: Target, budget=None, **kwargs
) -> CompletionResult:
    """:func:`repro.core.completion.complete_paths` on the oracle loop."""
    kwargs.pop("pruning", None)
    return ReferenceSearch(graph, **kwargs).run(root, target, budget=budget)


def reference_engine(schema, **kwargs) -> Disambiguator:
    """An engine on a private artifact whose every search is the oracle.

    The artifact is fresh (never the shared registry one), so the
    oracle's cache entries and searchers reach no other engine.
    """
    compiled = CompiledSchema(schema)
    compiled.search_class = ReferenceSearch
    return Disambiguator(compiled, pruning="none", **kwargs)
