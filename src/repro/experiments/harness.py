"""Shared experiment runner: execute a workload at a given E, with or
without domain knowledge, and collect recall/precision/cost per query.

Every figure module (:mod:`figure5`, :mod:`figure6`, :mod:`figure7`) and
the in-text statistics module build on :func:`run_workload` /
:func:`sweep_e`.
"""

from __future__ import annotations

import dataclasses

from repro.core.compiled import CompiledSchema, compile_schema
from repro.core.domain import DomainKnowledge
from repro.core.engine import Disambiguator
from repro.errors import ReproError
from repro.experiments.metrics import average, precision, recall
from repro.experiments.oracle import DesignerOracle, WorkloadQuery
from repro.model.schema import Schema
from repro.obs.metrics import get_metrics
from repro.obs.slowlog import get_slowlog
from repro.obs.tracer import get_tracer

__all__ = ["QueryOutcome", "SweepPoint", "run_workload", "sweep_e"]


@dataclasses.dataclass(frozen=True)
class QueryOutcome:
    """Result of running one workload query at one setting.

    ``error`` is ``None`` on success; when
    :func:`run_workload` runs with ``continue_on_error`` and a query
    keeps failing through its retries, the outcome records the final
    error text here (with empty ``returned`` and zero scores) so the
    sweep's averages and the runner's failure report both see it.
    """

    query: WorkloadQuery
    e: int
    returned: tuple[str, ...]
    intent: frozenset[str]
    recall: float
    precision: float
    recursive_calls: int
    elapsed_seconds: float
    error: str | None = None

    @property
    def failed(self) -> bool:
        return self.error is not None

    @property
    def returned_count(self) -> int:
        return len(self.returned)

    @property
    def mean_returned_length(self) -> float:
        """Average edge count of the returned completions.

        Length is recovered from the expression text by counting steps
        (each connector introduces one step).
        """
        if not self.returned:
            return 0.0
        import re

        counts = [
            len(re.findall(r"@>|<@|\$>|<\$|\.", text))
            for text in self.returned
        ]
        return sum(counts) / len(counts)


@dataclasses.dataclass(frozen=True)
class SweepPoint:
    """Workload averages at one E setting (a point on Figures 5/6)."""

    e: int
    average_recall: float
    average_precision: float
    average_returned: float
    outcomes: tuple[QueryOutcome, ...]


def run_workload(
    schema: Schema,
    oracle: DesignerOracle,
    e: int = 1,
    domain_knowledge: DomainKnowledge | None = None,
    compiled: CompiledSchema | None = None,
    continue_on_error: bool = False,
    retries: int = 0,
) -> list[QueryOutcome]:
    """Run every workload query once and score it against the oracle.

    ``compiled`` shares an explicit compilation artifact (its completion
    cache makes repeated runs warm); without it the engine compiles
    through the memoized registry, so repeated runs over an unchanged
    schema still share one artifact.

    A query raising a :class:`~repro.errors.ReproError` is retried up to
    ``retries`` more times (transient faults — an injected chaos fault,
    a tripped deadline under load — often clear on retry).  If it still
    fails: with ``continue_on_error`` the workload records a failed
    :class:`QueryOutcome` (zero scores, the error text in ``.error``)
    and moves on; otherwise the error propagates as before.
    """
    if compiled is None:
        compiled = compile_schema(schema, domain_knowledge=domain_knowledge)
    engine = Disambiguator(compiled, e=e)
    metrics = get_metrics()
    outcomes: list[QueryOutcome] = []
    with get_tracer().span(
        "workload", e=e, knowledge=domain_knowledge is not None
    ) as span:
        for query in oracle:
            result = None
            failure: ReproError | None = None
            # One slow-log observation per workload query (kind
            # "experiment"): nested engine observations no-op, so a
            # retained entry covers the retry loop end to end.
            with get_slowlog().observe(
                "experiment", query.text, e=e, pruning=engine.pruning
            ) as observation:
                for attempt in range(retries + 1):
                    try:
                        result = engine.complete(query.text)
                        failure = None
                        break
                    except ReproError as error:
                        failure = error
                        if attempt < retries:
                            metrics.counter("workload.retries").inc()
                if result is not None:
                    observation.record_result(result)
            if failure is not None:
                if not continue_on_error:
                    raise failure
                metrics.counter("workload.failures").inc()
                outcomes.append(
                    QueryOutcome(
                        query=query,
                        e=e,
                        returned=(),
                        intent=frozenset(query.final_intent(())),
                        recall=0.0,
                        precision=0.0,
                        recursive_calls=0,
                        elapsed_seconds=0.0,
                        error=f"{type(failure).__name__}: {failure}",
                    )
                )
                continue
            returned = tuple(result.expressions)
            intent = frozenset(query.final_intent(returned))
            outcome = QueryOutcome(
                query=query,
                e=e,
                returned=returned,
                intent=intent,
                recall=recall(intent, returned),
                precision=precision(intent, returned),
                recursive_calls=result.stats.recursive_calls,
                elapsed_seconds=result.stats.elapsed_seconds,
            )
            outcomes.append(outcome)
            # The per-completion traversal feed happens inside
            # engine.complete; the workload-level quality series is
            # recorded here, where the oracle's scoring lives.
            metrics.histogram("workload.recall").observe(outcome.recall)
            metrics.histogram("workload.precision").observe(outcome.precision)
            metrics.histogram("workload.returned").observe(len(returned))
        span.set(queries=len(outcomes))
    return outcomes


def sweep_e(
    schema: Schema,
    oracle: DesignerOracle,
    e_values: tuple[int, ...] = (1, 2, 3, 4, 5),
    domain_knowledge: DomainKnowledge | None = None,
    compiled: CompiledSchema | None = None,
    continue_on_error: bool = False,
    retries: int = 0,
) -> list[SweepPoint]:
    """Run the workload across E settings (the Figures 5/6 x-axis).

    The schema is compiled exactly once for the whole sweep; E is part
    of every completion cache key, so the points coexist in one cache.
    ``continue_on_error``/``retries`` pass through to
    :func:`run_workload`.
    """
    if compiled is None:
        compiled = compile_schema(schema, domain_knowledge=domain_knowledge)
    points: list[SweepPoint] = []
    for e in e_values:
        outcomes = run_workload(
            schema,
            oracle,
            e=e,
            domain_knowledge=domain_knowledge,
            compiled=compiled,
            continue_on_error=continue_on_error,
            retries=retries,
        )
        points.append(
            SweepPoint(
                e=e,
                average_recall=average([o.recall for o in outcomes]),
                average_precision=average([o.precision for o in outcomes]),
                average_returned=average(
                    [float(o.returned_count) for o in outcomes]
                ),
                outcomes=tuple(outcomes),
            )
        )
    return points
