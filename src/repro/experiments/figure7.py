"""Figure 7 — response time per query (paper Sections 5.3-5.4).

The paper plots, for each of the ten incomplete path expressions at
E=5, the completion algorithm's response time, ordered by processing
complexity: large variance, average 6.29 s, maximum 14.45 s, and
0.17 ms per recursive call on a DecStation 5000/25.

Absolute times are hardware-bound; the hardware-independent measure the
paper itself uses is the *recursive call count*, which we report
alongside wall-clock seconds.
"""

from __future__ import annotations

import dataclasses

from repro.core.domain import DomainKnowledge
from repro.experiments.harness import run_workload
from repro.experiments.oracle import DesignerOracle
from repro.experiments.reporting import bar_chart, table
from repro.model.schema import Schema

__all__ = ["Figure7Result", "run_figure7", "render_figure7"]

#: The paper's reported numbers at E=5 on the DecStation 5000/25.
PAPER_AVERAGE_SECONDS = 6.29
PAPER_MAX_SECONDS = 14.45
PAPER_SECONDS_PER_CALL = 0.00017


@dataclasses.dataclass(frozen=True)
class QueryTiming:
    """Per-query cost at the Figure 7 setting."""

    query_id: str
    text: str
    recursive_calls: int
    elapsed_seconds: float

    @property
    def seconds_per_call(self) -> float:
        if self.recursive_calls == 0:
            return 0.0
        return self.elapsed_seconds / self.recursive_calls


@dataclasses.dataclass(frozen=True)
class Figure7Result:
    """Timings ordered by increasing processing complexity.

    ``outcomes`` keeps the raw workload outcomes (in workload order) so
    callers can inspect per-query failures recorded by a
    continue-on-error run.
    """

    timings: tuple[QueryTiming, ...]
    e: int
    outcomes: tuple = ()

    @property
    def average_seconds(self) -> float:
        if not self.timings:
            return 0.0
        return sum(t.elapsed_seconds for t in self.timings) / len(self.timings)

    @property
    def max_seconds(self) -> float:
        return max((t.elapsed_seconds for t in self.timings), default=0.0)

    @property
    def average_seconds_per_call(self) -> float:
        total_calls = sum(t.recursive_calls for t in self.timings)
        total_seconds = sum(t.elapsed_seconds for t in self.timings)
        if total_calls == 0:
            return 0.0
        return total_seconds / total_calls


def run_figure7(
    schema: Schema,
    oracle: DesignerOracle,
    e: int = 5,
    domain_knowledge: DomainKnowledge | None = None,
    continue_on_error: bool = False,
    retries: int = 0,
) -> Figure7Result:
    """Time every workload query at the paper's E=5 setting."""
    outcomes = run_workload(
        schema,
        oracle,
        e=e,
        domain_knowledge=domain_knowledge,
        continue_on_error=continue_on_error,
        retries=retries,
    )
    timings = [
        QueryTiming(
            query_id=o.query.query_id,
            text=o.query.text,
            recursive_calls=o.recursive_calls,
            elapsed_seconds=o.elapsed_seconds,
        )
        for o in outcomes
    ]
    timings.sort(key=lambda t: t.recursive_calls)
    return Figure7Result(
        timings=tuple(timings), e=e, outcomes=tuple(outcomes)
    )


def render_figure7(result: Figure7Result) -> str:
    """Text rendering of Figure 7."""
    rows = [
        (
            t.query_id,
            t.text,
            t.recursive_calls,
            f"{t.elapsed_seconds:.2f}s",
            f"{t.seconds_per_call * 1000:.3f}ms",
        )
        for t in result.timings
    ]
    chart = bar_chart(
        [t.query_id for t in result.timings],
        [t.elapsed_seconds for t in result.timings],
        unit="s",
    )
    return "\n".join(
        [
            f"Figure 7: Response Time Per Query (E={result.e}, "
            "ordered by processing complexity)",
            (
                f"(paper: avg {PAPER_AVERAGE_SECONDS}s, max "
                f"{PAPER_MAX_SECONDS}s, {PAPER_SECONDS_PER_CALL * 1000:.2f}ms"
                "/call on a 1994 DecStation 5000/25)"
            ),
            "",
            table(
                ["query", "expression", "recursive calls", "time", "per call"],
                rows,
            ),
            "",
            chart,
            "",
            (
                f"measured: avg {result.average_seconds:.2f}s, "
                f"max {result.max_seconds:.2f}s, "
                f"{result.average_seconds_per_call * 1000:.4f}ms/call"
            ),
        ]
    )
