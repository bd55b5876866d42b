"""Figure 5 — average recall fraction vs E (paper Section 5.3).

The paper reports average recall around 90%, *unaffected by E*: the
additional, semantically longer paths admitted at larger E were never
among the intended ones.  This module regenerates that series on the
synthetic CUPID workload.
"""

from __future__ import annotations

import dataclasses

from repro.core.domain import DomainKnowledge
from repro.experiments.harness import SweepPoint, sweep_e
from repro.experiments.oracle import DesignerOracle
from repro.experiments.reporting import bar_chart, percent, table
from repro.model.schema import Schema

__all__ = ["Figure5Result", "run_figure5", "render_figure5"]

#: The paper's reported series (approximate, read off the figure).
PAPER_AVERAGE_RECALL = 0.90


@dataclasses.dataclass(frozen=True)
class Figure5Result:
    """The recall series plus the paper's reference value."""

    points: tuple[SweepPoint, ...]
    paper_average_recall: float = PAPER_AVERAGE_RECALL

    @property
    def recall_series(self) -> list[tuple[int, float]]:
        return [(point.e, point.average_recall) for point in self.points]

    @property
    def is_flat(self) -> bool:
        """The paper's headline: recall does not move with E."""
        values = [point.average_recall for point in self.points]
        return max(values) - min(values) < 1e-9


def run_figure5(
    schema: Schema,
    oracle: DesignerOracle,
    e_values: tuple[int, ...] = (1, 2, 3, 4, 5),
    domain_knowledge: DomainKnowledge | None = None,
    continue_on_error: bool = False,
    retries: int = 0,
) -> Figure5Result:
    """Compute the average-recall-vs-E series."""
    points = sweep_e(
        schema,
        oracle,
        e_values=e_values,
        domain_knowledge=domain_knowledge,
        continue_on_error=continue_on_error,
        retries=retries,
    )
    return Figure5Result(points=tuple(points))


def render_figure5(result: Figure5Result) -> str:
    """Text rendering of Figure 5."""
    rows = [
        (point.e, percent(point.average_recall), f"{point.average_returned:.1f}")
        for point in result.points
    ]
    chart = bar_chart(
        [f"E={point.e}" for point in result.points],
        [point.average_recall for point in result.points],
    )
    return "\n".join(
        [
            "Figure 5: Average Recall Fraction vs E",
            f"(paper: ~{result.paper_average_recall:.0%}, flat in E)",
            "",
            table(["E", "avg recall", "avg |S|"], rows),
            "",
            chart,
        ]
    )
