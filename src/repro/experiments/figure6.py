"""Figure 6 — average precision fraction vs E, with and without domain
knowledge (paper Section 5.3).

The paper reports precision 100% at E=1, dropping to ~55% as E rises
(more, semantically longer, mostly unintended paths enter S), while a
small amount of domain knowledge — excluding auxiliary classes — keeps
precision at ~93%.  Recall is unaffected by the exclusions because that
form of knowledge can only *remove* answers.
"""

from __future__ import annotations

import dataclasses

from repro.core.domain import DomainKnowledge
from repro.experiments.harness import SweepPoint, sweep_e
from repro.experiments.oracle import DesignerOracle
from repro.experiments.reporting import percent, table
from repro.model.schema import Schema

__all__ = ["Figure6Result", "run_figure6", "render_figure6"]

#: The paper's reported endpoints (read off the figure).
PAPER_PRECISION_E1 = 1.00
PAPER_PRECISION_E5_NO_DK = 0.55
PAPER_PRECISION_E5_WITH_DK = 0.93


@dataclasses.dataclass(frozen=True)
class Figure6Result:
    """Precision series for the two experiment arms."""

    without_dk: tuple[SweepPoint, ...]
    with_dk: tuple[SweepPoint, ...]
    excluded_classes: tuple[str, ...]

    def series(self, arm: str) -> list[tuple[int, float]]:
        points = self.without_dk if arm == "without" else self.with_dk
        return [(point.e, point.average_precision) for point in points]

    @property
    def dk_improves_precision(self) -> bool:
        """The paper's headline comparison at the largest E."""
        return (
            self.with_dk[-1].average_precision
            > self.without_dk[-1].average_precision
        )


def run_figure6(
    schema: Schema,
    oracle: DesignerOracle,
    domain_knowledge: DomainKnowledge,
    e_values: tuple[int, ...] = (1, 2, 3, 4, 5),
    continue_on_error: bool = False,
    retries: int = 0,
) -> Figure6Result:
    """Compute both precision series."""
    without = sweep_e(
        schema,
        oracle,
        e_values=e_values,
        continue_on_error=continue_on_error,
        retries=retries,
    )
    with_dk = sweep_e(
        schema,
        oracle,
        e_values=e_values,
        domain_knowledge=domain_knowledge,
        continue_on_error=continue_on_error,
        retries=retries,
    )
    return Figure6Result(
        without_dk=tuple(without),
        with_dk=tuple(with_dk),
        excluded_classes=tuple(sorted(domain_knowledge.excluded_classes)),
    )


def render_figure6(result: Figure6Result) -> str:
    """Text rendering of Figure 6 (both series side by side)."""
    rows = []
    for no_dk, dk in zip(result.without_dk, result.with_dk):
        rows.append(
            (
                no_dk.e,
                percent(no_dk.average_precision),
                percent(dk.average_precision),
                f"{no_dk.average_returned:.1f}",
                f"{dk.average_returned:.1f}",
            )
        )
    return "\n".join(
        [
            "Figure 6: Average Precision Fraction vs E",
            (
                f"(paper: {PAPER_PRECISION_E1:.0%} at E=1; at large E "
                f"~{PAPER_PRECISION_E5_NO_DK:.0%} without domain knowledge, "
                f"~{PAPER_PRECISION_E5_WITH_DK:.0%} with)"
            ),
            f"excluded classes: {', '.join(result.excluded_classes)}",
            "",
            table(
                [
                    "E",
                    "precision (no DK)",
                    "precision (DK)",
                    "|S| (no DK)",
                    "|S| (DK)",
                ],
                rows,
            ),
        ]
    )
