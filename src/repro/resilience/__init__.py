"""Resource governance and fault injection for the completion pipeline.

``repro.resilience`` is the layer that keeps one hostile incomplete
expression from stalling a whole deployment:

* :mod:`repro.resilience.budget` — :class:`Budget` /
  :class:`BudgetMeter`: deadline, node, path, and stack-depth caps
  checked in Algorithm 2's inner loop, with *anytime* partial results
  on a trip and an ambient :func:`use_budget` scope;
* :mod:`repro.resilience.faults` — a deterministic, seeded chaos
  harness (:class:`FaultPlan`, :class:`FaultyMeter`,
  :class:`FaultyGraph`, :class:`FaultyCache`, :class:`FakeClock`) that the chaos test suite
  uses to prove the invariants (truncated results never cached,
  sessions and runners survive injected failures); its faults fire
  inside the search loop;
* :mod:`repro.resilience.retry` — :class:`RetryPolicy`: jittered
  exponential backoff for *transient* failures (shed requests,
  connection resets, injected backend faults), used by the serving
  tier's bundled client and cache prewarming.

See ``docs/resilience.md`` for the budget semantics and the
degradation ladder.
"""

from repro.resilience.budget import (
    Budget,
    BudgetMeter,
    CancelSignal,
    TruncationReason,
    get_budget,
    use_budget,
)
from repro.resilience.faults import (
    FakeClock,
    FaultPlan,
    FaultyCache,
    FaultyGraph,
    FaultyMeter,
    inject,
)
from repro.resilience.retry import RetryExhaustedError, RetryPolicy

__all__ = [
    "Budget",
    "BudgetMeter",
    "CancelSignal",
    "FakeClock",
    "FaultPlan",
    "FaultyCache",
    "FaultyGraph",
    "FaultyMeter",
    "RetryExhaustedError",
    "RetryPolicy",
    "TruncationReason",
    "get_budget",
    "inject",
    "use_budget",
]
