"""Anytime semantics: budget trips through the search, the engine (with
its degradation ladder), and general multi-``~`` completion — including
the hard invariant that truncated results never reach the cache."""

import dataclasses

import pytest

from repro.core.compiled import CompiledSchema
from repro.core.completion import CompletionSearch
from repro.core.engine import Disambiguator
from repro.core.multi import complete_general
from repro.core.parser import parse_path_expression
from repro.core.target import RelationshipTarget
from repro.errors import BudgetExceededError
from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.resilience.budget import Budget, TruncationReason, use_budget
from repro.resilience.faults import FakeClock, FaultPlan, inject


@pytest.fixture(scope="module")
def cupid_compiled():
    """A private CUPID artifact — budget tests must not leak partials
    or warm entries into the shared registry artifact."""
    from repro.schemas.cupid import build_cupid_schema

    return CompiledSchema(build_cupid_schema())


def _search(compiled, e=1):
    return CompletionSearch(compiled.graph, order=compiled.order, e=e)


class TestSearchTrips:
    def test_node_cap_partial_ok_returns_flagged_result(self, cupid_compiled):
        budget = Budget(max_nodes=50, partial_ok=True)
        result = _search(cupid_compiled).run(
            "experiment",
            RelationshipTarget("conductance"),
            budget=budget,
        )
        assert not result.exhausted
        assert result.is_partial
        assert result.truncation_reason == TruncationReason.NODES
        assert result.stats.budget_trips == 1
        assert result.stats.recursive_calls <= 50
        assert "[partial: nodes]" in str(result)

    def test_partial_paths_are_genuine_completions(self, cupid_compiled):
        budget = Budget(max_nodes=200, partial_ok=True)
        partial = _search(cupid_compiled).run(
            "experiment", RelationshipTarget("conductance"), budget=budget
        )
        for path in partial.paths:
            assert path.edges[-1].name == "conductance"
            assert path.is_acyclic

    def test_raise_on_trip_carries_best_so_far(self, cupid_compiled):
        budget = Budget(max_nodes=200)  # partial_ok=False
        with pytest.raises(BudgetExceededError) as excinfo:
            _search(cupid_compiled).run(
                "experiment",
                RelationshipTarget("conductance"),
                budget=budget,
            )
        error = excinfo.value
        assert error.reason == TruncationReason.NODES
        assert error.partial is not None
        assert not error.partial.exhausted

    def test_deadline_trip_on_virtual_clock(self, cupid_compiled):
        clock = FakeClock()
        budget = Budget(
            max_seconds=0.5,
            clock=clock,
            check_interval=1,
            partial_ok=True,
        )
        # Injected latency advances the virtual clock on every node
        # expansion, inside the search loop.
        plan = FaultPlan(edge_latency=0.010, clock=clock)
        with inject(cupid_compiled, plan):
            search = cupid_compiled.searcher(e=1)
            result = search.run(
                "experiment", RelationshipTarget("conductance"), budget=budget
            )
        assert result.truncation_reason == TruncationReason.DEADLINE

    def test_unbudgeted_run_is_unaffected(self, cupid_compiled):
        result = _search(cupid_compiled).run(
            "experiment", RelationshipTarget("conductance")
        )
        assert result.exhausted
        assert result.truncation_reason is None
        assert result.stats.budget_trips == 0

    def test_trip_increments_metrics_counter(self, cupid_compiled):
        registry = MetricsRegistry()
        with use_metrics(registry):
            _search(cupid_compiled).run(
                "experiment",
                RelationshipTarget("conductance"),
                budget=Budget(max_nodes=50, partial_ok=True),
            )
        assert registry.counter("budget.trips").value == 1.0


class TestCacheInvariant:
    def test_partial_results_never_enter_the_cache(self, cupid):
        compiled = CompiledSchema(cupid)
        engine = Disambiguator(compiled, e=1)
        result = engine.complete(
            "experiment ~ conductance",
            budget=Budget(max_nodes=50, partial_ok=True),
        )
        assert result.is_partial
        assert len(compiled.cache) == 0

    def test_cache_put_rejects_partials_as_backstop(self, cupid_compiled):
        partial = _search(cupid_compiled).run(
            "experiment",
            RelationshipTarget("conductance"),
            budget=Budget(max_nodes=50, partial_ok=True),
        )
        with pytest.raises(ValueError, match="refusing to cache"):
            cupid_compiled.cache.put(("poison",), partial)
        assert len(cupid_compiled.cache) == 0

    def test_ungoverned_rerun_after_partial_is_exhaustive_and_cached(
        self, cupid
    ):
        compiled = CompiledSchema(cupid)
        engine = Disambiguator(compiled, e=1)
        engine.complete(
            "experiment ~ conductance",
            budget=Budget(max_nodes=50, partial_ok=True),
        )
        full = engine.complete("experiment ~ conductance")
        assert full.exhausted
        # The exhaustive result is cached; a warm hit returns the very
        # same frozen object (byte-identical results).
        assert engine.complete("experiment ~ conductance") is full


class TestEngineLadder:
    def test_tripped_high_e_degrades_to_lower_e(self, cupid):
        compiled = CompiledSchema(cupid)
        engine = Disambiguator(compiled, e=1)
        baseline = engine.complete("experiment ~ conductance")
        e1_calls = baseline.stats.recursive_calls
        compiled.cache.clear()

        # A node budget the E=1 rung fits but E=3 cannot.
        registry = MetricsRegistry()
        ladder_engine = Disambiguator(compiled, e=3)
        with use_metrics(registry):
            result = ladder_engine.complete(
                "experiment ~ conductance",
                budget=Budget(max_nodes=e1_calls + 50, partial_ok=True),
            )
        assert not result.exhausted
        assert result.truncation_reason == TruncationReason.degraded(1)
        assert result.paths == baseline.paths
        assert registry.counter("budget.degrades").value >= 1.0
        assert len(compiled.cache) == 0  # degraded answers are partial

    def test_every_rung_tripped_raises_by_default(self, cupid):
        compiled = CompiledSchema(cupid)
        engine = Disambiguator(compiled, e=3)
        with pytest.raises(BudgetExceededError) as excinfo:
            engine.complete(
                "experiment ~ conductance", budget=Budget(max_nodes=30)
            )
        assert excinfo.value.partial is not None
        assert len(compiled.cache) == 0

    def test_every_rung_tripped_partial_ok_returns_flagged(self, cupid):
        compiled = CompiledSchema(cupid)
        engine = Disambiguator(compiled, e=3)
        result = engine.complete(
            "experiment ~ conductance",
            budget=Budget(max_nodes=30, partial_ok=True),
        )
        assert result.is_partial
        assert result.truncation_reason in TruncationReason.ALL

    def test_engine_default_budget_governs_every_call(self, cupid):
        compiled = CompiledSchema(cupid)
        engine = Disambiguator(
            compiled, e=1, budget=Budget(max_nodes=50, partial_ok=True)
        )
        assert engine.complete("experiment ~ conductance").is_partial

    def test_ambient_budget_governs_the_engine(self, cupid):
        compiled = CompiledSchema(cupid)
        engine = Disambiguator(compiled, e=1)
        with use_budget(Budget(max_nodes=50, partial_ok=True)):
            assert engine.complete("experiment ~ conductance").is_partial
        assert engine.complete("experiment ~ conductance").exhausted

    def test_warm_hits_are_served_under_any_budget(self, cupid):
        compiled = CompiledSchema(cupid)
        engine = Disambiguator(compiled, e=1)
        cold = engine.complete("experiment ~ conductance")
        # Even a hopeless budget is irrelevant for a warm hit — the
        # cache only holds exhaustive results.
        warm = engine.complete(
            "experiment ~ conductance", budget=Budget(max_nodes=1)
        )
        assert warm is cold


class TestGeneralExpressions:
    def test_trip_in_final_segment_keeps_candidates(self, university):
        compiled = CompiledSchema(university)
        expression = parse_path_expression("ta ~ name")
        result = complete_general(
            compiled,
            expression,
            budget=Budget(max_nodes=5, partial_ok=True),
        )
        assert not result.exhausted
        assert result.truncation_reason in TruncationReason.ALL

    def test_trip_raises_without_partial_ok(self, cupid):
        compiled = CompiledSchema(cupid)
        expression = parse_path_expression("experiment ~ conductance")
        with pytest.raises(BudgetExceededError):
            complete_general(
                compiled, expression, budget=Budget(max_nodes=30)
            )

    def test_unbudgeted_general_completion_unchanged(self, university):
        compiled = CompiledSchema(university)
        expression = parse_path_expression("ta ~ name")
        result = complete_general(compiled, expression)
        assert result.exhausted
        assert result.paths


#: Virtual latency per node expansion for the acceptance scenario: a
#: 50 ms deadline then trips after 25 expansions at every rung of the
#: degradation ladder, where the real search finishes in a few ms.
ACCEPTANCE_LATENCY = 0.002


def _virtual_deadline(clock, partial_ok=False):
    """The scenario's 50 ms deadline, read on ``clock``."""
    return dataclasses.replace(
        Budget.from_millis(50, partial_ok=partial_ok), clock=clock
    )


class TestAcceptanceCriterion:
    def test_cupid_e3_with_50ms_deadline_returns_quickly_flagged(self, cupid):
        """The resilience acceptance scenario: a CUPID E=3 completion
        under a 50ms deadline must come back promptly as a flagged
        partial (or a degraded answer) instead of running multi-second.

        The search is slowed by injected latency on a virtual clock, so
        the deadline trips at every rung however fast the real search
        is."""
        import time

        compiled = CompiledSchema(cupid)
        clock = FakeClock()
        plan = FaultPlan(edge_latency=ACCEPTANCE_LATENCY, clock=clock)
        with inject(compiled, plan):
            engine = Disambiguator(compiled, e=3)
            started = time.perf_counter()
            result = engine.complete(
                "experiment ~ conductance",
                budget=_virtual_deadline(clock, partial_ok=True),
            )
            elapsed = time.perf_counter() - started
        assert not result.exhausted
        assert result.truncation_reason is not None
        # Ladder retries re-arm the deadline, so allow a few rungs plus
        # scheduling slack — but nowhere near an ungoverned E=3 run.
        assert elapsed < 2.0
        assert len(compiled.cache) == 0

    def test_cupid_e3_with_50ms_deadline_raises_with_payload(self, cupid):
        compiled = CompiledSchema(cupid)
        clock = FakeClock()
        plan = FaultPlan(edge_latency=ACCEPTANCE_LATENCY, clock=clock)
        with inject(compiled, plan):
            engine = Disambiguator(compiled, e=3)
            try:
                result = engine.complete(
                    "experiment ~ conductance",
                    budget=_virtual_deadline(clock),
                )
            except BudgetExceededError as error:
                assert error.partial is not None
                assert not error.partial.exhausted
            else:
                # The ladder may still land an exhaustive lower-E answer
                # in time; then the result must carry the degraded flag.
                assert result.truncation_reason is not None
