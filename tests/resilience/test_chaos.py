"""Chaos suite: seeded fault storms against the whole pipeline.

Each scenario drives real completions through an artifact whose graph,
cache, or clock misbehaves on a deterministic schedule, and asserts the
resilience contract:

* typed errors only — injected faults surface as ``ReproError``
  subclasses, never raw exceptions;
* the completion cache never holds a non-exhausted result, no matter
  how the run was interrupted;
* the interactive session and the experiment harness keep going.

A search draws its faults inside the search loop
(:func:`repro.core.kernel.run_flat`), through the budget meter it
checks on every expansion; :class:`TestFaultsFireInTheSearchLoop`
replays each scenario's plan and checks where every draw happened.
"""

import sys
import traceback

import pytest

from repro.core import kernel
from repro.core.compiled import CompiledSchema
from repro.core.completion import CompletionSearch
from repro.core.engine import Disambiguator
from repro.errors import InjectedFaultError, ReproError
from repro.experiments.harness import run_workload
from repro.experiments.workload import build_cupid_workload
from repro.query.session import CompletionSession
from repro.resilience.budget import Budget, use_budget
from repro.resilience.faults import FakeClock, FaultPlan, inject

SEEDS = (0, 1, 2, 7, 1994)


def _assert_cache_is_clean(compiled):
    """The hard invariant: every cached value is exhausted."""
    cache = compiled.cache
    data = getattr(cache, "_cache", cache)._data  # unwrap FaultyCache
    for value in data.values():
        assert value.exhausted, value.truncation_reason


class TestChaosCompletions:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_edge_faults_surface_as_typed_errors(self, university, seed):
        compiled = CompiledSchema(university)
        plan = FaultPlan(seed=seed, edge_fail_rate=0.2)
        survived = failed = 0
        with inject(compiled, plan):
            engine = Disambiguator(compiled)
            for _ in range(20):
                try:
                    result = engine.complete("ta ~ name")
                    assert result.exhausted
                    survived += 1
                except ReproError:
                    failed += 1
        assert survived + failed == 20
        _assert_cache_is_clean(compiled)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_cache_faults_never_change_answers(self, university, seed):
        compiled = CompiledSchema(university)
        reference = Disambiguator(compiled).complete("ta ~ name")
        compiled.cache.clear()
        plan = FaultPlan(
            seed=seed, cache_miss_rate=0.5, cache_drop_rate=0.5
        )
        with inject(compiled, plan):
            engine = Disambiguator(compiled)
            for _ in range(10):
                result = engine.complete("ta ~ name")
                # A cache that forgets degrades speed, never answers.
                assert result.paths == reference.paths
            _assert_cache_is_clean(compiled)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_budget_storms_never_poison_the_cache(self, cupid, seed):
        """Random tiny budgets over a real workload: whatever trips,
        the cache only ever accumulates exhaustive results."""
        import random

        rng = random.Random(seed)
        compiled = CompiledSchema(cupid)
        engine = Disambiguator(compiled, e=2)
        queries = [q.text for q in build_cupid_workload()]
        for _ in range(15):
            budget = Budget(
                max_nodes=rng.randrange(10, 2000), partial_ok=True
            )
            result = engine.complete(rng.choice(queries), budget=budget)
            if result.is_partial:
                assert result.truncation_reason is not None
            _assert_cache_is_clean(compiled)

    def test_deadline_chaos_on_virtual_clock(self, university):
        """Injected latency against a virtual deadline: deterministic
        deadline trips without real sleeping."""
        clock = FakeClock()
        compiled = CompiledSchema(university)
        plan = FaultPlan(seed=3, edge_latency=0.02, clock=clock)
        with inject(compiled, plan):
            engine = Disambiguator(compiled)
            result = engine.complete(
                "ta ~ name",
                budget=Budget(
                    max_seconds=0.05,
                    clock=clock,
                    check_interval=1,
                    partial_ok=True,
                ),
            )
        assert result.is_partial
        assert result.truncation_reason == "deadline"
        _assert_cache_is_clean(compiled)


class TestChaosSession:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_session_survives_fault_storm(self, university, seed):
        from repro.model.instances import Database

        database = Database(university)
        compiled = CompiledSchema(database.schema)
        plan = FaultPlan(seed=seed, edge_fail_rate=0.3)
        with inject(compiled, plan):
            session = CompletionSession(database, compiled=compiled)
            for _ in range(10):
                interaction = session.ask("ta ~ name")
                # Either a normal round or a message-carrying failure —
                # never an escaped exception.
                assert interaction.input_text == "ta ~ name"
                if interaction.message.startswith("error:"):
                    assert not interaction.approved
        assert len(session.history) == 10
        _assert_cache_is_clean(compiled)


class TestChaosHarness:
    @pytest.mark.parametrize("seed", SEEDS[:3])
    def test_workload_continues_past_faults(self, cupid, seed):
        compiled = CompiledSchema(cupid)
        plan = FaultPlan(seed=seed, edge_fail_rate=0.05)
        with inject(compiled, plan):
            outcomes = run_workload(
                cupid,
                build_cupid_workload(),
                e=1,
                compiled=compiled,
                continue_on_error=True,
                retries=1,
            )
        assert len(outcomes) == len(build_cupid_workload())
        for outcome in outcomes:
            if outcome.failed:
                assert "Error" in outcome.error
        _assert_cache_is_clean(compiled)

    def test_workload_under_ambient_budget_completes(self, cupid):
        compiled = CompiledSchema(cupid)
        with use_budget(Budget(max_nodes=500, partial_ok=True)):
            outcomes = run_workload(
                cupid,
                build_cupid_workload(),
                e=1,
                compiled=compiled,
                continue_on_error=True,
            )
        assert len(outcomes) == len(build_cupid_workload())
        _assert_cache_is_clean(compiled)


def _running(code) -> bool:
    """True when a frame of ``code`` is on the caller's stack."""
    frame = sys._getframe(1)
    while frame is not None:
        if frame.f_code is code:
            return True
        frame = frame.f_back
    return False


def _record_draws(plan):
    """Log, per adjacency-fault draw, whether it happened inside
    ``run_flat`` and whether inside a search at all."""
    draws = []
    draw = plan.should_fail_edge

    def recorded():
        draws.append(
            (
                _running(kernel.run_flat.__code__),
                _running(CompletionSearch.run.__code__),
            )
        )
        return draw()

    plan.should_fail_edge = recorded
    return draws


#: ``(scenario, schema fixture, plan, queries)`` — the plans of the
#: chaos scenarios in this package and in ``tests/serve``.
SCENARIOS = [
    ("edge-faults", "university", dict(edge_fail_rate=0.2), ["ta ~ name"]),
    ("session-storm", "university", dict(edge_fail_rate=0.3), ["ta ~ name"]),
    (
        "harness",
        "cupid",
        dict(edge_fail_rate=0.05),
        ["experiment ~ conductance", "crop ~ depth"],
    ),
    (
        "batch-storm",
        "university",
        dict(edge_fail_rate=0.3, cache_miss_rate=0.5, cache_drop_rate=0.5),
        ["ta ~ name", "student.take.teacher", "student ~ dept"],
    ),
    (
        "serve-storm",
        "university",
        dict(edge_fail_rate=0.1, cache_miss_rate=0.3, cache_drop_rate=0.3),
        ["ta ~ name", "teacher ~ name"],
    ),
    ("flaky-prewarm", "university", dict(edge_fail_rate=0.01), ["ta ~ name"]),
    ("total-failure", "university", dict(edge_fail_rate=1.0), ["ta ~ name"]),
]


class TestFaultsFireInTheSearchLoop:
    @pytest.mark.parametrize("seed", SEEDS[:3])
    @pytest.mark.parametrize(
        "scenario, schema_name, rates, queries",
        SCENARIOS,
        ids=[scenario[0] for scenario in SCENARIOS],
    )
    def test_search_faults_fire_inside_run_flat(
        self, request, seed, scenario, schema_name, rates, queries
    ):
        compiled = CompiledSchema(request.getfixturevalue(schema_name))
        plan = FaultPlan(seed=seed, **rates)
        draws = _record_draws(plan)
        faults = []
        with inject(compiled, plan):
            engine = Disambiguator(compiled)
            for _ in range(5):
                for query in queries:
                    try:
                        engine.complete(query)
                    except InjectedFaultError as error:
                        faults.append(error)
        # Every draw a search made came from inside the search loop;
        # draws outside any search are the adjacency reads of complete
        # expressions.
        assert draws and any(in_loop for in_loop, _ in draws)
        assert all(in_loop for in_loop, in_search in draws if in_search)
        # And every fault a search raised unwound out of run_flat.
        for error in faults:
            frames = [frame for frame, _ in traceback.walk_tb(error.__traceback__)]
            in_search = any(
                frame.f_code is CompletionSearch.run.__code__ for frame in frames
            )
            in_loop = any(
                frame.f_code is kernel.run_flat.__code__ for frame in frames
            )
            assert in_loop or not in_search
        # Each injected adjacency fault surfaced as one typed error.
        assert len(faults) == plan.injected.count("graph.edges_from")
        if rates["edge_fail_rate"] == 1.0:
            assert faults
        _assert_cache_is_clean(compiled)

    def test_virtual_latency_advances_inside_run_flat(self, university):
        """The deadline scenario's latency is charged per expansion."""
        clock = FakeClock()
        compiled = CompiledSchema(university)
        plan = FaultPlan(seed=3, edge_latency=0.02, clock=clock)
        draws = _record_draws(plan)
        with inject(compiled, plan):
            result = Disambiguator(compiled).complete(
                "ta ~ name",
                budget=Budget(
                    max_seconds=0.05,
                    clock=clock,
                    check_interval=1,
                    partial_ok=True,
                ),
            )
        assert result.truncation_reason == "deadline"
        assert draws and all(in_loop for in_loop, _ in draws)
        assert clock() == pytest.approx(0.02 * len(draws))
