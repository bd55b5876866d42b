"""Unit tests for the deterministic fault-injection harness."""

import pytest

from repro.core.compiled import CompiledSchema, CompletionCache
from repro.errors import InjectedFaultError, ResilienceError
from repro.resilience.budget import Budget
from repro.resilience.faults import (
    FakeClock,
    FaultPlan,
    FaultyCache,
    FaultyGraph,
    FaultyMeter,
    inject,
)


class TestFakeClock:
    def test_starts_where_told_and_advances(self):
        clock = FakeClock(start=5.0)
        assert clock() == 5.0
        assert clock.advance(1.5) == 6.5
        assert clock() == 6.5

    def test_rejects_going_backward(self):
        with pytest.raises(ValueError):
            FakeClock().advance(-0.1)


class TestFaultPlan:
    def test_rates_are_validated(self):
        with pytest.raises(ValueError):
            FaultPlan(edge_fail_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(cache_miss_rate=-0.1)
        with pytest.raises(ValueError):
            FaultPlan(edge_latency=-1.0)

    def test_same_seed_same_schedule(self):
        plan_a = FaultPlan(seed=42, edge_fail_rate=0.3)
        plan_b = FaultPlan(seed=42, edge_fail_rate=0.3)
        schedule_a = [plan_a.should_fail_edge() for _ in range(200)]
        schedule_b = [plan_b.should_fail_edge() for _ in range(200)]
        assert schedule_a == schedule_b
        assert any(schedule_a)  # at 30% something must fire in 200 draws

    def test_different_seeds_differ(self):
        plan_a = FaultPlan(seed=1, edge_fail_rate=0.5)
        plan_b = FaultPlan(seed=2, edge_fail_rate=0.5)
        assert [plan_a.should_fail_edge() for _ in range(100)] != [
            plan_b.should_fail_edge() for _ in range(100)
        ]

    def test_armed_after_delays_injection(self):
        plan = FaultPlan(seed=0, edge_fail_rate=1.0, armed_after=3)
        assert [plan.should_fail_edge() for _ in range(5)] == [
            False,
            False,
            False,
            True,
            True,
        ]

    def test_latency_drives_the_clock(self):
        clock = FakeClock()
        plan = FaultPlan(seed=0, edge_latency=0.25, clock=clock)
        plan.should_fail_edge()
        plan.should_fail_edge()
        assert clock() == pytest.approx(0.5)

    def test_injections_are_recorded(self):
        plan = FaultPlan(seed=0, edge_fail_rate=1.0, cache_miss_rate=1.0)
        plan.should_fail_edge()
        plan.should_miss_cache()
        assert plan.injected == ["graph.edges_from", "cache.get"]
        assert plan.injection_count == 2


class TestFaultyGraph:
    def test_raises_injected_fault_on_schedule(self, university_graph):
        plan = FaultPlan(seed=0, edge_fail_rate=1.0)
        graph = FaultyGraph(university_graph, plan)
        with pytest.raises(InjectedFaultError) as excinfo:
            graph.edges_from("ta")
        assert excinfo.value.site == "graph.edges_from"
        assert isinstance(excinfo.value, ResilienceError)

    def test_delegates_everything_else(self, university_graph):
        graph = FaultyGraph(university_graph, FaultPlan(seed=0))
        assert graph.edges_from("ta") == university_graph.edges_from("ta")
        assert graph.schema is university_graph.schema


class TestFaultyMeter:
    def test_raises_injected_fault_on_schedule(self):
        plan = FaultPlan(seed=0, edge_fail_rate=1.0)
        meter = FaultyMeter(plan, None)
        with pytest.raises(InjectedFaultError) as excinfo:
            meter.tripped(1, 0, 0)
        assert excinfo.value.site == "graph.edges_from"
        assert isinstance(excinfo.value, ResilienceError)

    def test_delegates_everything_else(self):
        inner = Budget(max_nodes=3).start()
        meter = FaultyMeter(FaultPlan(seed=0), inner)
        assert meter.tripped(1, 0, 0) is None
        assert meter.tripped(3, 0, 0) == "nodes"
        assert meter.budget is inner.budget
        assert meter.reason == "nodes"
        # An ungoverned search's meter only draws the plan.
        assert FaultyMeter(FaultPlan(seed=0), None).tripped(10**6, 0, 0) is None


class TestFaultyCache:
    def test_forced_misses_and_dropped_puts(self):
        plan = FaultPlan(seed=0, cache_miss_rate=1.0, cache_drop_rate=1.0)
        cache = FaultyCache(CompletionCache(maxsize=4), plan)
        cache.put(("k",), "sentinel")
        assert len(cache) == 0  # put dropped
        assert cache.get(("k",)) is None  # and forced miss anyway

    def test_clean_plan_is_transparent(self):
        cache = FaultyCache(CompletionCache(maxsize=4), FaultPlan(seed=0))
        cache.put(("k",), "sentinel")
        assert cache.get(("k",)) == "sentinel"


class TestInject:
    def test_inject_rewires_and_restore_undoes(self, university):
        compiled = CompiledSchema(university)
        graph, cache = compiled.graph, compiled.cache
        search_class = compiled.search_class
        with inject(compiled, FaultPlan(seed=0)) as plan:
            assert isinstance(compiled.graph, FaultyGraph)
            assert isinstance(compiled.cache, FaultyCache)
            assert issubclass(compiled.search_class, search_class)
            assert compiled.search_class is not search_class
            assert plan.injection_count == 0
        assert compiled.graph is graph
        assert compiled.cache is cache
        assert compiled.search_class is search_class

    def test_searchers_built_under_injection_see_faults(self, university):
        from repro.core.engine import Disambiguator
        from repro.errors import ReproError

        compiled = CompiledSchema(university)
        with inject(compiled, FaultPlan(seed=0, edge_fail_rate=1.0)):
            engine = Disambiguator(compiled)
            with pytest.raises(ReproError):
                engine.complete("ta ~ name")
        # After restore a fresh engine completes normally.
        engine = Disambiguator(compiled)
        assert engine.complete("ta ~ name").paths
