"""Tests for TraversalStats aggregation and timing conventions."""

import dataclasses

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core.stats import TraversalStats


class TestAdd:
    def test_per_run_counters_sum(self):
        total = TraversalStats(recursive_calls=3, edges_considered=7)
        total.add(TraversalStats(recursive_calls=5, edges_considered=1))
        assert total.recursive_calls == 8
        assert total.edges_considered == 8

    def test_shared_compile_seconds_is_not_double_counted(self):
        # Regression: every member of a batch over one compiled artifact
        # carries the same compile_seconds; add() must max, not sum.
        total = TraversalStats(compile_seconds=5.0)
        total.add(TraversalStats(compile_seconds=5.0))
        assert total.compile_seconds == 5.0

    def test_shared_field_takes_the_larger_artifact_cost(self):
        total = TraversalStats(compile_seconds=2.0)
        total.add(TraversalStats(compile_seconds=5.0))
        assert total.compile_seconds == 5.0

    def test_elapsed_stays_additive(self):
        total = TraversalStats(elapsed_seconds=0.25)
        total.add(TraversalStats(elapsed_seconds=0.75))
        assert total.elapsed_seconds == 1.0

    def test_batch_of_many_runs(self):
        total = TraversalStats()
        for _ in range(10):
            total.add(
                TraversalStats(recursive_calls=4, compile_seconds=0.125)
            )
        assert total.recursive_calls == 40
        assert total.compile_seconds == 0.125


class TestSecondsPerCall:
    def test_average_over_calls(self):
        stats = TraversalStats(recursive_calls=4, elapsed_seconds=2.0)
        assert stats.seconds_per_call == 0.5

    def test_zero_when_no_calls(self):
        # Documented convention: a validated complete expression or a
        # pure cache hit does no traversal, so the per-call average is
        # defined as 0.0 rather than a ZeroDivisionError.
        stats = TraversalStats(recursive_calls=0, elapsed_seconds=0.5)
        assert stats.seconds_per_call == 0.0

    def test_elapsed_still_reported_separately(self):
        stats = TraversalStats(recursive_calls=0, elapsed_seconds=0.5)
        as_dict = stats.as_dict()
        assert as_dict["seconds_per_call"] == 0.0
        assert as_dict["elapsed_seconds"] == 0.5
        assert "time=500.00ms" in str(stats)


class TestRecordTo:
    def test_record_to_delegates_to_registry(self):
        class Probe:
            def __init__(self):
                self.seen = []

            def record_completion(self, stats, cached=None):
                self.seen.append(stats)

        probe = Probe()
        stats = TraversalStats(recursive_calls=2)
        stats.record_to(probe)
        assert probe.seen == [stats]


def _stats_strategy():
    """Every field drawn independently: counters as non-negative ints,
    times as any finite non-negative float."""
    fields = {}
    for field in dataclasses.fields(TraversalStats):
        if field.type in ("int", int):
            fields[field.name] = st.integers(min_value=0, max_value=10**12)
        else:
            fields[field.name] = st.floats(
                min_value=0.0, max_value=1e9, allow_nan=False
            )
    return st.fixed_dictionaries(fields).map(lambda kw: TraversalStats(**kw))


class TestAsDict:
    @given(_stats_strategy())
    @settings(max_examples=200, deadline=None)
    def test_equals_the_dataclasses_asdict_view(self, stats):
        expected = dataclasses.asdict(stats) | {
            "seconds_per_call": stats.seconds_per_call
        }
        view = stats.as_dict()
        assert view == expected
        assert list(view) == list(expected)
        assert [type(value) for value in view.values()] == [
            type(value) for value in expected.values()
        ]

    def test_view_is_a_fresh_dict(self):
        stats = TraversalStats(recursive_calls=3)
        view = stats.as_dict()
        view["recursive_calls"] = 99
        assert stats.recursive_calls == 3
        assert stats.as_dict() is not stats.as_dict()
