"""Tests for the tail-based slow-query log (repro.obs.slowlog)."""

import io
import json
import time

import pytest

from repro.core.compiled import CompiledSchema
from repro.core.engine import Disambiguator
from repro.errors import BudgetExceededError
from repro.obs.schema import SchemaValidationError, validate_slowlog_entries
from repro.obs.slowlog import (
    SLOWLOG_VERSION,
    NullSlowQueryLog,
    SlowQueryLog,
    get_slowlog,
    use_slowlog,
)
from repro.obs.tracer import RecordingTracer, use_tracer
from repro.resilience.budget import Budget
from repro.schemas.cupid import build_cupid_schema
from repro.schemas.university import build_university_schema


def _busy(seconds: float) -> None:
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        pass


class TestRetentionPolicy:
    def test_mixed_workload_retains_only_slow_or_topk(self):
        # Threshold 5ms, top-1: of a mixed fast/slow synthetic workload
        # only the over-threshold queries (plus the single slowest) may
        # survive; the fast bulk is dropped.
        log = SlowQueryLog(threshold_ms=5.0, top_k=1)
        with use_slowlog(log):
            for index in range(20):
                with log.observe("complete", f"fast-{index}"):
                    pass
            for index in range(3):
                with log.observe("complete", f"slow-{index}"):
                    _busy(0.008)
        assert log.observed == 23
        entries = log.entries()
        assert 0 < len(entries) <= 4
        assert all(entry.query.startswith("slow-") for entry in entries)
        assert all(entry.elapsed_ms >= 5.0 for entry in entries)
        threshold_kept = [
            entry for entry in entries if entry.retained == "threshold"
        ]
        assert len(threshold_kept) == 3

    def test_topk_keeps_k_slowest_without_threshold(self):
        log = SlowQueryLog(threshold_ms=None, top_k=2)
        durations = [0.001, 0.012, 0.002, 0.009, 0.0005]
        with use_slowlog(log):
            for index, duration in enumerate(durations):
                with log.observe("complete", f"q{index}"):
                    _busy(duration)
        queries = {entry.query for entry in log.entries()}
        assert queries == {"q1", "q3"}  # the two slowest

    def test_capacity_bounds_threshold_entries(self):
        log = SlowQueryLog(threshold_ms=0.0, top_k=0, capacity=4)
        with use_slowlog(log):
            for index in range(10):
                with log.observe("complete", f"q{index}"):
                    pass
        entries = log.entries()
        assert len(entries) == 4
        assert [entry.query for entry in entries] == ["q6", "q7", "q8", "q9"]

    def test_nested_observations_are_owned_by_the_outermost(self):
        log = SlowQueryLog(threshold_ms=0.0, top_k=10)
        with use_slowlog(log):
            with log.observe("ask", "outer"):
                with log.observe("complete", "inner"):
                    pass
        entries = log.entries()
        assert [entry.query for entry in entries] == ["outer"]
        assert log.observed == 1


class TestEngineIntegration:
    def test_engine_completion_is_observed_with_spans_and_stats(self):
        log = SlowQueryLog(threshold_ms=0.0)
        # A fresh (non-memoized) artifact so the completion cache is
        # cold and the span tree shows a full traverse, regardless of
        # what earlier tests completed.  Pruning is pinned, so the
        # stamped-mode assertion below reads the mode it set.
        engine = Disambiguator(
            CompiledSchema(build_university_schema()), pruning="closure"
        )
        with use_slowlog(log):
            engine.complete("ta ~ name")
        (entry,) = log.entries()
        assert entry.kind == "complete"
        assert entry.query == "ta ~ name"
        assert entry.e == 1
        assert entry.exhausted is True
        assert entry.truncation_reason is None
        assert entry.stats is not None and entry.stats["recursive_calls"] > 0
        assert entry.attrs["paths"] == 2
        # The engine stamps its own search mode on the entry (the v2
        # bugfix: a slow query is only triageable knowing which loop
        # was live).
        assert entry.pruning == engine.pruning == "closure"
        # The private tracer recorded the whole completion span tree.
        names = {record["name"] for record in entry.spans}
        assert "complete" in names and "traverse" in names

    def test_reference_mode_engine_is_recorded_as_such(self):
        log = SlowQueryLog(threshold_ms=0.0)
        engine = Disambiguator(
            CompiledSchema(build_university_schema()), pruning="none"
        )
        with use_slowlog(log):
            engine.complete("ta ~ name")
        (entry,) = log.entries()
        assert entry.pruning == "none"

    def test_ambient_tracer_is_reused_not_replaced(self):
        log = SlowQueryLog(threshold_ms=0.0)
        tracer = RecordingTracer()
        engine = Disambiguator(build_university_schema())
        with use_tracer(tracer), use_slowlog(log):
            engine.complete("ta ~ name")
        (entry,) = log.entries()
        assert entry.spans  # sliced from the ambient tracer's roots
        assert tracer.roots  # and the ambient tracer kept them too

    def test_budget_tripped_query_records_truncation(self):
        # Acceptance: a budget-tripped query's entry carries
        # exhausted=false and the truncation reason.
        log = SlowQueryLog(threshold_ms=0.0)
        engine = Disambiguator(CompiledSchema(build_cupid_schema()), e=1)
        with use_slowlog(log):
            with pytest.raises(BudgetExceededError):
                engine.complete(
                    "experiment ~ conductance", budget=Budget(max_nodes=5)
                )
        (entry,) = log.entries()
        assert entry.exhausted is False
        assert entry.truncation_reason == "nodes"
        assert entry.error is not None and "BudgetExceeded" in entry.error

    def test_partial_ok_result_records_truncation_without_error(self):
        log = SlowQueryLog(threshold_ms=0.0)
        engine = Disambiguator(CompiledSchema(build_cupid_schema()), e=1)
        with use_slowlog(log):
            result = engine.complete(
                "experiment ~ conductance",
                budget=Budget(max_nodes=5, partial_ok=True),
            )
        assert result.is_partial
        (entry,) = log.entries()
        assert entry.exhausted is False
        assert entry.truncation_reason == "nodes"
        assert entry.error is None


class TestExport:
    def test_jsonl_validates_against_checked_in_schema(self):
        log = SlowQueryLog(threshold_ms=0.0)
        # Pinned pruning: the exported records' stamped mode is
        # asserted literally below.
        engine = Disambiguator(build_university_schema(), pruning="closure")
        with use_slowlog(log):
            engine.complete("ta ~ name")
            engine.complete("student ~ name")
        buffer = io.StringIO()
        count = log.write_jsonl(buffer)
        records = [
            json.loads(line) for line in buffer.getvalue().splitlines()
        ]
        assert len(records) == count == 2
        validate_slowlog_entries(records)
        assert all(
            record["version"] == SLOWLOG_VERSION for record in records
        )
        assert all(record["pruning"] == "closure" for record in records)

    def test_version_1_records_are_rejected(self):
        """The schema bump is a gate, not a label: records from before
        the pruning/delta fields existed must fail validation."""
        log = SlowQueryLog(threshold_ms=0.0)
        engine = Disambiguator(build_university_schema())
        with use_slowlog(log):
            engine.complete("ta ~ name")
        (record,) = log.to_records()
        v1 = {
            key: value
            for key, value in record.items()
            if key not in ("version", "pruning", "delta")
        }
        with pytest.raises(SchemaValidationError):
            validate_slowlog_entries([v1])
        stale_version = dict(record, version=1)
        with pytest.raises(SchemaValidationError):
            validate_slowlog_entries([stale_version])

    def test_render_reports_retention_and_flags(self):
        log = SlowQueryLog(threshold_ms=0.0)
        engine = Disambiguator(CompiledSchema(build_cupid_schema()), e=1)
        with use_slowlog(log):
            with pytest.raises(BudgetExceededError):
                engine.complete(
                    "experiment ~ conductance", budget=Budget(max_nodes=5)
                )
        rendered = log.render()
        assert "1 retained of 1 observed" in rendered
        assert "partial:nodes" in rendered

    def test_empty_log_renders_placeholder(self):
        assert SlowQueryLog().render() == "slow-query log is empty"


class TestAmbientDefault:
    def test_default_is_noop(self):
        log = get_slowlog()
        assert isinstance(log, NullSlowQueryLog)
        assert not log.enabled
        with log.observe("complete", "q") as observation:
            observation.set(x=1)
            observation.record_result(None)
        assert log.entries() == [] and len(log) == 0
        assert log.render() == "slow-query log is off"

    def test_use_slowlog_scopes_installation(self):
        log = SlowQueryLog()
        with use_slowlog(log):
            assert get_slowlog() is log
        assert isinstance(get_slowlog(), NullSlowQueryLog)

    def test_noop_slowlog_overhead_under_5_percent(self):
        """The uninstalled slow log adds <5% to a CUPID E=1 completion.

        Same bounding strategy as the no-op tracer test: the engine
        consults the ambient slow log once per ``complete`` call, so we
        bound the per-consultation cost against a measured completion.
        """
        cupid = build_cupid_schema()
        compiled = CompiledSchema(cupid)
        engine = Disambiguator(compiled, e=1)
        runs = []
        for _ in range(3):
            fresh = Disambiguator(CompiledSchema(cupid), e=1)
            start = time.perf_counter()
            fresh.complete("experiment ~ conductance")
            runs.append(time.perf_counter() - start)
        completion_seconds = sorted(runs)[1]

        iterations = 20_000
        start = time.perf_counter()
        for _ in range(iterations):
            log = get_slowlog()
            if log.enabled:  # pragma: no cover - ambient default is off
                raise AssertionError
        per_check = (time.perf_counter() - start) / iterations
        checks_per_completion = 4  # complete + ask + fox + slack
        overhead = checks_per_completion * per_check
        assert overhead < 0.05 * completion_seconds, (
            f"{overhead * 1e6:.2f}us of slow-log checks vs "
            f"{completion_seconds * 1e3:.2f}ms completion"
        )
