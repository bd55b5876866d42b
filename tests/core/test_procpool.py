"""The process-pool batch backend — hand-off protocol and fallbacks.

The contract: ``executor="process"`` is a *transparent* escalation of
``complete_batch``/``prewarm``.  Results, ordering, exception choice,
and cache hygiene are identical to the thread backend; whenever the
hand-off cannot carry the ambient state (live tracer/audit/slow-log, a
budget with a cancel signal or injected clock), the backend declines —
``worker_spec_for`` returns ``None`` and the caller silently falls back
to threads — rather than degrade those semantics.

The end-to-end tests here spin up real worker processes (the pool
prefers ``fork``, so start cost is milliseconds on Linux); they assert
correctness, not speed — the speedup contract lives in
``benchmarks/bench_kernel.py`` where it can be gated by core count.
"""

from __future__ import annotations

import pickle
import time

import pytest

from repro.core import compiled as compiled_mod
from repro.core.audit import SearchAuditLog, use_audit
from repro.core.compiled import CompiledSchema
from repro.core.engine import Disambiguator
from repro.core.parallel import prewarm
from repro.core.procpool import (
    EXECUTOR_ENV_VAR,
    EXECUTOR_MODES,
    WorkerSpec,
    process_batch,
    resolve_executor,
    worker_spec_for,
)
from repro.errors import PathSyntaxError, ReproError
from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.obs.slowlog import SlowQueryLog, use_slowlog
from repro.obs.tracer import RecordingTracer, use_tracer
from repro.resilience.budget import Budget, CancelSignal, use_budget
from repro.serve.config import ServeConfig

QUERIES = [
    "ta ~ name",
    "student.take.teacher",
    "student ~ dept",
    "teacher ~ name",
]


def _fresh_engine(schema, **kwargs):
    compiled_mod.invalidate()
    return Disambiguator(CompiledSchema(schema), **kwargs)


def _snapshot(result):
    return (
        tuple(str(path) for path in result.paths),
        tuple(str(label) for label in result.labels),
        result.exhausted,
        result.truncation_reason,
    )


class TestResolveExecutor:
    def test_explicit_env_and_default(self, monkeypatch):
        monkeypatch.delenv(EXECUTOR_ENV_VAR, raising=False)
        assert resolve_executor(None) == "thread"
        assert resolve_executor("process") == "process"
        monkeypatch.setenv(EXECUTOR_ENV_VAR, "process")
        assert resolve_executor(None) == "process"
        assert resolve_executor("thread") == "thread"

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="executor"):
            resolve_executor("greenlet")

    def test_serve_config_validates_executor(self):
        assert ServeConfig(executor="process").executor == "process"
        with pytest.raises(ValueError, match="executor"):
            ServeConfig(executor="fiber")


class TestWorkerSpec:
    def test_spec_is_picklable_and_rebuilds_the_budget(self, university):
        engine = _fresh_engine(university, e=2, max_depth=7)
        budget = Budget(
            max_seconds=1.5, max_nodes=100, partial_ok=True
        )
        spec = worker_spec_for(engine, budget)
        assert spec is not None
        clone = pickle.loads(pickle.dumps(spec))
        # Schemas compare by identity, not value; the scalar
        # configuration is what must survive the round-trip exactly.
        assert clone.e == spec.e
        assert clone.max_depth == spec.max_depth
        assert clone.pruning == spec.pruning
        assert clone.budget_limits == spec.budget_limits
        assert clone.schema.name == spec.schema.name
        rebuilt = clone.build_budget()
        assert rebuilt.max_seconds == 1.5
        assert rebuilt.max_nodes == 100
        assert rebuilt.partial_ok is True
        assert rebuilt.clock is time.monotonic
        assert worker_spec_for(engine, None).build_budget() is None

    def test_spec_captures_engine_configuration(self, university):
        engine = _fresh_engine(
            university, e=3, use_caution_sets=False, pruning="none"
        )
        spec = worker_spec_for(engine, None)
        assert spec.e == 3
        assert spec.use_caution_sets is False
        assert spec.pruning == "none"
        assert spec.pruning == engine.pruning

    def test_live_observability_declines_the_handoff(self, university):
        engine = _fresh_engine(university)
        assert worker_spec_for(engine, None) is not None
        with use_tracer(RecordingTracer()):
            assert worker_spec_for(engine, None) is None
        with use_audit(SearchAuditLog()):
            assert worker_spec_for(engine, None) is None
        with use_slowlog(SlowQueryLog(threshold_ms=0.0)):
            assert worker_spec_for(engine, None) is None
        assert worker_spec_for(engine, None) is not None

    def test_parent_bound_budget_state_declines_the_handoff(
        self, university
    ):
        engine = _fresh_engine(university)
        cancellable = Budget(max_nodes=10, cancel=CancelSignal())
        assert worker_spec_for(engine, cancellable) is None
        fake_clock = Budget(max_seconds=1.0, clock=lambda: 0.0)
        assert worker_spec_for(engine, fake_clock) is None

    def test_declined_handoff_is_counted_and_threads_still_serve(
        self, university
    ):
        """process_batch → None under a tracer; complete_batch then
        falls back to the thread backend and still answers."""
        engine = _fresh_engine(university)
        with use_metrics(MetricsRegistry()) as metrics:
            with use_tracer(RecordingTracer()):
                assert process_batch(engine, QUERIES, jobs=2, budget=None) is None
                batch = engine.complete_batch(
                    QUERIES, jobs=2, executor="process"
                )
            assert metrics.counter("parallel.process_fallbacks").value >= 1
        assert [r.exhausted for r in batch.results] == [True] * len(QUERIES)


class TestProcessBatchEndToEnd:
    def test_results_match_sequential_and_cache_is_adopted(
        self, university
    ):
        reference = _fresh_engine(university)
        expected = [_snapshot(reference.complete(q)) for q in QUERIES]

        engine = _fresh_engine(university)
        batch = engine.complete_batch(QUERIES, jobs=2, executor="process")
        assert [_snapshot(r) for r in batch.results] == expected
        # Adoption: the parent cache now holds every completion, so a
        # rerun is served entirely warm — no worker dispatch, no misses.
        with use_metrics(MetricsRegistry()) as metrics:
            again = engine.complete_batch(QUERIES, jobs=2, executor="process")
            assert metrics.counter("cache.misses").value == 0
            assert metrics.counter("cache.hits").value == len(
                QUERIES
            )
        assert [_snapshot(r) for r in again.results] == expected

    def test_earliest_failing_input_in_submission_order(self, university):
        engine = _fresh_engine(university)
        inputs = [
            "ta ~ name",
            "zzz_first_bad ~ nope",
            "student.take.teacher",
            "zzz_second_bad ~ nope",
        ]
        for _ in range(3):
            with pytest.raises(ReproError) as exc:
                engine.complete_batch(inputs, jobs=2, executor="process")
            assert "zzz_first_bad" in str(exc.value)
            assert "zzz_second_bad" not in str(exc.value)

    def test_parse_errors_never_reach_the_pool(self, university):
        """A syntactically invalid input fails in the parent with the
        full PathSyntaxError context (that type carries source spans and
        is deliberately not shipped across the pickle boundary)."""
        engine = _fresh_engine(university)
        with pytest.raises(PathSyntaxError):
            engine.complete_batch(
                ["ta ~ name", "~~~nonsense~~~"], jobs=2, executor="process"
            )

    def test_truncated_worker_results_are_never_adopted(self, cupid):
        engine = _fresh_engine(cupid, e=2)
        budget = Budget(max_nodes=5, partial_ok=True)
        with use_budget(budget):
            batch = engine.complete_batch(
                ["experiment ~ conductance", "experiment ~ temperature"],
                jobs=2,
                executor="process",
            )
        assert any(not r.exhausted for r in batch.results)
        # Exhausted results may be adopted; truncated ones never are.
        for _, value in engine.compiled.cache.entries():
            assert value.exhausted, value.truncation_reason

    def test_flat_kernel_crosses_the_boundary(self, university):
        """Process workers run the flat closure loop and return the
        reference loop's answers."""
        reference = _fresh_engine(university, pruning="none")
        expected = [_snapshot(reference.complete(q)) for q in QUERIES]
        engine = _fresh_engine(university, pruning="closure")
        batch = engine.complete_batch(QUERIES, jobs=2, executor="process")
        assert [_snapshot(r) for r in batch.results] == expected

    def test_env_knob_selects_the_process_backend(
        self, university, monkeypatch
    ):
        monkeypatch.setenv(EXECUTOR_ENV_VAR, "process")
        engine = _fresh_engine(university)
        batch = engine.complete_batch(QUERIES, jobs=2)
        assert [r.exhausted for r in batch.results] == [True] * len(QUERIES)
        assert len(engine.compiled.cache) == len(QUERIES)


class TestPrewarm:
    def test_prewarm_dedupes_repeated_expressions(self, university):
        """Satellite: a prewarm list with duplicates completes each
        distinct expression once — both backends."""
        for executor in EXECUTOR_MODES:
            engine = _fresh_engine(university)
            with use_metrics(MetricsRegistry()) as metrics:
                warmed = prewarm(
                    engine,
                    ["ta ~ name", "ta ~ name", "student ~ dept", "ta ~ name"],
                    jobs=2,
                    executor=executor,
                )
                misses = metrics.counter("cache.misses").value
            assert warmed == 2, executor
            assert len(engine.compiled.cache) == 2, executor
            # Thread backend: each unique expression computed exactly
            # once in-parent.  (Worker-side metrics stay in the worker,
            # so the process assertion is the cache shape above.)
            if executor == "thread":
                assert misses == 2

    def test_prewarm_process_warms_the_parent_cache(self, university):
        engine = _fresh_engine(university)
        warmed = prewarm(engine, QUERIES, jobs=2, executor="process")
        assert warmed == len(QUERIES)
        assert len(engine.compiled.cache) == len(QUERIES)
        # Everything is now a warm hit for the sequential path.
        with use_metrics(MetricsRegistry()) as metrics:
            for query in QUERIES:
                assert engine.complete(query).exhausted
            assert metrics.counter("cache.misses").value == 0
