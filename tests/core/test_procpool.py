"""The end-to-end batch contracts the process-pool backend was held to.

The process pool is gone: every batch runs sequentially on the calling
thread.  What the pool had to keep transparent still holds for the one
remaining path — results identical to single completions, the earliest
failing input raised, parse errors raised with their own type, no
truncated result cached, the flat kernel answering like the reference
loop, and a prewarm that completes each distinct expression once.  The
test and class names date from the pool.
"""

from __future__ import annotations

import pytest

from repro.core import compiled as compiled_mod
from repro.core.compiled import CompiledSchema
from repro.core.engine import Disambiguator
from repro.errors import PathSyntaxError, ReproError
from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.resilience.budget import Budget, use_budget
from repro.serve.tenants import Tenant, prewarm_tenant

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


class TestProcessBatchEndToEnd:
    def test_results_match_sequential_and_cache_is_adopted(
        self, university
    ):
        reference = _fresh_engine(university)
        expected = [_snapshot(reference.complete(q)) for q in QUERIES]

        engine = _fresh_engine(university)
        batch = engine.complete_batch(QUERIES)
        assert [_snapshot(r) for r in batch.results] == expected
        # The cache now holds every completion, so a rerun is served
        # entirely warm — no misses.
        with use_metrics(MetricsRegistry()) as metrics:
            again = engine.complete_batch(QUERIES)
            assert metrics.counter("cache.misses").value == 0
            assert metrics.counter("cache.hits").value == len(QUERIES)
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
                engine.complete_batch(inputs)
            assert "zzz_first_bad" in str(exc.value)
            assert "zzz_second_bad" not in str(exc.value)

    def test_parse_errors_never_reach_the_pool(self, university):
        """A syntactically invalid input raises PathSyntaxError, with
        its source context, when it is the earliest failing input."""
        engine = _fresh_engine(university)
        with pytest.raises(PathSyntaxError):
            engine.complete_batch(
                ["ta ~ name", "~~~nonsense~~~", "zzz_first_bad ~ nope"]
            )

    def test_truncated_worker_results_are_never_adopted(self, cupid):
        engine = _fresh_engine(cupid, e=2)
        budget = Budget(max_nodes=5, partial_ok=True)
        with use_budget(budget):
            batch = engine.complete_batch(
                ["experiment ~ conductance", "experiment ~ temperature"]
            )
        assert any(not r.exhausted for r in batch.results)
        # Exhausted results may be cached; truncated ones never are.
        cached = sum(r.exhausted for r in batch.results)
        assert len(engine.compiled.cache) == cached

    def test_flat_kernel_crosses_the_boundary(self, university):
        """A batch on the flat closure kernel returns the unpruned
        search's answers."""
        reference = _fresh_engine(university, pruning="none")
        expected = [_snapshot(reference.complete(q)) for q in QUERIES]
        engine = _fresh_engine(university, pruning="closure")
        batch = engine.complete_batch(QUERIES)
        assert [_snapshot(r) for r in batch.results] == expected


class TestPrewarm:
    def test_prewarm_dedupes_repeated_expressions(self, university):
        """A prewarm list with duplicates completes each distinct
        expression once."""
        compiled_mod.invalidate()
        tenant = Tenant("university", CompiledSchema(university))
        with use_metrics(MetricsRegistry()) as metrics:
            warmed = prewarm_tenant(
                tenant,
                ["ta ~ name", "ta ~ name", "student ~ dept", "ta ~ name"],
            )
            misses = metrics.counter("cache.misses").value
        assert warmed == 2
        assert len(tenant.compiled.cache) == 2
        assert misses == 2
