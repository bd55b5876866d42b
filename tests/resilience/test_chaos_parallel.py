"""Chaos for batch completion and prewarm.

:meth:`Disambiguator.complete_batch` and
:func:`repro.serve.tenants.prewarm_tenant` run many completions against
one shared artifact; faults injected into it must keep the contract a
single completion keeps:

* per-input isolation — one input's fault never corrupts another
  input's answer;
* deterministic surfacing — ``complete_batch`` raises the earliest
  failing input in submission order;
* the shared completion cache never holds a truncated result;
* once the faults clear, answers are byte-identical to a fault-free
  engine's.

The test names date from the thread and process batch pools; every
batch now runs sequentially.
"""

import contextvars
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.compiled import CompiledSchema, invalidate
from repro.core.engine import Disambiguator
from repro.errors import InjectedFaultError, ReproError
from repro.resilience.budget import Budget, use_budget
from repro.resilience.faults import FaultPlan, inject
from repro.resilience.retry import RetryPolicy
from repro.serve.tenants import Tenant, prewarm_tenant

SEEDS = (0, 1, 7)

QUERIES = [
    "ta ~ name",
    "student.take.teacher",
    "student ~ dept",
    "teacher ~ name",
]

#: Retry a fault once, without sleeping.
FAST_RETRY = RetryPolicy(max_attempts=2, base_delay=0.0, seed=0)


def _assert_cache_is_clean(compiled):
    cache = getattr(compiled.cache, "_cache", compiled.cache)
    for value in cache._data.values():
        assert value.exhausted, value.truncation_reason


def _run_batch_on(where, engine, inputs):
    """Run a batch on the caller's thread, or on a worker thread in a
    copy of the caller's context as the serving tier's miss executor
    does."""
    if where == "caller":
        return engine.complete_batch(inputs)
    context = contextvars.copy_context()
    with ThreadPoolExecutor(max_workers=1) as pool:
        return pool.submit(context.run, engine.complete_batch, inputs).result()


class TestBatchUnderFaults:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_parallel_batch_faults_are_typed_and_cache_stays_clean(
        self, university, seed
    ):
        compiled = CompiledSchema(university)
        plan = FaultPlan(seed=seed, edge_fail_rate=0.2)
        survived = failed = 0
        with inject(compiled, plan):
            # Engines bind their searcher at construction: build inside
            # the injection so the faulty graph governs the traversals.
            engine = Disambiguator(compiled)
            for _ in range(8):
                try:
                    batch = engine.complete_batch(QUERIES)
                    assert len(batch.results) == len(QUERIES)
                    survived += 1
                except ReproError:
                    failed += 1
                _assert_cache_is_clean(compiled)
        assert survived + failed == 8
        _assert_cache_is_clean(compiled)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_clean_parallel_batch_matches_sequential_after_storm(
        self, university, seed
    ):
        compiled = CompiledSchema(university)
        plan = FaultPlan(
            seed=seed,
            edge_fail_rate=0.3,
            cache_miss_rate=0.5,
            cache_drop_rate=0.5,
        )
        with inject(compiled, plan):
            storm_engine = Disambiguator(compiled)
            for _ in range(5):
                try:
                    storm_engine.complete_batch(QUERIES)
                except ReproError:
                    pass
        # Storm over: a fresh engine on the restored artifact answers
        # byte-identically to a private fault-free engine.
        reference = Disambiguator(CompiledSchema(university))
        engine = Disambiguator(compiled)
        batch = engine.complete_batch(QUERIES)
        for query, result in zip(QUERIES, batch.results):
            expected = reference.complete(query)
            assert [str(p) for p in result.paths] == [
                str(p) for p in expected.paths
            ]
            assert result.exhausted
        _assert_cache_is_clean(compiled)

    def test_batch_raises_earliest_failing_input_in_order(self, university):
        compiled = CompiledSchema(university)
        engine = Disambiguator(compiled)
        # Two invalid expressions among valid ones: the first invalid
        # one in submission order must be the exception that surfaces.
        inputs = [
            "ta ~ name",
            "zzz_first_bad ~ nope",
            "student.take.teacher",
            "zzz_second_bad ~ nope",
        ]
        for _ in range(4):  # deterministic across repeats
            with pytest.raises(ReproError) as exc:
                engine.complete_batch(inputs)
            assert "zzz_first_bad" in str(exc.value)
            assert "zzz_second_bad" not in str(exc.value)
        _assert_cache_is_clean(compiled)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_budgeted_parallel_batch_never_caches_truncation(
        self, cupid, seed
    ):
        """Tiny ambient node budgets under injected cache faults:
        whatever trips, no truncated result may land in the shared
        cache."""
        invalidate()
        compiled = CompiledSchema(cupid)
        plan = FaultPlan(seed=seed, cache_miss_rate=0.5, cache_drop_rate=0.5)
        with inject(compiled, plan):
            engine = Disambiguator(compiled, e=2)
            with use_budget(Budget(max_nodes=5, partial_ok=True)):
                batch = engine.complete_batch(
                    ["experiment ~ conductance", "experiment ~ temperature"]
                )
            assert any(not r.exhausted for r in batch.results)
            _assert_cache_is_clean(compiled)
        # A later unbudgeted run completes fully and repopulates.
        full = Disambiguator(compiled, e=2).complete_batch(
            ["experiment ~ conductance"]
        )
        assert all(r.exhausted for r in full.results)
        assert len(compiled.cache) >= 1
        _assert_cache_is_clean(compiled)

    @pytest.mark.parametrize("where", ["caller", "thread"])
    def test_per_input_budget_isolation(self, cupid, where):
        """Each input gets its own freshly armed meter: a budget that
        truncates the expensive query must not bleed into (or starve)
        the cheap one after it — also when the batch runs on a worker
        thread in a copied context."""
        invalidate()
        cheap = Disambiguator(CompiledSchema(cupid), e=3, pruning="closure")
        nodes_for_cheap = (
            cheap.complete("site ~ name").stats.recursive_calls + 2
        )
        compiled = CompiledSchema(cupid)
        engine = Disambiguator(compiled, e=3, pruning="closure")
        with use_budget(Budget(max_nodes=nodes_for_cheap, partial_ok=True)):
            batch = _run_batch_on(
                where, engine, ["experiment ~ conductance", "site ~ name"]
            )
        heavy, light = batch.results
        assert not heavy.exhausted  # its own meter tripped
        assert light.exhausted  # unaffected by its neighbor's trip
        assert len(compiled.cache) == 1  # only the exhausted answer
        _assert_cache_is_clean(compiled)


class TestPrewarmUnderFaults:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_prewarm_swallows_faults_and_keeps_cache_clean(
        self, university, seed
    ):
        compiled = CompiledSchema(university)
        plan = FaultPlan(seed=seed, edge_fail_rate=0.3)
        with inject(compiled, plan):
            warmed = prewarm_tenant(
                Tenant("university", compiled), QUERIES, policy=FAST_RETRY
            )
            _assert_cache_is_clean(compiled)
        assert 0 <= warmed <= len(QUERIES)
        _assert_cache_is_clean(compiled)
        # The failures were swallowed, not cached: a clean pass still
        # produces exhaustive, reference-identical answers.
        reference = Disambiguator(CompiledSchema(university))
        engine = Disambiguator(compiled)
        for query in QUERIES:
            result = engine.complete(query)
            assert result.exhausted
            assert [str(p) for p in result.paths] == [
                str(p) for p in reference.complete(query).paths
            ]

    def test_prewarm_with_total_failure_warms_nothing(self, university):
        compiled = CompiledSchema(university)
        plan = FaultPlan(seed=0, edge_fail_rate=1.0)
        compiled.cache.clear()
        with inject(compiled, plan):
            warmed = prewarm_tenant(
                Tenant("university", compiled), QUERIES, policy=FAST_RETRY
            )
        assert warmed == 0
        assert len(compiled.cache) == 0

    def test_prewarm_total_failure_surfaces_nothing_to_caller(
        self, university
    ):
        """prewarm never raises — the live request owns the error."""
        compiled = CompiledSchema(university)
        with inject(compiled, FaultPlan(seed=1, edge_fail_rate=1.0)):
            tenant = Tenant("university", compiled)
            assert prewarm_tenant(tenant, ["ta ~ name"], policy=FAST_RETRY) == 0
            # The live completion hits the very fault prewarm swallowed.
            with pytest.raises(InjectedFaultError):
                tenant.engine(1).complete("ta ~ name")
