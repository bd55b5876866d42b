"""``complete_batch``: the contracts the batch pools used to share.

A batch runs its inputs one after another on the calling thread.  The
test and class names date from the thread and process batch pools; the
contracts they check still hold for the sequential batch — results come
back in input order, byte-identical to completing each input alone,
warm inputs are the cached objects, and one input's budget trip must
not leak into its siblings.
"""

import pytest

from repro.core.compiled import CompiledSchema
from repro.core.engine import Disambiguator
from repro.errors import BudgetExceededError
from repro.resilience.budget import Budget, use_budget
from repro.serve.tenants import Tenant, prewarm_tenant

WORKLOAD = [
    "experiment ~ conductance",
    "output_spec ~ capacity",
    "experiment ~ soil_type",
    "simulation ~ name",
    "experiment ~ conductance",  # duplicate: warm by the time it runs
]


def _snapshots(batch):
    return [
        (
            tuple(str(path) for path in result.paths),
            tuple(label.key for label in result.labels),
            result.exhausted,
        )
        for result in batch
    ]


class TestParallelEquivalence:
    @pytest.mark.parametrize("e", [1, 3])
    def test_jobs4_matches_sequential(self, cupid, e):
        """A batch answers exactly what completing each input alone,
        on an engine of its own, answers."""
        alone = Disambiguator(CompiledSchema(cupid), e=e)
        batched = Disambiguator(CompiledSchema(cupid), e=e)
        expected = [alone.complete(text) for text in WORKLOAD]
        actual = batched.complete_batch(WORKLOAD)
        assert _snapshots(actual) == _snapshots(expected)

    def test_results_keep_input_order(self, cupid):
        engine = Disambiguator(CompiledSchema(cupid))
        batch = engine.complete_batch(WORKLOAD)
        assert len(batch) == len(WORKLOAD)
        for text, result in zip(WORKLOAD, batch):
            root = text.split("~")[0].strip()
            assert result.root == root
        # The duplicate is a warm hit on the first one's cached answer.
        assert batch.results[4] is batch.results[0]

    def test_parallel_hits_the_shared_cache(self, cupid):
        engine = Disambiguator(CompiledSchema(cupid))
        cold = engine.complete_batch(WORKLOAD)
        warm = engine.complete_batch(WORKLOAD)
        # Warm hits return the very objects the cold run cached —
        # byte-identical by construction.
        for cold_result, warm_result in zip(cold, warm):
            assert warm_result is cold_result
        assert warm.stats.cache_hits == len(WORKLOAD)
        assert warm.stats.cache_misses == 0

    def test_single_input_skips_the_pool(self, cupid):
        engine = Disambiguator(CompiledSchema(cupid))
        batch = engine.complete_batch(["experiment ~ conductance"])
        assert len(batch) == 1
        assert batch.results[0].exhausted
        assert batch.stats.cache_misses == 1


class TestBudgetIsolation:
    def test_one_trip_does_not_poison_siblings(self, cupid):
        # A node cap the small queries fit comfortably but the heavy
        # acceptance query cannot at any rung of the degradation ladder
        # (closure-pruned it still needs ~700 expansions at E=1).  The
        # cap is calibrated to closure-mode costs, so the mode is pinned.
        engine = Disambiguator(
            CompiledSchema(cupid),
            e=3,
            budget=Budget(max_nodes=400, partial_ok=True),
            pruning="closure",
        )
        batch = engine.complete_batch(
            [
                "simulation ~ name",
                "experiment ~ conductance",
                "output_spec ~ name",
            ]
        )
        tripped = [result.is_partial for result in batch]
        assert tripped[0] is False
        assert tripped[1] is True
        assert tripped[2] is False
        # The partial is flagged per input; the exhausted siblings are
        # cached, the partial is not.
        assert len(engine.compiled.cache) == 2

    def test_ambient_budget_reaches_the_workers(self, cupid):
        """An ambient budget arms a fresh meter for every input."""
        engine = Disambiguator(CompiledSchema(cupid), e=3, pruning="closure")
        with use_budget(Budget(max_nodes=400, partial_ok=True)):
            batch = engine.complete_batch(
                ["experiment ~ conductance", "simulation ~ name"]
            )
        assert batch.results[0].is_partial
        assert batch.results[1].exhausted

    def test_raising_policy_surfaces_deterministically(self, cupid):
        compiled = CompiledSchema(cupid)
        engine = Disambiguator(
            compiled,
            e=3,
            budget=Budget(max_nodes=400),  # partial_ok=False
            pruning="closure",
        )
        for _ in range(2):  # the same input raises on every run
            with pytest.raises(BudgetExceededError) as excinfo:
                engine.complete_batch(
                    ["simulation ~ name", "experiment ~ conductance"]
                )
            assert excinfo.value.partial.root == "experiment"
        assert len(compiled.cache) == 1  # the sibling before it


class TestPrewarm:
    def test_fills_the_cache_and_skips_failures(self, cupid):
        tenant = Tenant("cupid", CompiledSchema(cupid))
        warmed = prewarm_tenant(
            tenant, ["experiment ~ conductance", "no_such_class ~ name"]
        )
        assert warmed == 1
        assert len(tenant.compiled.cache) == 1
