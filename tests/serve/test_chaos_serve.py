"""Chaos against the real server: seeded faults under live concurrency.

The tenant's compiled artifact is rewired through a
:class:`~repro.resilience.faults.FaultPlan` while concurrent HTTP
requests hammer the tier, asserting the serving-tier resilience
contract:

* every response is a mapped status (200/206 success, 503 transient
  fault) — never a 500, never a hang, never a torn connection;
* the completion cache never holds a truncated result, no matter how
  requests were interrupted;
* after the storm the tier serves clean answers again, byte-identical
  to a fault-free engine.
"""

import threading

import pytest

from repro.core.compiled import CompiledSchema
from repro.core.engine import Disambiguator
from repro.resilience.faults import FaultPlan, inject
from repro.serve import ServeConfig

from tests.serve.conftest import make_tier, raw_client

SEEDS = (0, 1, 7)

QUERIES = ["ta ~ name", "student.take.teacher", "teacher ~ name"]


def assert_cache_is_clean(compiled):
    cache = getattr(compiled.cache, "_cache", compiled.cache)
    for value in cache._data.values():
        assert value.exhausted, value.truncation_reason


class TestServeChaos:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_fault_storm_under_concurrency(self, university, seed):
        tier = make_tier(
            {"university": university},
            config=ServeConfig(queue_limit=32, workers=4),
        )
        compiled = tier.tenants.get("university").compiled
        try:
            client = raw_client(tier)
            plan = FaultPlan(
                seed=seed,
                edge_fail_rate=0.1,
                cache_miss_rate=0.3,
                cache_drop_rate=0.3,
            )
            responses = []
            lock = threading.Lock()

            def worker(expression: str) -> None:
                response = client.complete(expression)
                with lock:
                    responses.append(response)

            with inject(compiled, plan):
                threads = [
                    threading.Thread(
                        target=worker, args=(QUERIES[i % len(QUERIES)],)
                    )
                    for i in range(12)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60.0)
                assert not any(t.is_alive() for t in threads)
                assert_cache_is_clean(compiled)

            assert len(responses) == 12
            for response in responses:
                assert response.status in (200, 206, 503), (
                    response.status,
                    response.body,
                )
                if response.status == 503:
                    assert response.json.get("transient") is True
                    assert response.retry_after is not None
            assert_cache_is_clean(compiled)

            # The storm is over: the tier answers cleanly and exactly
            # as a fault-free engine would.
            reference = Disambiguator(CompiledSchema(university)).complete(
                "ta ~ name"
            )
            after = client.complete("ta ~ name")
            assert after.status == 200
            assert after.json["paths"] == [str(p) for p in reference.paths]
            assert client.healthz().status == 200
        finally:
            tier.stop(drain=False)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_injected_faults_count_as_transient_not_500(
        self, university, seed
    ):
        tier = make_tier({"university": university})
        compiled = tier.tenants.get("university").compiled
        try:
            client = raw_client(tier)
            plan = FaultPlan(seed=seed, edge_fail_rate=1.0)
            with inject(compiled, plan):
                response = client.complete("ta ~ name")
            assert response.status == 503
            assert response.json["transient"] is True
            text = client.metrics_text()
            assert "repro_serve_internal_errors_total" not in text
        finally:
            tier.stop(drain=False)

    def test_prewarm_through_flaky_backend_via_server_boot(self, university):
        """Prewarm with retry, then serve: the warmed entry answers a
        live request as a cache hit even while the backend is flaky."""
        from repro.serve.tenants import prewarm_tenant
        from repro.resilience.retry import RetryPolicy

        tier = make_tier({"university": university})
        tenant = tier.tenants.get("university")
        try:
            # One cold 'ta ~ name' completion makes 24 node expansions,
            # each drawing from the plan inside the search loop; at 0.01
            # this seed injects one fault before an attempt gets
            # through — a real retry, deterministic outcome.
            plan = FaultPlan(seed=1, edge_fail_rate=0.01)
            with inject(tenant.compiled, plan):
                warmed = prewarm_tenant(
                    tenant,
                    ["ta ~ name"],
                    policy=RetryPolicy(
                        max_attempts=8, base_delay=0.0, seed=0
                    ),
                )
            assert warmed == 1
            assert_cache_is_clean(tenant.compiled)
            client = raw_client(tier)
            response = client.complete("ta ~ name")
            assert response.status == 200
            assert response.json["stats"]["cache_hits"] >= 1
        finally:
            tier.stop(drain=False)
