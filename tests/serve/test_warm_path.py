"""The warm serving path: what a cache hit does and does not pay for.

A warm ``POST /v1/complete`` must produce the same answer and the same
observability records as before while skipping work whose result it
already has: path texts are rendered once per cached result, the
memory governor runs only after a miss, and metric series stay bounded
whatever paths clients send.
"""

import http.client

import pytest

from repro.core.ast import ConcretePath
from repro.obs.metrics import split_labels
from repro.serve.app import UNMATCHED_ROUTE

from tests.serve.conftest import make_tier, raw_client


@pytest.fixture
def tier(university):
    tier = make_tier({"university": university})
    yield tier
    tier.stop(drain=False)


def _series(tier) -> set[str]:
    return {metric.name for metric in tier.metrics.snapshot_metrics()}


class TestWarmHitRendering:
    def test_hit_renders_no_path_expression(self, tier, monkeypatch):
        client = raw_client(tier)
        cold = client.complete("ta ~ name", e=2)
        assert cold.status == 200 and cold.json["stats"]["cache_misses"] == 1
        calls = []
        original = ConcretePath.to_expression

        def counting(path):
            calls.append(path)
            return original(path)

        monkeypatch.setattr(ConcretePath, "to_expression", counting)
        warm = client.complete("ta ~ name", e=2)
        assert warm.json["stats"]["cache_hits"] == 1
        assert warm.json["paths"] == cold.json["paths"]
        assert calls == []

    def test_hit_body_equals_the_cold_body_apart_from_counters(self, tier):
        client = raw_client(tier)
        cold = client.complete("ta ~ name").json
        warm = client.complete("ta ~ name").json
        cold_stats, warm_stats = cold.pop("stats"), warm.pop("stats")
        assert warm == cold
        assert (warm_stats["cache_hits"], warm_stats["cache_misses"]) == (1, 0)
        assert warm_stats["recursive_calls"] == cold_stats["recursive_calls"]


class TestMemoryGovernor:
    @staticmethod
    def _count_governor(tier, monkeypatch) -> list:
        calls = []
        original = tier.tenants.enforce_memory_bound

        def counting():
            calls.append(1)
            return original()

        monkeypatch.setattr(tier.tenants, "enforce_memory_bound", counting)
        return calls

    def test_hit_skips_the_governor(self, tier, monkeypatch):
        calls = self._count_governor(tier, monkeypatch)
        client = raw_client(tier)
        assert client.complete("ta ~ name").json["stats"]["cache_misses"] == 1
        assert len(calls) == 1
        for _ in range(3):
            assert client.complete("ta ~ name").json["stats"]["cache_hits"] == 1
        assert len(calls) == 1

    def test_miss_over_the_bound_still_evicts(self, university, monkeypatch):
        tier = make_tier({"university": university}, max_cache_bytes=1)
        try:
            calls = self._count_governor(tier, monkeypatch)
            client = raw_client(tier)
            response = client.complete("ta ~ name")
            assert response.status == 200
            assert response.json["stats"]["cache_misses"] == 1
            assert len(calls) == 1
            (tenant,) = tier.tenants.tenants()
            assert len(tenant.compiled.cache) == 0
            assert tier.metrics.counter("serve.cache_evictions").value >= 1
            # Nothing was kept, so the repeat misses and governs again.
            again = client.complete("ta ~ name")
            assert again.json["stats"]["cache_misses"] == 1
            assert len(calls) == 2
        finally:
            tier.stop(drain=False)


class TestRouteLabels:
    def test_unknown_paths_add_at_most_two_series(self, tier):
        client = raw_client(tier)
        client.healthz()
        before = _series(tier)
        connection = http.client.HTTPConnection(*tier.address, timeout=10)
        try:
            for index in range(500):
                connection.request("GET", f"/no/such/route/{index}")
                response = connection.getresponse()
                response.read()
                assert response.status == 404
        finally:
            connection.close()
        added = _series(tier) - before
        assert len(added) <= 2
        assert {split_labels(name)[1]["route"] for name in added} == {
            UNMATCHED_ROUTE
        }
        text = client.metrics_text()
        assert "/no/such/route" not in text
        assert (
            f'repro_serve_requests_total{{route="{UNMATCHED_ROUTE}",'
            'status="404"} 500' in text
        )

    def test_wrong_methods_share_the_unmatched_label(self, tier):
        client = raw_client(tier)
        for method in ("GET", "PUT", "DELETE", "BREW"):
            assert client.request(method, "/v1/complete").status == 405
        assert client.request("POST", "/healthz").status == 405
        counter = tier.metrics.counter(
            f"serve.requests|route={UNMATCHED_ROUTE},status=405"
        )
        assert counter.value == 5
        routes = {
            split_labels(name)[1].get("route")
            for name in _series(tier)
            if name.startswith("serve.")
        }
        assert routes <= {UNMATCHED_ROUTE, None}
