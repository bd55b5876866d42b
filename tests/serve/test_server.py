"""End-to-end behaviour of the serving tier over real sockets."""

import json

import pytest

from repro.core.compiled import CompiledSchema
from repro.core.engine import Disambiguator
from repro.model.instances import Database
from repro.serve import ServeConfig
from repro.serve.config import ServeConfig as _ServeConfig

from tests.serve.conftest import make_tier, raw_client


class TestComplete:
    def test_paths_match_direct_engine_byte_for_byte(
        self, university_client, university
    ):
        """The acceptance contract: the HTTP answer is the engine's
        answer — same paths, same ranking, rendered identically."""
        direct = Disambiguator(university).complete("ta ~ name")
        response = university_client.complete("ta ~ name")
        assert response.status == 200
        assert response.json["paths"] == [str(p) for p in direct.paths]
        assert response.json["labels"] == [str(l) for l in direct.labels]
        assert response.json["exhausted"] is True

    def test_repeat_requests_are_cache_hits(self, university_client):
        first = university_client.complete("ta ~ name")
        second = university_client.complete("ta ~ name")
        assert first.json["paths"] == second.json["paths"]
        assert second.json["stats"]["cache_hits"] >= 1

    def test_budget_tripped_request_returns_206(self, university_client):
        response = university_client.complete("ta ~ name", max_nodes=1)
        assert response.status == 206
        assert response.json["exhausted"] is False
        assert response.json["truncation_reason"]

    def test_e_parameter_is_honoured(self, university_client):
        response = university_client.complete("ta ~ name", e=2)
        assert response.status == 200
        assert response.json["e"] == 2

    def test_invalid_expression_is_400_with_kind(self, university_client):
        response = university_client.complete("student.ghost")
        assert response.status == 400
        assert "kind" in response.json

    def test_unknown_tenant_is_404(self, university_client):
        response = university_client.complete("ta ~ name", tenant="ghost")
        assert response.status == 404
        assert "ghost" in response.json["error"]

    def test_bad_deadline_header_is_400(self, university_client):
        response = university_client.request(
            "POST",
            "/v1/complete",
            {"expression": "ta ~ name"},
            {"X-Deadline-Ms": "soon"},
        )
        assert response.status == 400

    def test_missing_expression_is_400(self, university_client):
        response = university_client.request(
            "POST", "/v1/complete", {"tenant": "university"}
        )
        assert response.status == 400

    def test_single_tenant_is_the_default(self, university_client):
        response = university_client.complete("ta ~ name")
        assert response.json["tenant"] == "university"


class TestRouting:
    def test_unknown_route_is_404(self, university_client):
        assert university_client.request("GET", "/nope").status == 404

    def test_wrong_method_is_405(self, university_client):
        assert (
            university_client.request("GET", "/v1/complete").status == 405
        )
        assert university_client.request("POST", "/healthz").status == 405

    def test_schemas_lists_tenants(self, university_client):
        response = university_client.schemas()
        assert response.status == 200
        (entry,) = response.json["tenants"]
        assert entry["tenant"] == "university"
        assert entry["classes"] > 0
        assert entry["has_database"] is False

    def test_healthz_reports_serving_state(self, university_client):
        response = university_client.healthz()
        assert response.status == 200
        serving = response.json["serving"]
        assert serving["state"] == "serving"
        assert serving["tenants"] == ["university"]
        assert serving["pending"] == 0


class TestMultiTenant:
    def test_tenant_must_be_named_when_ambiguous(
        self, university, cupid
    ):
        tier = make_tier({"university": university, "cupid": cupid})
        try:
            client = raw_client(tier)
            response = client.complete("ta ~ name")
            assert response.status == 400
            assert "tenant" in response.json["error"]
            named = client.complete("ta ~ name", tenant="university")
            assert named.status == 200
        finally:
            tier.stop(drain=False)


class TestObservability:
    def test_metrics_are_labelled_per_route_and_status(
        self, university_client
    ):
        university_client.complete("ta ~ name")
        university_client.complete("student.ghost")  # 400
        text = university_client.metrics_text()
        assert (
            'repro_serve_requests_total{route="POST /v1/complete",'
            'status="200"}' in text
        )
        assert (
            'repro_serve_requests_total{route="POST /v1/complete",'
            'status="400"}' in text
        )
        assert 'repro_serve_latency_ms' in text

    def test_every_request_leaves_a_slowlog_entry(
        self, university_tier, university_client
    ):
        university_client.complete("ta ~ name")
        university_client.complete("ta ~ name", e=2)
        entries = university_tier.slowlog.entries()
        served = [e for e in entries if e.kind == "serve.complete"]
        assert len(served) == 2
        assert all(e.query == "ta ~ name" for e in served)

    def test_engine_metrics_land_in_the_tier_registry(
        self, university_tier, university_client
    ):
        university_client.complete("ta ~ name")
        summary = university_tier.metrics.as_dict()
        assert summary["counters"].get("completions", 0) >= 1


class TestQuery:
    def test_query_against_tenant_database(self, university):
        database = Database(university)
        student = database.create("student")
        database.set_attribute(student, "name", "Ana")
        tier = make_tier(
            {"university": university},
            databases={"university": database},
        )
        try:
            client = raw_client(tier)
            response = client.query("get ta ~ name")
            assert response.status == 200
            assert response.json["completions"]
            assert isinstance(response.json["values"], list)
            # A retired 'jobs' field is ignored like any unknown field.
            legacy = client._retrying_request(
                "POST", "/v1/query", {"query": "get ta ~ name", "jobs": 0}
            )
            assert legacy.status == 200
            assert legacy.json["completions"] == response.json["completions"]
        finally:
            tier.stop(drain=False)

    def test_query_without_database_is_400(self, university_client):
        response = university_client.query("get ta ~ name")
        assert response.status == 400
        assert "database" in response.json["error"]


class TestKeepAliveConnections:
    def test_many_requests_share_one_connection(self, university_tier):
        import http.client

        host, port = university_tier.address
        connection = http.client.HTTPConnection(host, port, timeout=10)
        try:
            for _ in range(3):
                connection.request(
                    "POST",
                    "/v1/complete",
                    body=json.dumps({"expression": "ta ~ name"}),
                )
                raw = connection.getresponse()
                payload = json.loads(raw.read())
                assert raw.status == 200
                assert payload["paths"]
        finally:
            connection.close()


class TestConfigValidation:
    def test_rejects_nonpositive_queue(self):
        with pytest.raises(ValueError):
            _ServeConfig(queue_limit=0)

    def test_rejects_default_deadline_above_max(self):
        with pytest.raises(ValueError):
            _ServeConfig(default_deadline_ms=20_000.0)

    def test_header_deadline_is_clamped_to_max(self):
        config = ServeConfig(max_deadline_ms=2000.0)
        for raw in ("999999", "inf"):
            budget = config.budget_for({"x-deadline-ms": raw})
            assert budget.max_seconds == pytest.approx(2.0)

    @pytest.mark.parametrize("raw", ["nan", "NaN", "-nan"])
    def test_nan_header_deadline_is_rejected(self, raw):
        # NaN compares false against everything, so it used to pass the
        # positivity check and the ceiling and arm a deadline that
        # never trips.
        with pytest.raises(ValueError):
            ServeConfig().budget_for({"x-deadline-ms": raw})

    def test_header_max_nodes_is_parsed(self):
        budget = ServeConfig().budget_for({"x-max-nodes": "77"})
        assert budget.max_nodes == 77
        assert budget.partial_ok is True
