"""The warm serving path: what a cache hit does and does not pay for.

A warm ``POST /v1/complete`` must produce the same answer and the same
observability records as before while skipping work whose result it
already has: path texts are rendered once per cached result, the
memory governor runs only after a miss, and metric series stay bounded
whatever paths clients send.

One request pipeline serves hits and misses: the envelope and the
engine's lookup run on the event loop, and only a miss's search
crosses to the executor — once, with one counted cache access and one
parse per request, and never a search on the loop thread.
"""

import http.client
import json
import sys
import threading

import pytest

from repro.core import engine as engine_module
from repro.core.ast import ConcretePath
from repro.core.completion import CompletionSearch
from repro.core.compiled import SEARCHER_MEMO_SIZE
from repro.model.instances import Database
from repro.obs.metrics import split_labels
from repro.serve import ServeConfig
from repro.serve.app import UNMATCHED_ROUTE
from repro.serve.tenants import ENGINE_MEMO_SIZE

from tests.serve.conftest import gate_tenant, make_tier, raw_client


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


def _spy_submit(tier, monkeypatch) -> list:
    calls = []
    original = tier._pool.submit

    def submit(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(tier._pool, "submit", submit)
    return calls


class TestOnePipeline:
    def test_a_hit_never_reaches_the_pool_and_a_miss_once(
        self, tier, monkeypatch
    ):
        calls = _spy_submit(tier, monkeypatch)
        client = raw_client(tier)
        assert client.complete("ta ~ name").json["stats"]["cache_misses"] == 1
        assert len(calls) == 1
        for _ in range(3):
            assert client.complete("ta ~ name").json["stats"]["cache_hits"] == 1
        assert len(calls) == 1
        assert client.complete("professor ~ name", e=2).status == 200
        assert len(calls) == 2
        assert tier.pending == 0

    def test_each_request_parses_once_and_counts_one_access(
        self, tier, monkeypatch
    ):
        parses = []
        original = engine_module.parse_path_expression

        def counting(text):
            parses.append(text)
            return original(text)

        monkeypatch.setattr(engine_module, "parse_path_expression", counting)
        client = raw_client(tier)
        cache = tier.tenants.get("university").compiled.cache
        # A syntax error is answered before the cache is read.
        for expression, counted in (
            ("ta ~ name", 1),
            ("ta ~ name", 1),
            ("professor ~ name", 1),
            ("professor ~ name", 1),
            ("student.ghost", 1),
            ("ta ~~ name", 0),
        ):
            accesses = cache.hits + cache.misses
            parses.clear()
            client.complete(expression)
            assert parses == [expression]
            assert cache.hits + cache.misses == accesses + counted

    def test_hits_are_answered_while_a_miss_holds_the_only_worker(
        self, university
    ):
        """A parked miss does not delay hits, and neither the hits'
        lookups nor their counters leak into the miss's answer."""
        tier = make_tier(
            {"university": university}, config=ServeConfig(workers=1)
        )
        try:
            client = raw_client(tier)
            assert client.complete("ta ~ name").status == 200
            gated = gate_tenant(tier.tenants.get("university"))
            parked = []
            worker = threading.Thread(
                target=lambda: parked.append(client.complete("professor ~ name"))
            )
            worker.start()
            try:
                assert gated.entered.acquire(timeout=10.0)
                for _ in range(3):
                    warm = client.complete("ta ~ name")
                    assert warm.status == 200
                    assert warm.json["stats"]["cache_hits"] == 1
                assert tier.pending == 1
            finally:
                gated.release()
                worker.join(timeout=30.0)
            (miss,) = parked
            stats = miss.json["stats"]
            assert (stats["cache_hits"], stats["cache_misses"]) == (0, 1)
            record = tier.access_log.find(miss.headers["x-request-id"])
            assert record["cache_hit"] is False
        finally:
            tier.stop(drain=False)

    def test_a_pattern_reports_its_own_lookup(self, tier):
        """Per-request counters describe the request's one lookup, not
        the segment sub-completions a multi-gap pattern runs."""
        client = raw_client(tier)
        cold = client.complete("ta ~ teacher ~ name").json["stats"]
        warm = client.complete("ta ~ teacher ~ name").json["stats"]
        assert (cold["cache_hits"], cold["cache_misses"]) == (0, 1)
        assert (warm["cache_hits"], warm["cache_misses"]) == (1, 0)

    def test_no_search_runs_on_the_loop_thread(self, university, monkeypatch):
        """Concurrent hits and misses under a cache bound so tiny that
        the governor evicts between lookups: every search still runs on
        a pool worker, and every request counts one cache access."""
        tier = make_tier({"university": university}, max_cache_bytes=2000)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads_seen = []
            original = CompletionSearch.run

            def recording(self, *args, **kwargs):
                threads_seen.append(threading.current_thread())
                return original(self, *args, **kwargs)

            monkeypatch.setattr(CompletionSearch, "run", recording)
            expressions = [
                "ta ~ name",
                "professor ~ name",
                "student ~ name",
                "ta ~ name",
                "course ~ name",
                "ta ~ name",
            ]
            cache = tier.tenants.get("university").compiled.cache
            before = cache.hits + cache.misses
            errors = []
            statuses = []

            def client_loop(offset: int) -> None:
                client = raw_client(tier)
                try:
                    for index in range(24):
                        expression = expressions[(index + offset) % len(expressions)]
                        statuses.append(client.complete(expression).status)
                except Exception as error:  # surfaced below
                    errors.append(error)

            clients = [
                threading.Thread(target=client_loop, args=(offset,))
                for offset in range(3)
            ]
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join(timeout=60.0)
            assert errors == []
            assert len(statuses) == 72 and set(statuses) <= {200, 400, 429}
            answered = sum(1 for status in statuses if status != 429)
            assert cache.hits + cache.misses - before == answered
            assert threads_seen, "no search ran"
            assert tier._thread not in threads_seen
            assert all(
                thread.name.startswith("repro-serve") for thread in threads_seen
            )
            assert tier.tenants.get("university").compiled.cache.hits > 0
            assert tier.metrics.counter("serve.cache_evictions").value > 0
        finally:
            sys.setswitchinterval(interval)
            tier.stop(drain=False)


class TestBoundedEngineMemos:
    def test_distinct_e_values_leave_at_most_the_bound_resident(
        self, tier
    ):
        client = raw_client(tier)
        tenant = tier.tenants.get("university")

        def answers(expected_misses: int) -> list[bytes]:
            bodies = []
            for e in (1, 2, 3):
                response = client.complete("ta ~ name", e=e)
                assert response.json["stats"]["cache_misses"] == expected_misses
                bodies.append(response.body)
            return bodies

        def without_timing(bodies: list[bytes]) -> list[dict]:
            decoded = [json.loads(body) for body in bodies]
            for body in decoded:
                del body["stats"]["elapsed_ms"]
            return decoded

        cold, warm = answers(1), answers(0)
        for e in range(1, 501):
            assert client.complete("ta ~ name", e=e).status == 200
            assert len(tenant._engines) <= ENGINE_MEMO_SIZE
            assert len(tenant.compiled._searches) <= SEARCHER_MEMO_SIZE
        # Warm answers come back byte for byte; cold ones, recomputed by
        # rebuilt engines and searchers, equal the first cold ones.
        assert answers(0) == warm
        tenant.compiled.cache.clear()
        assert without_timing(answers(1)) == without_timing(cold)


def _run_pinned_sequence(university) -> dict:
    """Drive the fixed request sequence; return its records without
    timing fields, dates or request IDs."""
    database = Database(university)
    student = database.create("student")
    database.set_attribute(student, "name", "Ana")
    tier = make_tier(
        {"university": university}, databases={"university": database}
    )
    try:
        client = raw_client(tier)
        responses = [
            client.complete("ta ~ name"),  # miss
            client.complete("ta ~ name"),  # hit
        ]
        tier.sampler.rate = 1.0
        responses.append(client.complete("professor ~ name"))  # sampled miss
        responses.append(client.complete("professor ~ name"))  # sampled hit
        tier.sampler.rate = 0.0
        responses += [
            client.complete("student ~ name", max_nodes=1),  # 206
            client.complete("ta ~~ name"),  # 400 at parse, on the loop
            client.complete("student.ghost"),  # 400 from the search step
            client.complete("ta ~ name", tenant="ghost"),  # 404
            client.query("get ta ~ name"),
        ]
        bodies = []
        for response in responses:
            body = response.json
            body.get("stats", {}).pop("elapsed_ms", None)
            bodies.append((response.status, body))
        access = [
            {
                key: value
                for key, value in record.items()
                if key not in ("ts", "latency_ms", "request_id")
            }
            for record in tier.access_log.records()
        ]
        slowlog = []
        for entry in tier.slowlog.entries():
            record = entry.to_record()
            record["attrs"].pop("request_id")
            slowlog.append(
                {
                    "kind": record["kind"],
                    "query": record["query"],
                    "exhausted": record["exhausted"],
                    "truncation_reason": record["truncation_reason"],
                    "error": record["error"],
                    "retained": record["retained"],
                    "attrs": record["attrs"],
                    "spans": [
                        (span["depth"], span["name"])
                        for span in record["spans"]
                        if span["type"] == "span"
                    ],
                }
            )
        return {"responses": bodies, "access": access, "slowlog": slowlog}
    finally:
        tier.stop(drain=False)


class TestPinnedSequence:
    def test_records_equal_the_expectations_pinned_before_the_split(
        self, university
    ):
        """Moving the envelope onto the event loop changes no response,
        no access record and no slow-log span tree: the expectations
        below were captured from the tier that ran every request on the
        executor."""
        records = _run_pinned_sequence(university)
        assert records == PINNED_RECORDS
        for entry in records["slowlog"]:
            roots = [span for span in entry["spans"] if span[0] == 0]
            assert roots == [(0, "request")]


#: Responses, access records and slow-log span trees of the sequence in
#: :func:`_run_pinned_sequence`, timing fields, dates and request IDs
#: removed.
PINNED_RECORDS = {'responses': [(200,
                                 {'e': 1,
                                  'exhausted': True,
                                  'expression': 'ta ~ name',
                                  'labels': ['[.,1]'],
                                  'paths': ['ta@>grad@>student@>person.name',
                                            'ta@>instructor@>teacher@>employee@>person.name'],
                                  'stats': {'budget_trips': 0,
                                            'cache_hits': 0,
                                            'cache_misses': 1,
                                            'recursive_calls': 22},
                                  'tenant': 'university'}),
                                (200,
                                 {'e': 1,
                                  'exhausted': True,
                                  'expression': 'ta ~ name',
                                  'labels': ['[.,1]'],
                                  'paths': ['ta@>grad@>student@>person.name',
                                            'ta@>instructor@>teacher@>employee@>person.name'],
                                  'stats': {'budget_trips': 0,
                                            'cache_hits': 1,
                                            'cache_misses': 0,
                                            'recursive_calls': 22},
                                  'tenant': 'university'}),
                                (200,
                                 {'e': 1,
                                  'exhausted': True,
                                  'expression': 'professor ~ name',
                                  'labels': ['[.,1]'],
                                  'paths': ['professor@>teacher@>employee@>person.name'],
                                  'stats': {'budget_trips': 0,
                                            'cache_hits': 0,
                                            'cache_misses': 1,
                                            'recursive_calls': 14},
                                  'tenant': 'university'}),
                                (200,
                                 {'e': 1,
                                  'exhausted': True,
                                  'expression': 'professor ~ name',
                                  'labels': ['[.,1]'],
                                  'paths': ['professor@>teacher@>employee@>person.name'],
                                  'stats': {'budget_trips': 0,
                                            'cache_hits': 1,
                                            'cache_misses': 0,
                                            'recursive_calls': 14},
                                  'tenant': 'university'}),
                                (206,
                                 {'e': 1,
                                  'exhausted': False,
                                  'expression': 'student ~ name',
                                  'labels': [],
                                  'paths': [],
                                  'stats': {'budget_trips': 1,
                                            'cache_hits': 0,
                                            'cache_misses': 1,
                                            'recursive_calls': 1},
                                  'tenant': 'university',
                                  'truncation_reason': 'nodes'}),
                                (400,
                                 {'error': "expected a relationship name, got '~' at "
                                           "position 4 in 'ta ~~ name'",
                                  'kind': 'PathSyntaxError'}),
                                (400,
                                 {'error': "class 'student' has no relationship 'ghost' (in "
                                           'student.ghost)',
                                  'kind': 'NoCompletionError'}),
                                (404,
                                 {'error': "unknown tenant 'ghost' (registered: "
                                           'university)'}),
                                (200,
                                 {'completions': ['ta@>grad@>student@>person.name',
                                                  'ta@>instructor@>teacher@>employee@>person.name'],
                                  'query': 'get ta ~ name',
                                  'tenant': 'university',
                                  'values': []})],
                  'access': [{'version': 1,
                              'seq': 0,
                              'method': 'POST',
                              'route': '/v1/complete',
                              'status': 200,
                              'outcome': 'ok',
                              'tenant': 'university',
                              'cache_hit': False,
                              'truncation_reason': None,
                              'shed_reason': None,
                              'sampled': False,
                              'error': None},
                             {'version': 1,
                              'seq': 1,
                              'method': 'POST',
                              'route': '/v1/complete',
                              'status': 200,
                              'outcome': 'ok',
                              'tenant': 'university',
                              'cache_hit': True,
                              'truncation_reason': None,
                              'shed_reason': None,
                              'sampled': False,
                              'error': None},
                             {'version': 1,
                              'seq': 2,
                              'method': 'POST',
                              'route': '/v1/complete',
                              'status': 200,
                              'outcome': 'ok',
                              'tenant': 'university',
                              'cache_hit': False,
                              'truncation_reason': None,
                              'shed_reason': None,
                              'sampled': True,
                              'error': None},
                             {'version': 1,
                              'seq': 3,
                              'method': 'POST',
                              'route': '/v1/complete',
                              'status': 200,
                              'outcome': 'ok',
                              'tenant': 'university',
                              'cache_hit': True,
                              'truncation_reason': None,
                              'shed_reason': None,
                              'sampled': True,
                              'error': None},
                             {'version': 1,
                              'seq': 4,
                              'method': 'POST',
                              'route': '/v1/complete',
                              'status': 206,
                              'outcome': 'partial',
                              'tenant': 'university',
                              'cache_hit': False,
                              'truncation_reason': 'nodes',
                              'shed_reason': None,
                              'sampled': False,
                              'error': None},
                             {'version': 1,
                              'seq': 5,
                              'method': 'POST',
                              'route': '/v1/complete',
                              'status': 400,
                              'outcome': 'client_error',
                              'tenant': None,
                              'cache_hit': None,
                              'truncation_reason': None,
                              'shed_reason': None,
                              'sampled': False,
                              'error': "expected a relationship name, got '~' at position 4 "
                                       "in 'ta ~~ name'"},
                             {'version': 1,
                              'seq': 6,
                              'method': 'POST',
                              'route': '/v1/complete',
                              'status': 400,
                              'outcome': 'client_error',
                              'tenant': None,
                              'cache_hit': None,
                              'truncation_reason': None,
                              'shed_reason': None,
                              'sampled': False,
                              'error': "class 'student' has no relationship 'ghost' (in "
                                       'student.ghost)'},
                             {'version': 1,
                              'seq': 7,
                              'method': 'POST',
                              'route': '/v1/complete',
                              'status': 404,
                              'outcome': 'client_error',
                              'tenant': None,
                              'cache_hit': None,
                              'truncation_reason': None,
                              'shed_reason': None,
                              'sampled': False,
                              'error': "unknown tenant 'ghost' (registered: university)"},
                             {'version': 1,
                              'seq': 8,
                              'method': 'POST',
                              'route': '/v1/query',
                              'status': 200,
                              'outcome': 'ok',
                              'tenant': 'university',
                              'cache_hit': None,
                              'truncation_reason': None,
                              'shed_reason': None,
                              'sampled': False,
                              'error': None}],
                  'slowlog': [{'kind': 'serve.complete',
                               'query': 'ta ~ name',
                               'exhausted': True,
                               'truncation_reason': None,
                               'error': None,
                               'retained': 'threshold',
                               'attrs': {'tenant': 'university', 'paths': 2},
                               'spans': [(0, 'request'),
                                         (1, 'complete'),
                                         (2, 'parse'),
                                         (2, 'cache_lookup'),
                                         (2, 'traverse'),
                                         (2, 'agg_select'),
                                         (2, 'preemption'),
                                         (2, 'rank')]},
                              {'kind': 'serve.complete',
                               'query': 'ta ~ name',
                               'exhausted': True,
                               'truncation_reason': None,
                               'error': None,
                               'retained': 'threshold',
                               'attrs': {'tenant': 'university', 'paths': 2},
                               'spans': [(0, 'request'),
                                         (1, 'complete'),
                                         (2, 'parse'),
                                         (2, 'cache_lookup')]},
                              {'kind': 'serve.complete',
                               'query': 'professor ~ name',
                               'exhausted': True,
                               'truncation_reason': None,
                               'error': None,
                               'retained': 'threshold',
                               'attrs': {'tenant': 'university', 'paths': 1},
                               'spans': [(0, 'request'),
                                         (1, 'complete'),
                                         (2, 'parse'),
                                         (2, 'cache_lookup'),
                                         (2, 'traverse'),
                                         (2, 'agg_select'),
                                         (2, 'preemption'),
                                         (2, 'rank')]},
                              {'kind': 'serve.complete',
                               'query': 'professor ~ name',
                               'exhausted': True,
                               'truncation_reason': None,
                               'error': None,
                               'retained': 'threshold',
                               'attrs': {'tenant': 'university', 'paths': 1},
                               'spans': [(0, 'request'),
                                         (1, 'complete'),
                                         (2, 'parse'),
                                         (2, 'cache_lookup')]},
                              {'kind': 'serve.complete',
                               'query': 'student ~ name',
                               'exhausted': False,
                               'truncation_reason': 'nodes',
                               'error': None,
                               'retained': 'threshold',
                               'attrs': {'tenant': 'university', 'paths': 0},
                               'spans': [(0, 'request'),
                                         (1, 'complete'),
                                         (2, 'parse'),
                                         (2, 'cache_lookup'),
                                         (2, 'traverse')]},
                              {'kind': 'serve.complete',
                               'query': 'ta ~~ name',
                               'exhausted': False,
                               'truncation_reason': None,
                               'error': 'PathSyntaxError: expected a relationship name, got '
                                        "'~' at position 4 in 'ta ~~ name'",
                               'retained': 'threshold',
                               'attrs': {'tenant': 'university'},
                               'spans': [(0, 'request'), (1, 'complete'), (2, 'parse')]},
                              {'kind': 'serve.complete',
                               'query': 'student.ghost',
                               'exhausted': False,
                               'truncation_reason': None,
                               'error': "NoCompletionError: class 'student' has no "
                                        "relationship 'ghost' (in student.ghost)",
                               'retained': 'threshold',
                               'attrs': {'tenant': 'university'},
                               'spans': [(0, 'request'),
                                         (1, 'complete'),
                                         (2, 'parse'),
                                         (2, 'cache_lookup')]},
                              {'kind': 'serve.query',
                               'query': 'get ta ~ name',
                               'exhausted': True,
                               'truncation_reason': None,
                               'error': None,
                               'retained': 'threshold',
                               'attrs': {'tenant': 'university'},
                               'spans': [(0, 'request'),
                                         (1, 'query'),
                                         (2, 'parse'),
                                         (2, 'complete'),
                                         (3, 'parse'),
                                         (3, 'cache_lookup'),
                                         (2, 'evaluate')]}]}
