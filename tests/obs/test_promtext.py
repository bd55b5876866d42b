"""Tests for the Prometheus exposition renderer and the tier's scrape
endpoints."""

import json
import math
import urllib.error
import urllib.request

from repro.core.compiled import compile_schema, invalidate
from repro.obs.metrics import RESERVOIR_SIZE, MetricsRegistry
from repro.schemas.university import build_university_schema
from repro.obs.promtext import (
    DEFAULT_BUCKET_BOUNDS,
    render_prometheus,
    write_prometheus,
)
from tests.serve.conftest import make_tier


def _parse_exposition(text: str):
    """A minimal pure-stdlib parser for exposition format 0.0.4.

    Returns ``(types, samples)``: family name -> declared type, and
    sample name -> list of ``(labels_dict, value)``.
    """
    types: dict[str, str] = {}
    samples: dict[str, list[tuple[dict, float]]] = {}
    for line in text.splitlines():
        if not line or line.startswith("# HELP"):
            continue
        if line.startswith("# TYPE"):
            _, _, family, kind = line.split(maxsplit=3)
            types[family] = kind
            continue
        name_part, value_part = line.rsplit(" ", 1)
        labels: dict = {}
        if "{" in name_part:
            name, raw = name_part[:-1].split("{", 1)
            for pair in raw.split(","):
                key, raw_value = pair.split("=", 1)
                labels[key] = raw_value.strip('"')
        else:
            name = name_part
        value = float(value_part) if value_part != "+Inf" else math.inf
        samples.setdefault(name, []).append((labels, value))
    return types, samples


def _populated_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("cache.hits").inc(7)
    registry.counter("budget.trips").inc(2)
    registry.gauge("cache.hit_ratio").set(0.875)
    latency = registry.histogram("query.elapsed_seconds")
    for value in [0.0001, 0.004, 0.004, 0.2, 3.0]:
        latency.observe(value)
    return registry


class TestRenderRoundTrip:
    def test_counts_match_as_dict_exactly(self):
        registry = _populated_registry()
        types, samples = _parse_exposition(render_prometheus(registry))
        summary = registry.as_dict()

        for name, value in summary["counters"].items():
            family = "repro_" + name.replace(".", "_") + "_total"
            assert types[family] == "counter"
            assert samples[family] == [({}, value)]
        for name, value in summary["gauges"].items():
            family = "repro_" + name.replace(".", "_")
            assert types[family] == "gauge"
            assert samples[family] == [({}, value)]
        for name, snapshot in summary["histograms"].items():
            family = "repro_" + name.replace(".", "_")
            assert types[family] == "histogram"
            assert samples[family + "_count"] == [({}, snapshot["count"])]
            assert samples[family + "_sum"] == [({}, snapshot["sum"])]

    def test_histogram_buckets_are_cumulative_and_end_at_inf(self):
        registry = _populated_registry()
        _, samples = _parse_exposition(render_prometheus(registry))
        buckets = samples["repro_query_elapsed_seconds_bucket"]
        assert all(set(labels) == {"le"} for labels, _ in buckets)
        counts = [value for _, value in buckets]
        assert counts == sorted(counts)  # cumulative => monotone
        last_labels, last_count = buckets[-1]
        assert last_labels["le"] == "+Inf"
        assert last_count == 5  # exactly the observation count
        # bounds parse back as increasing floats (the +Inf label aside)
        bounds = [float(labels["le"]) for labels, _ in buckets[:-1]]
        assert bounds == sorted(bounds)

    def test_bucket_counts_are_exact_while_unsaturated(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h")
        values = [0.5, 1.0, 2.0, 7.0, 7.0, 1000.0]
        for value in values:
            histogram.observe(value)
        assert len(values) < RESERVOIR_SIZE
        _, samples = _parse_exposition(render_prometheus(registry))
        for labels, count in samples["repro_h_bucket"]:
            bound = (
                math.inf if labels["le"] == "+Inf" else float(labels["le"])
            )
            assert count == sum(1 for v in values if v <= bound)

    def test_names_are_sanitized_to_prometheus_grammar(self):
        registry = MetricsRegistry()
        registry.counter("weird.name-with~chars").inc()
        text = render_prometheus(registry)
        types, samples = _parse_exposition(text)
        assert "repro_weird_name_with_chars_total" in types
        import re

        for family in samples:
            assert re.fullmatch(r"[a-zA-Z_:][a-zA-Z0-9_:]*", family)

    def test_empty_registry_renders_empty(self):
        assert render_prometheus(MetricsRegistry()) == ""

    def test_write_prometheus_to_file(self, tmp_path):
        target = tmp_path / "metrics.prom"
        count = write_prometheus(_populated_registry(), target)
        text = target.read_text()
        assert count == len(text.splitlines()) > 0
        assert "# TYPE repro_cache_hits_total counter" in text

    def test_default_bounds_are_sorted_and_finite(self):
        assert list(DEFAULT_BUCKET_BOUNDS) == sorted(DEFAULT_BUCKET_BOUNDS)
        assert all(math.isfinite(bound) for bound in DEFAULT_BUCKET_BOUNDS)


class TestMetricsServer:
    """The serving tier is the metrics server: ``/metrics`` and
    ``/healthz``."""

    def test_scrape_matches_direct_render(self):
        registry = _populated_registry()
        expected = render_prometheus(registry)
        tier = make_tier({}, metrics=registry)
        try:
            with urllib.request.urlopen(
                tier.url + "/metrics", timeout=10
            ) as response:
                assert response.status == 200
                assert response.headers["Content-Type"].startswith(
                    "text/plain; version=0.0.4"
                )
                body = response.read().decode("utf-8")
        finally:
            tier.stop(drain=False)
        # The tier adds its own gauges before rendering; every line of
        # the registry's own rendering is served unchanged.
        served = set(body.splitlines())
        assert [line for line in expected.splitlines() if line not in served] == []

    def test_healthz_and_404(self):
        registry = MetricsRegistry()
        # Start from an empty artifact registry so the snapshot holds
        # exactly what this test compiles, whatever ran before it.
        invalidate()
        compiled = compile_schema(build_university_schema())
        compiled.complete_simple("ta", "name")
        tier = make_tier({}, metrics=registry)
        try:
            with urllib.request.urlopen(
                tier.url + "/healthz", timeout=10
            ) as response:
                assert response.headers["Content-Type"] == "application/json"
                payload = json.loads(response.read())
            assert payload["status"] == "ok"
            registry_info = payload["registry"]
            assert registry_info["artifacts"] >= 1
            assert registry_info["artifacts"] == len(registry_info["entries"])
            ours = [
                entry
                for entry in registry_info["entries"]
                if entry["fingerprint"] == compiled.fingerprint[:12]
            ]
            assert len(ours) == 1
            assert ours[0]["lineage_depth"] == len(compiled.lineage)
            assert ours[0]["completion_cache"]["size"] == len(compiled.cache)
            assert registry_info["cached_completions"] >= 1
            assert registry_info["max_lineage_depth"] >= 0
            try:
                urllib.request.urlopen(tier.url + "/nope", timeout=10)
                raise AssertionError("expected HTTP 404")
            except urllib.error.HTTPError as error:
                assert error.code == 404
        finally:
            tier.stop(drain=False)

    def test_scrape_sees_live_updates(self):
        registry = MetricsRegistry()
        tier = make_tier({}, metrics=registry)
        try:
            registry.counter("ticks").inc()
            with urllib.request.urlopen(tier.url + "/metrics", timeout=10) as response:
                first = response.read().decode()
            registry.counter("ticks").inc(4)
            with urllib.request.urlopen(tier.url + "/metrics", timeout=10) as response:
                second = response.read().decode()
        finally:
            tier.stop(drain=False)
        assert "repro_ticks_total 1" in first
        assert "repro_ticks_total 5" in second
