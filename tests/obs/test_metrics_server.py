"""Scrape-endpoint lifecycle and labelled-series rendering.

The serving tier serves ``/metrics`` and leans on two contracts: a
lifecycle that releases its port (stop is idempotent, a port can be
bound again at once), and request-scoped labels riding inside flat
registry names (:func:`~repro.obs.metrics.labelled`) that render as
proper multi-series Prometheus families.
"""

import urllib.request

from repro.obs.metrics import MetricsRegistry, labelled, split_labels
from repro.obs.promtext import render_prometheus
from repro.serve import ServeConfig, ServingTier

from tests.serve.conftest import make_tier


def scrape(tier: ServingTier) -> str:
    with urllib.request.urlopen(tier.url + "/metrics", timeout=5.0) as response:
        return response.read().decode("utf-8")


class TestLifecycle:
    def test_stop_is_idempotent(self):
        registry = MetricsRegistry()
        registry.counter("cache.hits").inc(3)
        tier = make_tier({}, metrics=registry)
        assert "repro_cache_hits_total 3" in scrape(tier)
        tier.stop()
        tier.stop()  # second stop is a no-op, not an error

    def test_sequential_servers_can_reuse_a_port(self):
        registry = MetricsRegistry()
        first = make_tier({}, metrics=registry)
        _, port = first.address
        first.stop()
        # The port was released on stop: binding it again succeeds.
        second = make_tier({}, ServeConfig(port=port), metrics=registry)
        try:
            assert second.address[1] == port
            assert "repro_" in scrape(second)
        finally:
            second.stop()


class TestLabelledSeries:
    def test_round_trip(self):
        name = labelled("serve.requests", route="POST /v1/complete", status=200)
        base, labels = split_labels(name)
        assert base == "serve.requests"
        assert labels == {"route": "POST /v1/complete", "status": "200"}

    def test_no_labels_is_the_bare_name(self):
        assert labelled("serve.requests") == "serve.requests"
        assert split_labels("serve.requests") == ("serve.requests", {})

    def test_label_order_is_canonical(self):
        a = labelled("m", b=2, a=1)
        b = labelled("m", a=1, b=2)
        assert a == b  # same label set -> same series name

    def test_structural_characters_are_scrubbed_from_values(self):
        name = labelled("m", route="a=b,c|d\ne")
        _, labels = split_labels(name)
        assert labels == {"route": "a_b_c_d_e"}

    def test_labelled_counters_render_as_one_family(self):
        registry = MetricsRegistry()
        registry.counter(
            labelled("serve.requests", route="POST /v1/complete", status=200)
        ).inc(5)
        registry.counter(
            labelled("serve.requests", route="POST /v1/complete", status=429)
        ).inc(2)
        text = render_prometheus(registry)
        assert (
            'repro_serve_requests_total{route="POST /v1/complete",'
            'status="200"} 5' in text
        )
        assert (
            'repro_serve_requests_total{route="POST /v1/complete",'
            'status="429"} 2' in text
        )
        # One shared header for the family, not one per series.
        assert text.count("# TYPE repro_serve_requests_total counter") == 1

    def test_labelled_histogram_renders_with_labels(self):
        registry = MetricsRegistry()
        histogram = registry.histogram(
            labelled("serve.latency_ms", route="POST /v1/complete")
        )
        histogram.observe(1.5)
        histogram.observe(2.5)
        text = render_prometheus(registry)
        assert 'route="POST /v1/complete"' in text
        assert "repro_serve_latency_ms_count" in text
