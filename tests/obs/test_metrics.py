"""Tests for the metrics registry (repro.obs.metrics)."""

import sys
import threading

import pytest

from repro.core.stats import TraversalStats
from repro.obs.metrics import (
    RESERVOIR_SIZE,
    MetricsRegistry,
    NullMetricsRegistry,
    get_metrics,
    use_metrics,
)
from repro.obs.schema import validate_metrics_summary


class TestPrimitives:
    def test_counter(self):
        registry = MetricsRegistry()
        counter = registry.counter("calls")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        assert registry.counter("calls") is counter

    def test_counter_rejects_decrease(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("c").inc(-1)

    def test_gauge_keeps_latest(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(3.5)
        gauge.set(1.0)
        assert gauge.value == 1.0

    def test_histogram_snapshot(self):
        histogram = MetricsRegistry().histogram("h")
        for value in [1, 2, 3, 4, 100]:
            histogram.observe(value)
        snapshot = histogram.snapshot()
        assert snapshot["count"] == 5
        assert snapshot["sum"] == 110
        assert snapshot["min"] == 1
        assert snapshot["max"] == 100
        assert snapshot["mean"] == 22
        assert snapshot["p50"] == 3

    def test_empty_histogram_snapshot_is_zeroed(self):
        snapshot = MetricsRegistry().histogram("h").snapshot()
        assert snapshot["count"] == 0
        assert snapshot["min"] == 0.0

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("name")
        with pytest.raises(TypeError):
            registry.gauge("name")

    def test_kind_conflict_raises_for_every_other_kind(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        registry.histogram("h")
        for name, other in (("c", registry.histogram), ("h", registry.counter)):
            with pytest.raises(TypeError):
                other(name)
        # The failed lookups neither replaced nor duplicated the metric.
        assert registry.counter("c") is counter
        assert len(registry) == 2

    def test_get_or_create_is_one_instance_under_threads(self):
        registry = MetricsRegistry()
        names = [f"series.{index}" for index in range(50)]
        threads = 8
        barrier = threading.Barrier(threads)
        seen: list[list] = [[] for _ in range(threads)]
        errors: list[BaseException] = []

        def worker(slot: int) -> None:
            try:
                barrier.wait()
                for name in names:
                    metric = registry.counter(name)
                    metric.inc()
                    seen[slot].append(metric)
                with pytest.raises(TypeError):
                    registry.histogram(names[slot])
            except BaseException as error:  # pragma: no cover - reported
                errors.append(error)

        pool = [
            threading.Thread(target=worker, args=(slot,))
            for slot in range(threads)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in pool)
        assert errors == []
        for index, name in enumerate(names):
            instances = {id(seen[slot][index]) for slot in range(threads)}
            assert instances == {id(registry.counter(name))}
            assert registry.counter(name).value == threads
        assert len(registry) == len(names)

    def test_snapshot_includes_p99(self):
        histogram = MetricsRegistry().histogram("h")
        for value in range(1, 101):
            histogram.observe(value)
        snapshot = histogram.snapshot()
        assert snapshot["p99"] >= snapshot["p95"] >= snapshot["p50"]
        assert snapshot["p99"] >= 99
        empty = MetricsRegistry().histogram("e").snapshot()
        assert empty["p99"] == 0.0


class TestReservoirSampling:
    """Regression tests for the Algorithm-R histogram reservoir.

    The original reservoir appended only while unsaturated, so the
    first RESERVOIR_SIZE observations were kept forever and any later
    distribution shift was invisible to the percentiles.
    """

    def test_distribution_shift_after_saturation_moves_p95(self):
        histogram = MetricsRegistry().histogram("latency")
        for _ in range(RESERVOIR_SIZE):
            histogram.observe(1.0)
        assert histogram.snapshot()["p95"] == 1.0
        # The workload degrades *after* the reservoir is full: 3x as
        # many slow observations arrive.  A keep-the-first-N reservoir
        # would still report p95 == 1.0.
        for _ in range(3 * RESERVOIR_SIZE):
            histogram.observe(100.0)
        snapshot = histogram.snapshot()
        assert snapshot["p95"] == 100.0
        assert snapshot["p50"] == 100.0

    def test_count_sum_min_max_stay_exact_past_saturation(self):
        histogram = MetricsRegistry().histogram("h")
        total = 2 * RESERVOIR_SIZE
        for value in range(total):
            histogram.observe(float(value))
        snapshot = histogram.snapshot()
        assert snapshot["count"] == total
        assert snapshot["sum"] == sum(range(total))
        assert snapshot["min"] == 0.0
        assert snapshot["max"] == float(total - 1)

    def test_sampling_is_seeded_and_deterministic(self):
        def build():
            histogram = MetricsRegistry().histogram("h")
            for value in range(3 * RESERVOIR_SIZE):
                histogram.observe(float(value))
            return histogram.snapshot()

        assert build() == build()

    def test_cumulative_buckets_are_monotone_and_end_at_inf(self):
        histogram = MetricsRegistry().histogram("h")
        for value in [0.5, 1.5, 2.5, 99.0]:
            histogram.observe(value)
        buckets = histogram.cumulative_buckets((1.0, 2.0, 10.0))
        bounds = [bound for bound, _ in buckets]
        counts = [count for _, count in buckets]
        assert bounds == [1.0, 2.0, 10.0, float("inf")]
        assert counts == sorted(counts)
        assert counts[-1] == 4  # +Inf bucket always equals the count
        assert counts[0] == 1 and counts[1] == 2 and counts[2] == 3


class TestAmbientRegistry:
    def test_default_is_noop(self):
        registry = get_metrics()
        assert isinstance(registry, NullMetricsRegistry)
        assert registry.is_noop
        # Full interface available and inert.
        registry.counter("x").inc()
        registry.gauge("x").set(1)
        registry.histogram("x").observe(1)
        registry.record_completion(TraversalStats())
        registry.record_compile(0.1)
        registry.record_cache(True)
        assert registry.as_dict()["counters"] == {}

    def test_use_metrics_scopes_installation(self):
        registry = MetricsRegistry()
        with use_metrics(registry):
            assert get_metrics() is registry
        assert get_metrics().is_noop


class TestTraversalStatsFeed:
    def test_record_completion_feeds_counters_and_histograms(self):
        registry = MetricsRegistry()
        stats = TraversalStats(
            recursive_calls=10,
            edges_considered=20,
            complete_paths_found=2,
            pruned_visited=3,
            pruned_target_bound=4,
            pruned_best_bound=5,
            rescued_by_caution=1,
            elapsed_seconds=0.5,
        )
        stats.record_to(registry)
        summary = registry.as_dict()
        assert summary["counters"]["completions"] == 1
        assert summary["counters"]["traversal.recursive_calls"] == 10
        assert summary["counters"]["prune.visited"] == 3
        assert summary["counters"]["prune.target_bound"] == 4
        assert summary["counters"]["prune.best_bound"] == 5
        assert summary["counters"]["prune.caution_rescues"] == 1
        assert summary["histograms"]["query.recursive_calls"]["count"] == 1
        assert summary["histograms"]["query.elapsed_seconds"]["sum"] == 0.5

    def test_cache_hit_skips_work_counters_but_feeds_histograms(self):
        registry = MetricsRegistry()
        stats = TraversalStats(recursive_calls=10)
        registry.record_completion(stats, cached=False)
        registry.record_completion(stats, cached=True)
        summary = registry.as_dict()
        # Work counted once (the cold run), distribution observed twice.
        assert summary["counters"]["traversal.recursive_calls"] == 10
        assert summary["histograms"]["query.recursive_calls"]["count"] == 2
        assert summary["counters"]["cache.hits"] == 1
        assert summary["counters"]["cache.misses"] == 1
        assert summary["gauges"]["cache.hit_ratio"] == 0.5

    def test_record_cache_updates_hit_ratio(self):
        registry = MetricsRegistry()
        registry.record_cache(True)
        registry.record_cache(True)
        registry.record_cache(False)
        assert registry.as_dict()["gauges"]["cache.hit_ratio"] == pytest.approx(
            2 / 3
        )

    def test_summary_validates_against_checked_in_schema(self):
        registry = MetricsRegistry()
        registry.record_completion(TraversalStats(recursive_calls=5), cached=False)
        registry.record_compile(0.25)
        validate_metrics_summary(registry.as_dict())
