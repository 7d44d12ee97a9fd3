"""Unit tests for the metrics registry: exactness, exposition, quantiles."""

from __future__ import annotations

import json
import math
import threading

import pytest

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    histogram_quantile,
    parse_prometheus,
)


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        counter = Counter()
        assert counter.value == 0
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_rejects_negative_increments(self):
        with pytest.raises(ValueError, match="monotonic"):
            Counter().inc(-1)

    def test_set_exact_refuses_to_regress(self):
        counter = Counter()
        counter.set_exact(10)
        counter.set_exact(10)  # idempotent re-scrape is fine
        with pytest.raises(ValueError, match="regress"):
            counter.set_exact(9)

    def test_concurrent_increments_are_exact(self):
        counter = Counter()

        def worker():
            for _ in range(1000):
                counter.inc()

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == 8000


class TestGauge:
    def test_moves_both_ways(self):
        gauge = Gauge()
        gauge.set(5)
        gauge.inc(2)
        gauge.dec(4)
        assert gauge.value == 3


class TestHistogram:
    def test_default_buckets_are_exponential(self):
        assert len(DEFAULT_LATENCY_BUCKETS) == 16
        assert DEFAULT_LATENCY_BUCKETS[0] == pytest.approx(0.0005)
        ratios = [b2 / b1 for b1, b2 in zip(DEFAULT_LATENCY_BUCKETS,
                                            DEFAULT_LATENCY_BUCKETS[1:])]
        assert all(r == pytest.approx(2.0) for r in ratios)

    def test_rejects_non_increasing_bounds(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram(buckets=[1.0, 1.0, 2.0])

    def test_snapshot_is_cumulative_with_inf_tail(self):
        hist = Histogram(buckets=[1.0, 2.0, 4.0])
        for value in (0.5, 1.5, 3.0, 100.0):
            hist.observe(value)
        snap = hist.snapshot()
        assert snap["buckets"] == [[1.0, 1], [2.0, 2], [4.0, 3],
                                   [math.inf, 4]]
        assert snap["count"] == 4
        assert snap["sum"] == pytest.approx(105.0)

    def test_boundary_value_lands_in_its_le_bucket(self):
        hist = Histogram(buckets=[1.0, 2.0])
        hist.observe(1.0)  # le is inclusive (Prometheus convention)
        assert hist.snapshot()["buckets"][0] == [1.0, 1]

    def test_quantile_interpolates_within_bucket(self):
        hist = Histogram(buckets=[1.0, 2.0, 4.0])
        for _ in range(100):
            hist.observe(1.5)
        # All mass in (1, 2]; the median interpolates inside that bucket.
        assert 1.0 < hist.quantile(0.5) <= 2.0

    def test_quantile_of_empty_histogram_is_nan(self):
        assert math.isnan(Histogram().quantile(0.5))

    def test_quantile_range_validated(self):
        with pytest.raises(ValueError, match="quantile"):
            Histogram().quantile(1.5)

    def test_overflow_bucket_clamps_to_lower_bound(self):
        hist = Histogram(buckets=[1.0])
        hist.observe(50.0)
        assert hist.quantile(0.99) == pytest.approx(1.0)


class TestHistogramQuantile:
    """The snapshot-level estimator that :meth:`Histogram.quantile` uses."""

    @staticmethod
    def two_regimes():
        hist = Histogram(buckets=[1.0, 2.0, 4.0])
        for _ in range(10):
            hist.observe(0.5)
        for _ in range(10):
            hist.observe(3.0)
        return hist

    @pytest.mark.parametrize("q, expected", [
        (0.0, 0.0), (0.25, 0.5), (0.5, 1.0), (0.75, 3.0), (1.0, 4.0)])
    def test_interpolates_inside_the_containing_bucket(self, q, expected):
        hist = self.two_regimes()
        assert histogram_quantile(hist.snapshot(), q) == pytest.approx(
            expected)
        assert hist.quantile(q) == histogram_quantile(hist.snapshot(), q)

    def test_reads_a_plain_snapshot_dict(self):
        snapshot = {"buckets": [[1.0, 2], [math.inf, 4]], "count": 4,
                    "sum": 12.0}
        assert histogram_quantile(snapshot, 0.5) == pytest.approx(1.0)
        assert histogram_quantile(snapshot, 0.9) == pytest.approx(1.0)

    def test_empty_snapshot_is_nan(self):
        assert math.isnan(histogram_quantile(Histogram().snapshot(), 0.5))

    @pytest.mark.parametrize("q", [-0.1, 1.5])
    def test_quantile_range_validated(self, q):
        with pytest.raises(ValueError, match="quantile"):
            histogram_quantile(self.two_regimes().snapshot(), q)

    def test_takes_no_baseline_snapshot(self):
        snapshot = self.two_regimes().snapshot()
        with pytest.raises(TypeError):
            histogram_quantile(snapshot, 0.5, baseline=snapshot)


class TestRegistry:
    def test_get_or_create_is_idempotent(self):
        registry = MetricsRegistry()
        a = registry.counter("repro_x_total", "help")
        b = registry.counter("repro_x_total")
        a.inc()
        assert b.value == 1

    def test_type_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("repro_x_total")

    def test_label_set_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total", labels=("tier",))
        with pytest.raises(ValueError, match="already registered"):
            registry.counter("repro_x_total", labels=("node",))

    def test_labeled_family_validates_label_names(self):
        registry = MetricsRegistry()
        family = registry.counter("repro_hits_total", labels=("tier",))
        family.labels(tier="tier1").inc(3)
        with pytest.raises(ValueError, match="takes labels"):
            family.labels(shard="a")

    def test_snapshot_shape_and_inf_serialization(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total", "things").inc(2)
        registry.histogram("repro_lat_seconds", buckets=[1.0]).observe(0.5)
        snap = registry.snapshot()
        assert snap["repro_x_total"]["type"] == "counter"
        assert snap["repro_x_total"]["samples"] == [
            {"labels": {}, "value": 2}]
        buckets = snap["repro_lat_seconds"]["samples"][0]["buckets"]
        assert buckets == [[1.0, 1], ["+Inf", 1]]
        json.dumps(snap)  # the whole snapshot must be JSON-compatible

    def test_snapshot_is_json_round_trippable(self):
        registry = MetricsRegistry()
        registry.gauge("repro_depth").set(7)
        assert json.loads(registry.to_json()) == registry.snapshot()


class TestExposition:
    def build(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        registry.counter("repro_requests_total", "Requests").inc(42)
        hits = registry.counter("repro_cache_hits_total", "Hits by tier",
                                labels=("tier",))
        hits.labels(tier="tier1").inc(30)
        hits.labels(tier="tier2").inc(5)
        registry.gauge("repro_pending").set(3)
        hist = registry.histogram("repro_latency_seconds", "Latency",
                                  buckets=[0.1, 1.0])
        hist.observe(0.05)
        hist.observe(5.0)
        return registry

    def test_render_contains_help_type_and_samples(self):
        text = self.build().render_prometheus()
        assert "# HELP repro_requests_total Requests" in text
        assert "# TYPE repro_requests_total counter" in text
        assert "repro_requests_total 42" in text
        assert 'repro_cache_hits_total{tier="tier1"} 30' in text
        assert 'repro_latency_seconds_bucket{le="+Inf"} 2' in text
        assert "repro_latency_seconds_count 2" in text

    def test_parse_inverts_render(self):
        registry = self.build()
        parsed = parse_prometheus(registry.render_prometheus())
        assert parsed["repro_requests_total"]["{}"] == 42.0
        assert parsed["repro_cache_hits_total"][
            json.dumps({"tier": "tier1"})] == 30.0
        assert parsed["repro_latency_seconds_bucket"][
            json.dumps({"le": "0.1"})] == 1.0
        assert parsed["repro_latency_seconds_sum"]["{}"] == \
            pytest.approx(5.05)

    def test_label_values_survive_escaping(self):
        registry = MetricsRegistry()
        family = registry.counter("repro_x_total", labels=("name",))
        tricky = 'a"b\\c\nd'
        family.labels(name=tricky).inc()
        parsed = parse_prometheus(registry.render_prometheus())
        assert parsed["repro_x_total"][
            json.dumps({"name": tricky})] == 1.0

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError, match="value"):
            parse_prometheus("repro_x_total notanumber")
