"""Metrics registry unit tests: percentile math, merge, rendering."""

from __future__ import annotations

import pytest

from repro.obs import Histogram, MetricsRegistry, percentile


class TestPercentile:
    def test_exact_on_0_to_100(self):
        """With values 0..100, pN is exactly N (rank lands on a value)."""
        values = list(range(101))
        assert percentile(values, 50.0) == 50.0
        assert percentile(values, 95.0) == 95.0
        assert percentile(values, 99.0) == 99.0
        assert percentile(values, 0.0) == 0.0
        assert percentile(values, 100.0) == 100.0

    def test_linear_interpolation_between_ranks(self):
        # rank = (q/100) * (n-1); p50 of [1, 2, 3, 4] sits at rank 1.5.
        assert percentile([1.0, 2.0, 3.0, 4.0], 50.0) == 2.5
        assert percentile([1.0, 2.0, 3.0, 4.0], 25.0) == 1.75

    def test_order_independent(self):
        assert percentile([3.0, 1.0, 2.0], 50.0) == 2.0

    def test_single_value(self):
        assert percentile([7.0], 99.0) == 7.0

    def test_empty_and_out_of_range_raise(self):
        with pytest.raises(ValueError):
            percentile([], 50.0)
        with pytest.raises(ValueError):
            percentile([1.0], 101.0)
        with pytest.raises(ValueError):
            percentile([1.0], -1.0)


class TestHistogram:
    def test_summary_keys(self):
        histogram = Histogram()
        for value in (1.0, 2.0, 3.0, 4.0):
            histogram.observe(value)
        summary = histogram.summary()
        assert summary["count"] == 4
        assert summary["min"] == 1.0
        assert summary["max"] == 4.0
        assert summary["mean"] == 2.5
        assert summary["p50"] == 2.5
        assert set(summary) == {
            "count", "min", "max", "mean", "p50", "p95", "p99"
        }

    def test_empty_summary(self):
        assert Histogram().summary() == {"count": 0}


class TestMetricsRegistry:
    def test_counters_gauges_histograms(self):
        registry = MetricsRegistry()
        registry.count("chases")
        registry.count("chases", 2)
        registry.gauge("rows", 10)
        registry.gauge("rows", 12)  # last write wins
        for value in range(101):
            registry.observe("seconds", float(value))
        rendered = registry.as_dict()
        assert rendered["counters"] == {"chases": 3}
        assert rendered["gauges"] == {"rows": 12}
        summary = rendered["histograms"]["seconds"]
        assert summary["count"] == 101
        assert summary["p50"] == 50.0
        assert summary["p95"] == 95.0
        assert summary["p99"] == 99.0

    def test_merge_pools_everything(self):
        one, two = MetricsRegistry(), MetricsRegistry()
        one.count("c", 1)
        two.count("c", 2)
        two.count("only-two")
        one.gauge("g", 1)
        two.gauge("g", 9)
        one.observe("h", 1.0)
        two.observe("h", 3.0)
        one.merge(two)
        rendered = one.as_dict()
        assert rendered["counters"] == {"c": 3, "only-two": 1}
        assert rendered["gauges"]["g"] == 9
        assert rendered["histograms"]["h"]["count"] == 2
        assert rendered["histograms"]["h"]["mean"] == 2.0

    def test_absorb_counters_routes_non_numeric_to_gauges(self):
        registry = MetricsRegistry()
        registry.absorb_counters(
            {"pairs_compared": 5, "mode": "enforce"}
        )
        rendered = registry.as_dict()
        assert rendered["counters"]["pairs_compared"] == 5
        assert rendered["gauges"]["mode"] == "enforce"
