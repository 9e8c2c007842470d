"""Unit and property coverage for the stdlib metrics registry.

The histogram property tests pin the two contracts the serving layer
relies on:

* **merge preserves counts** — folding histogram B into histogram A
  yields exactly the bucket counts of observing A's and B's samples
  into one histogram (fixed shared bucket ladders make aggregation
  across tenants/processes lossless);
* **quantile bracketing** — the nearest-rank quantile estimate is the
  upper bound of the bucket holding the true nearest-rank sample, so
  the true value always lies in ``bracket(q)``'s ``(lower, upper]``.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import (
    Gauge,
    Histogram,
    MetricsRegistry,
    default_buckets,
)

samples = st.lists(
    st.floats(
        min_value=1e-7, max_value=1e4,
        allow_nan=False, allow_infinity=False,
    ),
    min_size=1,
    max_size=200,
)


def true_nearest_rank(values, fraction):
    ordered = sorted(values)
    rank = max(1, min(len(ordered), int(fraction * len(ordered)) + 1))
    return ordered[rank - 1]


class TestHistogramProperties:
    @settings(max_examples=200, deadline=None)
    @given(a=samples, b=samples)
    def test_merge_preserves_bucket_counts_exactly(self, a, b):
        left, right, combined = Histogram(), Histogram(), Histogram()
        for value in a:
            left.observe(value)
            combined.observe(value)
        for value in b:
            right.observe(value)
            combined.observe(value)
        left.merge(right)
        assert left.counts == combined.counts
        assert left.count == combined.count == len(a) + len(b)
        assert math.isclose(left.sum, combined.sum, rel_tol=1e-9)
        assert left.max == combined.max

    @settings(max_examples=200, deadline=None)
    @given(
        values=samples,
        fraction=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_quantile_estimate_brackets_the_true_quantile(
        self, values, fraction
    ):
        hist = Histogram()
        for value in values:
            hist.observe(value)
        true_q = true_nearest_rank(values, fraction)
        estimate = hist.quantile(fraction)
        lower, upper = hist.bracket(fraction)
        assert estimate == upper
        assert lower < true_q <= upper

    @settings(max_examples=100, deadline=None)
    @given(values=samples)
    def test_overflow_quantile_reports_the_observed_max(self, values):
        hist = Histogram(buckets=(1e-7,))  # everything overflows
        for value in values:
            hist.observe(value)
        assert hist.quantile(1.0) == max(values)


class TestHistogramUnits:
    def test_default_buckets_are_log_spaced(self):
        bounds = default_buckets()
        assert len(bounds) == 26
        assert bounds[0] == pytest.approx(1e-5)
        for lower, upper in zip(bounds, bounds[1:]):
            assert upper == pytest.approx(lower * 2.0)

    def test_merge_rejects_different_bucket_ladders(self):
        with pytest.raises(ValueError):
            Histogram().merge(Histogram(buckets=(1.0, 2.0)))

    def test_empty_histogram_quantiles_are_zero(self):
        hist = Histogram()
        assert hist.quantile(0.5) == 0.0
        assert hist.bracket(0.5) == (0.0, 0.0)
        assert hist.to_json()["count"] == 0

    def test_to_json_shape(self):
        hist = Histogram()
        hist.observe(0.001)
        payload = hist.to_json()
        assert set(payload) == {"count", "sum", "max", "p50", "p95", "p99"}
        assert payload["count"] == 1


class TestRegistry:
    def test_get_or_create_returns_the_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("a_total") is registry.counter("a_total")
        assert registry.counter("b_total", x="1") is not registry.counter(
            "b_total", x="2"
        )

    def test_family_type_conflicts_are_rejected(self):
        registry = MetricsRegistry()
        registry.counter("thing_total")
        with pytest.raises(ValueError):
            registry.gauge("thing_total")
        with pytest.raises(ValueError):
            registry.histogram("thing_total", y="1")

    def test_label_values_cannot_forge_series(self):
        """A label value from outside (a follower endpoint) is escaped,
        so it renders as one series and never starts a line of its own."""
        registry = MetricsRegistry()
        registry.gauge(
            "lag", follower='evil"} 1\nrepro_fake 9:80\\'
        ).set(3)
        samples = [
            line
            for line in registry.render_prometheus().splitlines()
            if not line.startswith("#")
        ]
        assert samples == [
            'lag{follower="evil\\"} 1\\nrepro_fake 9:80\\\\"} 3'
        ]

    def test_collectors_run_at_scrape_time_only(self):
        registry = MetricsRegistry()
        calls = []
        registry.register_collector(
            lambda: (calls.append(1),
                     registry.gauge("derived").set(len(calls)))
        )
        assert calls == []
        registry.render_prometheus()
        assert len(calls) == 1
        registry.render_json()
        assert len(calls) == 2

    def test_prometheus_exposition_shape(self):
        registry = MetricsRegistry()
        registry.counter("req_total", "Requests").inc(3)
        registry.gauge("temp", "Temperature").set(2.5)
        hist = registry.histogram("lat_seconds", "Latency", op="implies")
        hist.observe(2e-5)
        hist.observe(3e-5)
        text = registry.render_prometheus()
        lines = text.splitlines()
        assert "# TYPE req_total counter" in lines
        assert "# HELP req_total Requests" in lines
        assert "req_total 3" in lines
        assert "temp 2.5" in lines
        # Histogram: cumulative buckets, +Inf equals the total count.
        assert 'lat_seconds_bucket{le="+Inf",op="implies"} 2' in lines
        assert 'lat_seconds_count{op="implies"} 2' in lines
        # One TYPE line per family even with labeled children.
        registry.histogram("lat_seconds", buckets=None, op="mutate")
        text = registry.render_prometheus()
        assert text.count("# TYPE lat_seconds histogram") == 1

    def test_render_json_sections(self):
        registry = MetricsRegistry()
        registry.counter("a_total").inc()
        registry.gauge("b").set(4)
        registry.histogram("c_seconds", op="x").observe(0.1)
        payload = registry.render_json()
        assert payload["counters"] == {"a_total": 1}
        assert payload["gauges"] == {"b": 4}
        assert payload["histograms"]['c_seconds{op="x"}']["count"] == 1

    def test_gauge_arithmetic(self):
        gauge = Gauge("g")
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(3)
        assert gauge.value == 12
