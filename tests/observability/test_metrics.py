"""The unified metrics registry (collectors, renderers) and the histogram."""

import json

import pytest

from repro.observability.metrics import Histogram, MetricsRegistry


@pytest.fixture
def registry():
    return MetricsRegistry()


class TestHistogram:
    def test_cumulative_buckets(self):
        hist = Histogram("latency", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 0.7, 5.0):
            hist.observe(value)
        snap = hist.snapshot_one()
        assert snap["buckets"][0.1] == 1
        assert snap["buckets"][1.0] == 3
        assert snap["buckets"]["+Inf"] == 4
        assert snap["count"] == 4
        assert snap["sum"] == pytest.approx(6.25)

    def test_prometheus_samples_carry_le_label(self, registry):
        hist = Histogram("h", buckets=(1.0,))
        hist.observe(0.5)
        registry.register_collector(hist.samples)
        text = registry.render_prometheus()
        assert 'h_bucket{le="1.0"} 1' in text
        assert 'h_bucket{le="+Inf"} 1' in text
        assert "h_count 1" in text


class TestCollectors:
    def test_collector_read_lazily(self, registry):
        live = {"messages": 0}
        registry.register_collector(
            lambda: [("transport_messages_total", {}, float(live["messages"]))]
        )
        assert registry.snapshot()["transport_messages_total"] == 0
        live["messages"] = 7
        assert registry.snapshot()["transport_messages_total"] == 7

    def test_labeled_collector_samples(self, registry):
        registry.register_collector(
            lambda: [
                ("audit_events_total", {"node": "a"}, 2.0),
                ("audit_events_total", {"node": "b"}, 1.0),
            ]
        )
        snapshot = registry.snapshot()["audit_events_total"]
        assert {entry["labels"]["node"]: entry["value"] for entry in snapshot} == {
            "a": 2.0,
            "b": 1.0,
        }


class TestRenderers:
    def test_prometheus_text_format(self, registry):
        registry.register_collector(lambda: [("requests_total", {"code": "200"}, 3.0)])
        registry.register_collector(lambda: [("queue_depth", {}, 2.0)])
        text = registry.render_prometheus()
        assert "# TYPE requests_total counter" in text
        assert "# TYPE queue_depth gauge" in text
        assert 'requests_total{code="200"} 3' in text
        assert text.endswith("\n")

    def test_label_escaping(self, registry):
        registry.register_collector(lambda: [("c_total", {"path": 'a"b\\c'}, 1.0)])
        text = registry.render_prometheus()
        assert 'path="a\\"b\\\\c"' in text

    def test_render_json_round_trips(self, registry):
        registry.register_collector(lambda: [("g", {}, 1.5)])
        assert json.loads(registry.render_json())["g"] == 1.5

    def test_unlabeled_single_sample_is_scalar(self, registry):
        registry.register_collector(lambda: [("plain", {}, 4.0)])
        assert registry.snapshot()["plain"] == 4


class TestHistogramQuantiles:
    def test_empty_histogram_returns_none(self):
        hist = Histogram("h", buckets=(1.0, 2.0))
        assert hist.quantile(0.5) is None

    def test_single_observation_interpolates_within_bucket(self):
        hist = Histogram("h", buckets=(1.0, 2.0))
        hist.observe(1.5)
        # One observation in (1, 2]: every quantile lands in that bucket,
        # linearly interpolated from its lower edge.
        assert hist.quantile(0.0) == pytest.approx(1.0)
        assert hist.quantile(0.5) == pytest.approx(1.5)
        assert hist.quantile(1.0) == pytest.approx(2.0)

    def test_first_bucket_lower_edge_is_zero(self):
        hist = Histogram("h", buckets=(10.0,))
        hist.observe(3.0)
        # PromQL convention: first finite bucket spans [0, upper].
        assert hist.quantile(0.5) == pytest.approx(5.0)

    def test_quantile_at_exact_bucket_edge(self):
        hist = Histogram("h", buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 3.0, 3.5):
            hist.observe(value)
        # rank(0.25) == cumulative count of the first bucket: the estimate
        # must sit exactly on the bucket boundary, not beyond it.
        assert hist.quantile(0.25) == pytest.approx(1.0)
        assert hist.quantile(0.5) == pytest.approx(2.0)

    def test_all_mass_in_overflow_reports_highest_finite_bound(self):
        hist = Histogram("h", buckets=(1.0, 5.0))
        hist.observe(100.0)
        hist.observe(200.0)
        assert hist.quantile(0.5) == pytest.approx(5.0)
        assert hist.quantile(0.99) == pytest.approx(5.0)

    def test_overflow_only_histogram_without_finite_bounds(self):
        from repro.observability.metrics import estimate_quantile

        assert estimate_quantile((float("inf"),), [3], 0.5) is None

    def test_labels_partition_observations(self):
        hist = Histogram("h", buckets=(1.0, 2.0))
        hist.observe(0.5, op="read")
        hist.observe(1.5, op="write")
        assert hist.quantile(0.5, op="read") == pytest.approx(0.5)
        assert hist.quantile(0.5, op="write") == pytest.approx(1.5)
        assert hist.quantile(0.5, op="missing") is None

    def test_quantile_out_of_range_rejected(self):
        hist = Histogram("h")
        hist.observe(1.0)
        with pytest.raises(ValueError):
            hist.quantile(1.5)

    def test_nan_observation_keeps_inf_bucket_consistent(self):
        hist = Histogram("h", buckets=(1.0,))
        hist.observe(0.5)
        hist.observe(float("nan"))
        snap = hist.snapshot_one()
        # Prometheus invariant: the +Inf cumulative bucket equals _count,
        # even for NaN observations that compare False against every bound.
        assert snap["buckets"]["+Inf"] == snap["count"] == 2
        assert snap["buckets"][1.0] == 1

    def test_inf_observation_lands_in_overflow(self):
        hist = Histogram("h", buckets=(1.0,))
        hist.observe(float("inf"))
        snap = hist.snapshot_one()
        assert snap["buckets"]["+Inf"] == snap["count"] == 1
        assert snap["buckets"][1.0] == 0
