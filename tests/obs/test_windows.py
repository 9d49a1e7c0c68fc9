"""Windowed histograms: ring recycling, quantiles, expiry, family merge."""

from __future__ import annotations

import pytest

from repro.obs import MetricsRegistry, set_enabled
from repro.util.clock import VirtualClock


def windowed(clock, buckets=(0.01, 0.1, 1.0), labelnames=()):
    """A registry on ``clock`` and its one windowed histogram, ``op_seconds``."""
    registry = MetricsRegistry(component="test", node_id="n0", clock=clock)
    family = registry.histogram("op_seconds", "Op latency.",
                                labelnames=labelnames, buckets=buckets,
                                window=True)
    return registry, family


class TestWindowedSeries:
    def test_summary_of_recent_observations(self):
        registry, family = windowed(VirtualClock())
        for value in (0.005, 0.005, 0.05, 0.5):
            family.observe(value)
        summary = registry.window_summary("op_seconds")
        assert summary["count"] == 4
        assert summary["sum"] == 0.005 + 0.005 + 0.05 + 0.5
        assert summary["max"] == 0.5
        assert summary["mean"] == summary["sum"] / 4
        # 4 observations: p50 lands in the first bucket, p99 in the last
        # occupied one (bucket-upper-bound estimates).
        assert summary["p50"] == 0.01
        assert summary["p99"] == 1.0

    def test_observations_expire_after_the_window(self):
        clock = VirtualClock()
        registry, family = windowed(clock)
        family.observe(1.0)
        clock.advance(30)
        assert registry.window_summary("op_seconds")["count"] == 1
        clock.advance(31)  # past the 60s window
        summary = registry.window_summary("op_seconds")
        assert summary["count"] == 0
        assert summary["p99"] == 0.0
        assert family.count == 1  # the lifetime view keeps it

    def test_ring_slots_recycle_in_place(self):
        clock = VirtualClock()
        registry, family = windowed(clock)
        family.observe(1.0)
        # One full lap of the ring later, the same slot holds the new epoch
        # only: the stale bucket must not leak into the summary.
        clock.advance(60.0)
        family.observe(2.0)
        summary = registry.window_summary("op_seconds")
        assert summary["count"] == 1
        assert summary["max"] == 2.0

    def test_rate_is_count_over_window(self):
        registry, family = windowed(VirtualClock())
        for _ in range(6):
            family.observe(0.001)
        assert registry.window_summary("op_seconds")["rate"] == 0.1

    def test_quantile_beyond_largest_bound_reports_window_max(self):
        registry, family = windowed(VirtualClock(), buckets=(0.1,))
        family.observe(7.5)
        assert registry.window_summary("op_seconds")["p99"] == 7.5

    def test_kill_switch_suppresses_observations(self):
        registry, family = windowed(VirtualClock())
        set_enabled(False)
        try:
            family.observe(1.0)
        finally:
            set_enabled(True)
        assert registry.window_summary("op_seconds")["count"] == 0
        assert family.count == 0


class TestRegistryIntegration:
    def test_window_summary_merges_the_familys_series(self):
        registry, family = windowed(VirtualClock(), buckets=(0.1, 1.0),
                                    labelnames=("op",))
        family.labels(op="read").observe(0.05)
        family.labels(op="write").observe(0.5)
        family.labels(op="write").observe(2.0)
        metrics = registry.snapshot()["metrics"]
        exported = metrics["op_seconds_window"]
        assert (exported["type"], exported["labelnames"]) == ("window", ["op"])
        assert {entry["labels"]["op"]: entry["count"]
                for entry in exported["series"]} == {"read": 1.0, "write": 2.0}
        assert {entry["labels"]["op"]: entry["count"]
                for entry in metrics["op_seconds"]["series"]} == {"read": 1, "write": 2}
        merged = registry.window_summary("op_seconds")
        assert merged["count"] == 3.0
        assert merged["max"] == 2.0
        assert merged["p99"] == 2.0

    def test_window_summary_of_unknown_or_unwindowed_metric_is_none(self):
        registry = MetricsRegistry()
        registry.counter("plain_total", "x").inc()
        registry.histogram("lifetime_seconds", "x").observe(0.1)
        assert registry.window_summary("plain_total") is None
        assert registry.window_summary("lifetime_seconds") is None
        assert registry.window_summary("missing") is None
        assert "lifetime_seconds_window" not in registry.snapshot()["metrics"]

    def test_a_mismatched_window_flag_raises(self):
        registry = MetricsRegistry()
        windowed_family = registry.histogram("a_seconds", window=True)
        registry.histogram("b_seconds")
        assert registry.histogram("a_seconds", window=True) is windowed_family
        with pytest.raises(ValueError):
            registry.histogram("a_seconds")
        with pytest.raises(ValueError):
            registry.histogram("b_seconds", window=True)
