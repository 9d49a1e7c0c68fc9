"""Metrics registry: exactness under concurrency, labels, merge, export."""

from __future__ import annotations

import functools
import sys
import threading

import pytest

from repro.obs import (
    LabelChildren,
    MetricsRegistry,
    merge_snapshots,
    set_enabled,
    to_json,
    to_prometheus,
)



class _ObserveOnFirstRelease:
    """A series lock that slips one observation in when first released.

    A snapshot that reads the series under more than one acquisition sees
    that observation in some of its reads and not in others.
    """

    def __init__(self, series, value: float) -> None:
        self._inner = threading.Lock()
        self._series = series
        self._value = value
        self._armed = True

    def __enter__(self) -> None:
        self._inner.acquire()

    def __exit__(self, *_exc) -> bool:
        self._inner.release()
        if self._armed:
            self._armed = False
            self._series.observe(self._value)
        return False


class TestThreadSafety:
    def test_concurrent_counter_increments_sum_exactly(self):
        registry = MetricsRegistry(component="test", node_id="n0")
        counter = registry.counter("ops_total")
        workers, per_worker = 8, 5000
        barrier = threading.Barrier(workers)

        def work():
            barrier.wait()
            for _ in range(per_worker):
                counter.inc()

        threads = [threading.Thread(target=work) for _ in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == workers * per_worker

    def test_concurrent_labeled_series_stay_independent(self):
        registry = MetricsRegistry()
        family = registry.counter("ops_total", labelnames=("kind",))
        workers, per_worker = 6, 2000
        barrier = threading.Barrier(workers)

        def work(kind: str):
            series = family.labels(kind=kind)
            barrier.wait()
            for _ in range(per_worker):
                series.inc()

        threads = [
            threading.Thread(target=work, args=("even" if i % 2 == 0 else "odd",))
            for i in range(workers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert family.labels(kind="even").value == 3 * per_worker
        assert family.labels(kind="odd").value == 3 * per_worker

    def test_concurrent_histogram_observations_counted_exactly(self):
        registry = MetricsRegistry()
        hist = registry.histogram("latency_seconds")
        workers, per_worker = 8, 1000
        barrier = threading.Barrier(workers)

        def work():
            barrier.wait()
            for _ in range(per_worker):
                hist.observe(0.001)

        threads = [threading.Thread(target=work) for _ in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert hist.count == workers * per_worker
        assert hist.sum == pytest.approx(workers * per_worker * 0.001)

    def test_racing_creators_all_get_the_one_family(self):
        """A hit takes no lock; creation still happens exactly once."""
        registry = MetricsRegistry()
        kinds = (registry.counter, registry.histogram,
                 functools.partial(registry.histogram, window=True))
        seen = []
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            def work():
                for index in range(300):
                    make = kinds[index % 3]
                    seen.append((index, make(f"family_{index}", labelnames=("k",))))

            threads = [threading.Thread(target=work) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(previous)
        assert len(seen) == 8 * 300
        families = {}
        for index, family in seen:
            assert families.setdefault(index, family) is family
        assert {family.name for family in registry.families()} >= {
            f"family_{index}" for index in range(300)}


class TestFamilies:
    def test_counter_rejects_negative(self):
        counter = MetricsRegistry().counter("c_total")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_moves_both_ways(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(5)
        gauge.inc(2)
        gauge.dec(4)
        assert gauge.value == 3

    def test_get_or_create_returns_same_family(self):
        registry = MetricsRegistry()
        assert registry.counter("c_total") is registry.counter("c_total")

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x_total")
        with pytest.raises(ValueError):
            registry.gauge("x_total")

    def test_labelnames_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x_total", labelnames=("a",))
        with pytest.raises(ValueError):
            registry.counter("x_total", labelnames=("b",))

    def test_labeled_family_requires_labels(self):
        family = MetricsRegistry().counter("x_total", labelnames=("a",))
        with pytest.raises(ValueError):
            family.inc()
        with pytest.raises(ValueError):
            family.labels(b="nope")

    def test_histogram_buckets_are_cumulative(self):
        hist = MetricsRegistry().histogram("h", buckets=(0.01, 0.1, 1.0))
        for value in (0.005, 0.05, 0.5, 5.0):
            hist.observe(value)
        series = hist.labels() if hist.labelnames else hist._require_default()
        buckets = series.bucket_counts()
        assert buckets["0.01"] == 1
        assert buckets["0.1"] == 2
        assert buckets["1.0"] == 3
        assert buckets["+Inf"] == 4

    def test_label_children_are_the_familys_series(self):
        registry = MetricsRegistry()
        for family in (registry.gauge("g", labelnames=("benefactor",)),
                       registry.histogram("w", labelnames=("benefactor",), window=True)):
            children = LabelChildren(family, "benefactor")
            assert children["b0"] is family.labels(benefactor="b0")
            assert children["b0"] is children["b0"]
            assert children["b1"] is not children["b0"]

    def test_function_counter_exports_what_its_owner_counts(self):
        registry = MetricsRegistry()
        counts = {"puts": 0}
        registry.counter("puts_total").set_function(lambda: counts["puts"])
        counts["puts"] = 7
        prior = set_enabled(False)
        try:
            counts["puts"] += 1  # the owner's count, not telemetry
        finally:
            set_enabled(prior)
        (entry,) = registry.snapshot()["metrics"]["puts_total"]["series"]
        assert entry == {"labels": {}, "value": 8.0}
        with pytest.raises(ValueError):
            registry.counter("by_kind_total", labelnames=("k",)).set_function(lambda: 1)

    def test_histogram_time_records_one_observation(self):
        hist = MetricsRegistry().histogram("h")
        with hist.time():
            pass
        assert hist.count == 1
        assert hist.sum >= 0.0


class TestEnabledSwitch:
    def test_disabled_recording_is_dropped(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total")
        prior = set_enabled(False)
        try:
            counter.inc(100)
        finally:
            set_enabled(prior)
        assert counter.value == 0
        counter.inc()
        assert counter.value == 1

    def test_disabled_timer_allocates_nothing(self):
        hist = MetricsRegistry().histogram("h")
        prior = set_enabled(False)
        try:
            assert hist.time() is hist.time()
            with hist.time():
                pass
        finally:
            set_enabled(prior)
        assert hist.count == 0

    def test_set_enabled_returns_prior_value(self):
        assert set_enabled(False) is True
        assert set_enabled(True) is False


class TestSnapshotAndMerge:
    def _registry(self, node_id: str) -> MetricsRegistry:
        registry = MetricsRegistry(component="benefactor", node_id=node_id)
        registry.counter("puts_total").inc(3)
        registry.gauge("free").set(7)
        hist = registry.histogram("lat", buckets=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(0.5)
        return registry

    def test_snapshot_shape(self):
        snap = self._registry("b0").snapshot()
        assert snap["component"] == "benefactor"
        assert snap["node_id"] == "b0"
        assert snap["metrics"]["puts_total"]["type"] == "counter"
        assert snap["metrics"]["puts_total"]["series"][0]["value"] == 3
        assert snap["metrics"]["lat"]["series"][0]["count"] == 2

    def test_merge_sums_by_name_and_labels(self):
        merged = merge_snapshots(
            [self._registry("b0").snapshot(), self._registry("b1").snapshot()]
        )
        metrics = merged["metrics"]
        assert metrics["puts_total"]["series"][0]["value"] == 6
        assert metrics["free"]["series"][0]["value"] == 14
        lat = metrics["lat"]["series"][0]
        assert lat["count"] == 4
        assert lat["buckets"]["0.1"] == 2
        assert lat["buckets"]["+Inf"] == 4

    def test_merge_skips_missing_snapshots(self):
        merged = merge_snapshots([None, self._registry("b0").snapshot()])
        assert merged["metrics"]["puts_total"]["series"][0]["value"] == 3


    @pytest.mark.parametrize("window", [False, True])
    def test_a_histogram_is_snapshotted_in_one_read(self, window):
        """An observation landing mid-snapshot is in every view or in none."""
        registry = MetricsRegistry()
        hist = registry.histogram("lat", buckets=(0.1, 1.0), window=window)
        hist.observe(0.05)
        (series,) = hist.series()
        series._lock = _ObserveOnFirstRelease(series, 5.0)
        metrics = registry.snapshot()["metrics"]
        (entry,) = metrics["lat"]["series"]
        assert entry["count"] == entry["buckets"]["+Inf"] == 1
        assert entry["sum"] == 0.05
        if window:
            (recent,) = metrics["lat_window"]["series"]
            assert recent["count"] == 1
        assert hist.count == 2  # it did land, after the read


class TestExporters:
    def test_prometheus_text_includes_identity_and_types(self):
        registry = MetricsRegistry(component="manager", node_id="m0")
        registry.counter("txn_total", "Transactions.").inc(2)
        registry.histogram("lat", buckets=(0.5,)).observe(0.1)
        text = to_prometheus(registry.snapshot())
        assert "# TYPE txn_total counter" in text
        assert "# HELP txn_total Transactions." in text
        assert 'txn_total{component="manager",node="m0"} 2' in text
        assert 'lat_bucket{component="manager",le="0.5",node="m0"} 1' in text
        assert 'lat_count{component="manager",node="m0"} 1' in text

    def test_json_roundtrips(self):
        import json

        registry = MetricsRegistry(component="client", node_id="c0")
        registry.counter("x_total").inc()
        decoded = json.loads(to_json(registry.snapshot()))
        assert decoded["metrics"]["x_total"]["series"][0]["value"] == 1
