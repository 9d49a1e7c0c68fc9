"""The cluster health monitor: suspicion machine, events, cluster status."""

from __future__ import annotations

import json

import pytest

from repro.obs import ClusterHealthMonitor, MetricsRegistry
from repro.util.clock import VirtualClock


class FlakyNode:
    """A probe target whose availability the test scripts."""

    def __init__(self, payload=None):
        self.up = True
        self.payload = payload if payload is not None else \
            {"ready": True, "status": "ok"}

    def probe(self):
        if not self.up:
            raise ConnectionError("node is down")
        return dict(self.payload)


def make_monitor(clock, **kwargs):
    kwargs.setdefault("probe_interval", 1.0)
    kwargs.setdefault("suspect_after", 3.0)
    kwargs.setdefault("dead_after", 10.0)
    return ClusterHealthMonitor(clock=clock, **kwargs)


class TestSuspicionMachine:
    def test_alive_until_silence_crosses_thresholds(self):
        clock = VirtualClock()
        monitor = make_monitor(clock)
        node = FlakyNode()
        monitor.add_node("n0", node.probe)
        assert monitor.probe_once() == {"n0": "alive"}

        node.up = False
        clock.advance(2)
        assert monitor.probe_once() == {"n0": "alive"}  # silent < suspect_after
        clock.advance(2)
        assert monitor.probe_once() == {"n0": "suspect"}
        clock.advance(7)
        assert monitor.probe_once() == {"n0": "dead"}

    def test_recovery_returns_to_alive(self):
        clock = VirtualClock()
        monitor = make_monitor(clock)
        node = FlakyNode()
        monitor.add_node("n0", node.probe)
        node.up = False
        clock.advance(11)
        assert monitor.probe_once() == {"n0": "dead"}
        node.up = True
        assert monitor.probe_once() == {"n0": "alive"}
        assert monitor.state_of("n0") == "alive"

    def test_grace_period_before_first_probe(self):
        clock = VirtualClock()
        monitor = make_monitor(clock)
        node = FlakyNode()
        node.up = False
        monitor.add_node("n0", node.probe)
        # Registration seeds last_ok=now: a node that was never reachable
        # still needs dead_after of silence before it is declared dead.
        assert monitor.probe_once() == {"n0": "alive"}
        clock.advance(10)
        assert monitor.probe_once() == {"n0": "dead"}

    def test_knob_validation(self):
        with pytest.raises(ValueError):
            ClusterHealthMonitor(probe_interval=0)
        with pytest.raises(ValueError):
            ClusterHealthMonitor(suspect_after=5.0, dead_after=1.0)


class TestTransitions:
    def test_events_and_callback_fire_in_order(self):
        clock = VirtualClock()
        seen = []
        monitor = make_monitor(clock, on_transition=seen.append)
        node = FlakyNode()
        monitor.add_node("n0", node.probe, kind="manager")
        node.up = False
        clock.advance(4)
        monitor.probe_once()
        clock.advance(7)
        monitor.probe_once()
        moves = [(t.old_state, t.new_state) for t in monitor.events()]
        assert moves == [("alive", "suspect"), ("suspect", "dead")]
        assert [t.new_state for t in seen] == ["suspect", "dead"]
        assert all(t.kind == "manager" for t in seen)
        assert "down" in monitor.events()[0].reason

    def test_event_log_is_bounded(self):
        clock = VirtualClock()
        monitor = make_monitor(clock, max_events=4)
        node = FlakyNode()
        monitor.add_node("n0", node.probe)
        for _ in range(6):  # each cycle: alive -> suspect -> dead -> alive
            node.up = False
            clock.advance(4)
            monitor.probe_once()
            clock.advance(7)
            monitor.probe_once()
            node.up = True
            monitor.probe_once()
        assert len(monitor.events()) == 4

    def test_detector_metrics(self):
        clock = VirtualClock()
        registry = MetricsRegistry(component="monitor", clock=clock)
        monitor = make_monitor(clock, registry=registry)
        node = FlakyNode()
        monitor.add_node("n0", node.probe)
        monitor.probe_once()
        node.up = False
        clock.advance(11)
        monitor.probe_once()
        snapshot = registry.snapshot()
        assert "health_probe_seconds_window" in snapshot["metrics"]
        transitions = snapshot["metrics"]["health_transitions_total"]["series"]
        assert {entry["labels"]["state"]: entry["value"]
                for entry in transitions} == {"dead": 1.0}


class TestClusterStatus:
    def test_roles_lag_and_counts(self):
        clock = VirtualClock()
        monitor = make_monitor(clock)
        primary = FlakyNode({
            "ready": True, "status": "ok", "role": "primary",
            "component": "manager", "journal_lsn": 40,
            "under_replicated_chunks": 2,
        })
        standby = FlakyNode({
            "ready": False, "status": "standby", "role": "standby",
            "component": "manager", "applied_lsn": 37,
        })
        benefactor = FlakyNode({
            "ready": True, "status": "ok", "component": "benefactor",
        })
        monitor.add_node("m0", primary.probe, kind="manager")
        monitor.add_node("s0", standby.probe, kind="manager")
        monitor.add_node("b0", benefactor.probe, kind="benefactor")
        benefactor.up = False
        clock.advance(11)
        monitor.probe_once()
        status = monitor.cluster_status()
        assert status["roles"]["primary"] == ["m0"]
        assert status["roles"]["standby"] == ["s0"]
        assert status["roles"]["benefactor"] == ["b0"]
        assert status["replication_lag_records"] == 3
        assert status["under_replicated_chunks"] == 2
        assert status["counts"] == {"alive": 2, "suspect": 0, "dead": 1}
        assert status["nodes"]["s0"]["ready"] is False
        assert status["detector"]["dead_after"] == 10.0
        # The document is JSON-serializable as-is (CI ships it verbatim).
        json.dumps(status)

    def test_remove_node_forgets_state(self):
        clock = VirtualClock()
        monitor = make_monitor(clock)
        node = FlakyNode()
        monitor.add_node("n0", node.probe)
        monitor.remove_node("n0")
        assert monitor.probe_once() == {}
        assert monitor.nodes() == []
