"""The live observability plane end to end, over real TCP deployments.

Acceptance scenarios from the observability issue:

* every node kind (primary, standby, benefactor) serves all four telemetry
  endpoints with valid Prometheus text / JSON while traffic flows;
* ``/health`` readiness tracks the failover life cycle (primary 200,
  standby 503, promoted standby 200, killed primary unreachable);
* the cluster health monitor flags a killed primary dead and fires the
  ``on_transition`` hook within ``health_dead_after + health_probe_interval``
  (wall-clock budget, generous margin for CI schedulers);
* windowed SLO summaries (``rpc_handled_seconds_window`` p99) appear in the
  exposition of a node that served traffic.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request

import pytest

from repro import StdchkConfig, StdchkPool, TcpDeployment
from tests.conftest import make_bytes

CHUNK = 64 * 1024

#: Aggressive-but-CI-safe detector knobs used across the module.
PROBE_INTERVAL = 0.1
SUSPECT_AFTER = 0.3
DEAD_AFTER = 1.0


def plane_config(**overrides) -> StdchkConfig:
    defaults = dict(
        chunk_size=CHUNK,
        stripe_width=2,
        replication_level=1,
        health_probe_interval=PROBE_INTERVAL,
        health_suspect_after=SUSPECT_AFTER,
        health_dead_after=DEAD_AFTER,
    )
    defaults.update(overrides)
    return StdchkConfig(**defaults)


def http_get(url: str, timeout: float = 5.0):
    """(status, body) with 4xx/5xx answered rather than raised."""
    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            return response.status, response.read().decode("utf-8")
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read().decode("utf-8")


def assert_valid_prometheus(text: str) -> None:
    assert text.endswith("\n")
    for line in text.splitlines():
        if line.startswith("#"):
            assert line.startswith(("# HELP ", "# TYPE "))
        else:
            name_and_labels, _, value = line.rpartition(" ")
            assert name_and_labels, line
            float(value)  # every sample value parses as a number


def wait_until(predicate, budget: float, step: float = 0.02) -> float:
    """Poll until ``predicate()`` or the budget elapses; returns the wait."""
    started = time.perf_counter()
    deadline = started + budget
    while time.perf_counter() < deadline:
        if predicate():
            return time.perf_counter() - started
        time.sleep(step)
    assert predicate(), f"condition not reached within {budget}s"
    return time.perf_counter() - started


class TestTcpEndpoints:
    def test_every_node_kind_serves_all_routes(self):
        with TcpDeployment(benefactor_count=2, config=plane_config()) as dep:
            dep.add_standby("tcp-standby-0")
            endpoints = dep.start_obs_http()
            assert set(endpoints) == {
                "manager", "tcp-standby-0",
                "tcp-benefactor-00", "tcp-benefactor-01",
            }
            client = dep.client()
            payload = make_bytes(3 * CHUNK, seed=11)
            client.write_file("/app/ckpt.N0.T1", payload)
            assert client.read_file("/app/ckpt.N0.T1") == payload

            for node_id, base in endpoints.items():
                status, text = http_get(base + "/metrics")
                assert status == 200, node_id
                assert_valid_prometheus(text)
                assert "stdchk_build_info" in text
                assert "process_uptime_seconds" in text

                status, body = http_get(base + "/metrics.json")
                assert status == 200
                snapshot = json.loads(body)
                assert snapshot["node_id"] == node_id or snapshot["component"]

                status, body = http_get(base + "/spans")
                assert status == 200
                assert "spans" in json.loads(body)

                status, body = http_get(base + "/health")
                document = json.loads(body)
                if node_id == "tcp-standby-0":
                    assert status == 503 and document["status"] == "standby"
                else:
                    assert status == 200 and document["ready"] is True

    def test_windowed_slo_appears_after_traffic(self):
        with TcpDeployment(benefactor_count=2, config=plane_config()) as dep:
            endpoints = dep.start_obs_http()
            client = dep.client()
            client.write_file("/app/ckpt.N0.T1", make_bytes(2 * CHUNK, seed=3))
            _, text = http_get(endpoints["manager"] + "/metrics")
            quantile_lines = [
                line for line in text.splitlines()
                if line.startswith("rpc_handled_seconds_window{")
                and 'quantile="0.99"' in line
            ]
            assert quantile_lines, "windowed p99 missing from /metrics"
            # The manager's own health document carries the same live SLO.
            _, body = http_get(endpoints["manager"] + "/health")
            slo = json.loads(body)["slo"]
            assert slo["count"] > 0 and slo["p99"] > 0

    def test_health_through_failover_lifecycle(self):
        with TcpDeployment(benefactor_count=2, config=plane_config()) as dep:
            dep.add_standby("tcp-standby-0")
            endpoints = dep.start_obs_http()
            client = dep.client()
            client.write_file("/app/ckpt.N0.T1", make_bytes(2 * CHUNK, seed=5))

            # Before: primary ready, standby alive-but-not-ready.
            assert http_get(endpoints["manager"] + "/health")[0] == 200
            status, body = http_get(endpoints["tcp-standby-0"] + "/health")
            assert status == 503
            assert json.loads(body)["role"] == "standby"

            dep.kill_primary()
            # During: the dead primary's endpoint is torn down with the node.
            with pytest.raises(urllib.error.URLError):
                urllib.request.urlopen(
                    endpoints["manager"] + "/health", timeout=1)
            status, body = http_get(endpoints["tcp-standby-0"] + "/health")
            assert status == 503  # not promoted yet: alive, still not ready

            dep.promote_standby()
            # After: the promoted standby answers ready on its old endpoint.
            status, body = http_get(endpoints["tcp-standby-0"] + "/health")
            document = json.loads(body)
            assert status == 200
            assert document["role"] == "primary" and document["ready"] is True
            for benefactor in ("tcp-benefactor-00", "tcp-benefactor-01"):
                assert http_get(endpoints[benefactor] + "/health")[0] == 200


class TestTcpFailureDetection:
    def test_killed_primary_detected_within_budget(self):
        with TcpDeployment(benefactor_count=2, config=plane_config()) as dep:
            dep.add_standby("tcp-standby-0")
            dep.start_obs_http()
            transitions = []
            monitor = dep.health_monitor(on_transition=transitions.append)
            monitor.start()
            try:
                wait_until(
                    lambda: monitor.state_of("manager") == "alive"
                    and monitor.probes_total > 0,
                    budget=5.0,
                )
                dep.kill_primary()
                budget = DEAD_AFTER + PROBE_INTERVAL
                # Generous wall-clock margin: CI boxes schedule the probe
                # thread late, but detection must stay the same order.
                def dead():
                    return [t for t in transitions
                            if t.node_id == "manager" and t.new_state == "dead"]

                # The callback fires outside the monitor's lock, after the
                # state changed: wait for both.
                elapsed = wait_until(
                    lambda: monitor.state_of("manager") == "dead" and dead(),
                    budget=3 * budget,
                )
                assert elapsed <= 3 * budget
                assert dead()[0].kind == "manager"
            finally:
                monitor.stop()

    def test_killed_benefactor_detected_and_recovery_observed(self):
        with TcpDeployment(benefactor_count=2, config=plane_config()) as dep:
            dep.start_obs_http()
            monitor = dep.health_monitor()
            monitor.probe_once()
            dep.kill_benefactor("tcp-benefactor-00")
            wait_until(
                lambda: monitor.probe_once()["tcp-benefactor-00"] == "dead",
                budget=5 * DEAD_AFTER,
                step=PROBE_INTERVAL,
            )
            dep.recover_benefactor("tcp-benefactor-00")
            # Recovery rebinds a fresh port: re-enroll with a fresh probe the
            # way a supervisor re-reading obs_endpoints() would.
            monitor2 = dep.health_monitor()
            assert monitor2.probe_once()["tcp-benefactor-00"] == "alive"

    def test_cluster_status_over_tcp(self):
        with TcpDeployment(benefactor_count=2, config=plane_config()) as dep:
            dep.add_standby("tcp-standby-0")
            dep.start_obs_http()
            client = dep.client()
            client.write_file("/app/ckpt.N0.T1", make_bytes(2 * CHUNK, seed=7))
            monitor = dep.health_monitor()
            monitor.probe_once()
            status = monitor.cluster_status()
            assert status["roles"]["primary"] == ["manager"]
            assert status["roles"]["standby"] == ["tcp-standby-0"]
            assert sorted(status["roles"]["benefactor"]) == [
                "tcp-benefactor-00", "tcp-benefactor-01"]
            assert status["counts"]["alive"] == 4
            assert status["replication_lag_records"] is not None
            json.dumps(status)  # CI ships this document verbatim


class TestInProcessPoolPlane:
    def test_pool_obs_http_and_rpc_probes(self):
        pool = StdchkPool(benefactor_count=2, config=plane_config())
        try:
            endpoints = pool.start_obs_http()
            assert set(endpoints) == {
                "manager", "benefactor-00", "benefactor-01"}
            status, text = http_get(endpoints["manager"] + "/metrics")
            assert status == 200
            assert_valid_prometheus(text)
        finally:
            pool.close()
        # After close the plane is down.
        assert pool.obs_endpoints() == {}

    def test_pool_monitor_uses_rpc_probes_without_http(self):
        pool = StdchkPool(benefactor_count=2, config=plane_config())
        monitor = pool.health_monitor()
        assert monitor.probe_once() == {
            "manager": "alive",
            "benefactor-00": "alive",
            "benefactor-01": "alive",
        }
        pool.kill_primary()
        pool.clock.advance(DEAD_AFTER + PROBE_INTERVAL)
        assert monitor.probe_once()["manager"] == "dead"

    def test_fail_and_recover_benefactor_tracks_servers(self):
        pool = StdchkPool(benefactor_count=2, config=plane_config())
        try:
            pool.start_obs_http()
            assert "benefactor-00" in pool.obs_endpoints()
            pool.fail_benefactor("benefactor-00")
            assert "benefactor-00" not in pool.obs_endpoints()
            pool.recover_benefactor("benefactor-00")
            assert "benefactor-00" in pool.obs_endpoints()
            status, _ = http_get(
                pool.obs_endpoints()["benefactor-00"] + "/health")
            assert status == 200
        finally:
            pool.close()
