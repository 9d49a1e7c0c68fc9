"""End-to-end observability: exporters, scrape RPC, TCP traces, replica gauges."""

from __future__ import annotations

import json
import math
import sys
import threading
import urllib.request

import pytest

from repro import StdchkConfig, StdchkPool, TcpDeployment, to_prometheus
from repro.client.proxy import TRACE_BURST
from repro.client.read_path import ReplicaScheduler
from repro.exceptions import FileNotFoundInStdchkError, ReadFailedError
from repro.obs import SPAN_STORE, MetricsRegistry
from repro.obs import tracing
from repro.obs.tracing import TRACE_KEY

CHUNK = 64 * 1024


def _metric_value(snapshot: dict, name: str, **labels) -> float:
    family = snapshot["metrics"].get(name)
    if family is None:
        return 0.0
    for entry in family["series"]:
        if all(entry["labels"].get(k) == v for k, v in labels.items()):
            return entry.get("value", entry.get("count", 0.0))
    return 0.0


class TestPoolMetrics:
    def test_every_component_snapshots_into_pool_metrics(self, small_config):
        pool = StdchkPool(benefactor_count=3, config=small_config)
        client = pool.client()
        data = b"m" * (4 * CHUNK)
        client.write_file("/app/m.N0.T1", data)
        assert client.read_file("/app/m.N0.T1") == data

        report = pool.metrics()
        components = {snap["component"] for snap in report["nodes"]}
        assert components == {"manager", "benefactor", "client"}

        aggregate = report["aggregate"]
        assert _metric_value(aggregate, "manager_transactions_total") > 0
        assert _metric_value(aggregate, "benefactor_puts_total") > 0
        assert _metric_value(aggregate, "benefactor_gets_total") > 0
        assert _metric_value(aggregate, "client_bytes_written_total") == len(data)
        assert _metric_value(aggregate, "client_read_bytes_total") == len(data)
        # The base dispatch layer timed every handled RPC method.
        rpc = aggregate["metrics"]["rpc_handled_seconds"]
        methods = {entry["labels"]["method"] for entry in rpc["series"]}
        assert {"create_session", "get_chunk_map", "put_chunks"} <= methods

        text = to_prometheus(aggregate)
        assert "# TYPE manager_transactions_total counter" in text

    def test_benefactor_stats_view_matches_registry(self, small_config):
        pool = StdchkPool(benefactor_count=2, config=small_config)
        client = pool.client()
        client.write_file("/app/s.N0.T1", b"s" * (2 * CHUNK))
        benefactor = next(iter(pool.benefactors.values()))
        stats = benefactor.stats
        snap = benefactor.obs.snapshot()
        assert stats["puts"] == _metric_value(snap, "benefactor_puts_total")
        assert stats["bytes_in"] == _metric_value(snap, "benefactor_bytes_in_total")

    def test_journal_timings_recorded_when_persistence_enabled(
        self, small_config, tmp_path
    ):
        config = small_config.with_overrides(
            journal_dir=str(tmp_path / "journal"), journal_fsync_policy="commit"
        )
        pool = StdchkPool(benefactor_count=2, config=config)
        pool.client().write_file("/app/j.N0.T1", b"j" * CHUNK)
        snap = pool.manager.obs.snapshot()
        assert _metric_value(snap, "journal_append_seconds") > 0
        assert _metric_value(snap, "journal_fsync_seconds") > 0


class TestScrapeOverTcp:
    def test_get_metrics_rpc_and_scrape_aggregate(self):
        config = StdchkConfig(chunk_size=CHUNK, stripe_width=2,
                              replication_level=2)
        with TcpDeployment(benefactor_count=2, config=config) as deployment:
            client = deployment.client("scraper")
            data = b"t" * (3 * CHUNK)
            client.write_file("/tcp/scrape", data)

            direct = deployment.transport.call(
                deployment.manager_address, "get_metrics"
            )
            assert direct["component"] == "manager"

            report = deployment.scrape()
            components = sorted(snap["component"] for snap in report["nodes"])
            assert components == ["benefactor", "benefactor", "manager"]
            aggregate = report["aggregate"]
            assert _metric_value(aggregate, "benefactor_puts_total") >= 3

    def test_scrape_skips_killed_benefactor(self):
        config = StdchkConfig(chunk_size=CHUNK, stripe_width=2,
                              replication_level=1)
        with TcpDeployment(benefactor_count=2, config=config) as deployment:
            deployment.kill_benefactor(
                deployment.benefactors[0].benefactor_id
            )
            report = deployment.scrape()
            components = sorted(snap["component"] for snap in report["nodes"])
            assert components == ["benefactor", "manager"]


    def test_metrics_json_of_a_benefactor_counts_every_handled_rpc(self):
        """Dispatch keeps its two latency series per method instead of
        looking them up per call; what a scrape sees must not change."""
        with TcpDeployment(benefactor_count=1,
                           config=StdchkConfig(replication_level=1)) as deployment:
            benefactor = deployment.benefactors[0]
            base = deployment.start_obs_http()[benefactor.benefactor_id]
            address = deployment.transport.bound_address(benefactor.address)
            for index in range(10):
                deployment.transport.call(address, "put_chunks",
                                          chunk_ids=[f"ds-1:v1:c{index}"], data=[b"x" * 100])
            for index in range(3):
                assert deployment.transport.call(address, "has_chunk",
                                                 chunk_id=f"ds-1:v1:c{index}")
            with urllib.request.urlopen(base + "/metrics.json", timeout=5) as response:
                metrics = json.load(response)["metrics"]
            for name, kind in (("rpc_handled_seconds", "histogram"),
                               ("rpc_handled_seconds_window", "window")):
                family = metrics[name]
                assert (family["type"], family["labelnames"]) == (kind, ["method"])
                assert {entry["labels"]["method"]: entry["count"]
                        for entry in family["series"]} == {"put_chunks": 10, "has_chunk": 3}
            assert _metric_value({"metrics": metrics}, "benefactor_puts_total") == 10


class TestTcpTracePropagation:
    def test_single_write_and_read_yield_linked_traces(self):
        config = StdchkConfig(chunk_size=CHUNK, stripe_width=2,
                              replication_level=2)
        with TcpDeployment(benefactor_count=2, config=config) as deployment:
            client = deployment.client("tracer")
            data = b"x" * (3 * CHUNK)
            client.write_file("/tcp/trace", data)
            assert client.read_file("/tcp/trace") == data

        roots = {s.name: s for s in SPAN_STORE.spans() if s.parent_id is None}
        assert {"client.write_file", "client.read_file"} <= set(roots)
        traces = SPAN_STORE.traces()
        for root_name in ("client.write_file", "client.read_file"):
            spans = traces[roots[root_name].trace_id]
            assert {"client", "manager", "benefactor"} <= {
                s.component for s in spans
            }
            assert all(s.trace_id == roots[root_name].trace_id for s in spans)

    def test_killed_benefactor_mid_read_leaves_error_annotated_tree(self):
        config = StdchkConfig(chunk_size=CHUNK, stripe_width=2,
                              replication_level=1)
        with TcpDeployment(benefactor_count=2, config=config) as deployment:
            client = deployment.client("mourner")
            data = b"y" * (4 * CHUNK)
            client.write_file("/tcp/doomed", data)
            deployment.kill_benefactor(
                deployment.benefactors[0].benefactor_id
            )
            SPAN_STORE.clear()
            with pytest.raises(ReadFailedError):
                client.read_file("/tcp/doomed")

        root = next(
            s for s in SPAN_STORE.spans() if s.name == "client.read_file"
        )
        assert root.status == "error"
        spans = SPAN_STORE.traces()[root.trace_id]
        # The metadata lookup succeeded before the data path hit the corpse.
        assert any(
            s.name == "rpc.server:get_chunk_map" and s.status == "ok"
            for s in spans
        )
        # The failed fetch left an error-annotated client-side tombstone.
        failed = [
            s for s in spans
            if s.name == "rpc:get_chunks" and s.status == "error"
        ]
        assert failed
        assert all(s.trace_id == root.trace_id for s in spans)


class TestReadRouting:
    def test_get_chunk_map_answers_without_load_hints(self, small_config):
        pool = StdchkPool(benefactor_count=3, config=small_config)
        client = pool.client()
        client.write_file("/app/h.N0.T1", b"h" * (2 * CHUNK))
        answer = pool.manager.get_chunk_map(path="/app/h.N0.T1")
        assert "load_hints" not in answer
        assert client.read_file("/app/h.N0.T1") == b"h" * (2 * CHUNK)
        assert "manager_read_routing_load" not in pool.manager.obs.snapshot()["metrics"]

    def test_outstanding_requests_rank_first(self):
        scheduler = ReplicaScheduler()
        scheduler.begin("b")
        # Whatever offset the rotation is at, the idle replica leads.
        for start in range(4):
            assert scheduler.order(["a", "b"], start=start)[0] == "a"

    def test_scheduler_exports_gauges(self):
        registry = MetricsRegistry(component="client", node_id="c0")
        scheduler = ReplicaScheduler(metrics=registry)
        scheduler.begin("b0")
        scheduler.begin("b0")
        scheduler.mark_failed("b1")
        snap = registry.snapshot()
        assert _metric_value(
            snap, "replica_outstanding_requests", benefactor="b0"
        ) == 2
        assert _metric_value(snap, "replica_failed_benefactors") == 1
        scheduler.end("b0")
        scheduler.mark_alive("b1")
        snap = registry.snapshot()
        assert _metric_value(
            snap, "replica_outstanding_requests", benefactor="b0"
        ) == 1
        assert _metric_value(snap, "replica_failed_benefactors") == 0

class TestTraceSampling:
    """``trace_rate`` gates root spans; children follow the parent."""

    def test_rate_zero_suppresses_the_whole_tree(self, small_config, monkeypatch):
        config = small_config.with_overrides(trace_rate=0)
        pool = StdchkPool(benefactor_count=3, config=config)
        calls = pool.transport.record()
        injected = []
        monkeypatch.setattr(tracing, "inject", injected.append)
        client = pool.client("quiet")
        data = b"q" * (2 * CHUNK)
        client.write_file("/app/q.N0.T1", data)
        assert client.read_file("/app/q.N0.T1") == data
        # No root span -> no context -> transports inject nothing and the
        # server side opens nothing: the store stays empty end to end.
        assert SPAN_STORE.spans() == []
        assert calls and not injected
        assert not [call for call in calls if TRACE_KEY in call.payload]

    def test_unbounded_rate_traces_every_operation(self, small_config):
        pool = StdchkPool(benefactor_count=3,
                          config=small_config.with_overrides(trace_rate=math.inf))
        client = pool.client("chatty")
        for index in range(100):
            client.write_file(f"/app/c.N0.T{index + 1}", b"c" * 1024)
        roots = [s for s in SPAN_STORE.spans()
                 if s.parent_id is None and s.name == "client.write_file"]
        assert len(roots) == 100

    def test_children_follow_a_parent_that_was_sampled_in(self, small_config):
        config = small_config.with_overrides(trace_rate=0)
        pool = StdchkPool(benefactor_count=3, config=config)
        client = pool.client("nested")
        with tracing.start_span("job.checkpoint", component="test"):
            client.write_file("/app/n.N0.T1", b"n" * CHUNK)
        root = next(s for s in SPAN_STORE.spans() if s.name == "job.checkpoint")
        spans = SPAN_STORE.traces()[root.trace_id]
        # The budget gates only roots: inside an active context the client op
        # and the whole RPC tree below it are recorded as children.
        assert any(s.name == "client.write_file" for s in spans)
        assert any(s.name.startswith("rpc.server:") for s in spans)

    def test_budget_traces_some_roots_deterministically(self, small_config):
        config = small_config.with_overrides(trace_rate=1)

        def traced_paths():
            SPAN_STORE.clear()
            pool = StdchkPool(benefactor_count=3, config=config)
            client = pool.client("coin-flipper")
            for index in range(40):
                client.write_file(f"/app/s.N0.T{index + 1}", b"s" * CHUNK)
            return [
                s.attributes["path"] for s in SPAN_STORE.spans()
                if s.parent_id is None and s.name == "client.write_file"
            ]

        first = traced_paths()
        assert 0 < len(first) < 40  # some, not all-or-nothing
        # The budget runs on the pool's clock: reruns agree exactly.
        assert traced_paths() == first


class TestTraceBudget:
    """A client traces at most ``trace_rate`` roots per second after a burst."""

    @staticmethod
    def write_roots():
        return [s for s in SPAN_STORE.spans()
                if s.parent_id is None and s.name == "client.write_file"]

    def test_a_burst_then_the_rate(self, small_config):
        pool = StdchkPool(benefactor_count=3,
                          config=small_config.with_overrides(trace_rate=8))
        client = pool.client("storm")
        for index in range(100):
            client.write_file(f"/app/b.N0.T{index}", b"b" * 1024)
        roots = self.write_roots()
        assert len(roots) == TRACE_BURST == 32
        # The first 32 were traced, each with its whole tree.
        assert [s.attributes["path"] for s in roots] == [
            f"/app/b.N0.T{index}" for index in range(32)]
        for root in roots:
            assert any(s.name == "rpc.server:put_chunks"
                       for s in SPAN_STORE.traces()[root.trace_id])

        pool.clock.advance(1.0)
        for index in range(100, 200):
            client.write_file(f"/app/b.N0.T{index}", b"b" * 1024)
        assert len(self.write_roots()) == 32 + 8

    def test_each_client_has_its_own_budget(self, small_config):
        pool = StdchkPool(benefactor_count=3,
                          config=small_config.with_overrides(trace_rate=8))
        for name in ("one", "two"):
            client = pool.client(name)
            for index in range(40):
                client.write_file(f"/app/{name}.N0.T{index}", b"b" * 1024)
        assert len(self.write_roots()) == 2 * TRACE_BURST

    def test_a_refused_root_that_fails_leaves_one_error_span(self, small_config):
        pool = StdchkPool(benefactor_count=3,
                          config=small_config.with_overrides(trace_rate=0))
        client = pool.client("unlucky")
        with pytest.raises(FileNotFoundInStdchkError):
            client.read_file("/app/never-written")
        (span,) = SPAN_STORE.spans()
        assert (span.name, span.component, span.node_id) == (
            "client.read_file", "client", "unlucky")
        assert span.parent_id is None and span.status == "error"
        assert span.error.startswith("FileNotFoundInStdchkError")
        assert span.attributes == {"path": "/app/never-written"}
        assert span.duration > 0

    def test_concurrent_roots_take_exactly_the_burst(self, small_config):
        pool = StdchkPool(benefactor_count=1,
                          config=small_config.with_overrides(trace_rate=8))
        client = pool.client("shared")
        admitted = []
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            def take():
                admitted.extend(client._take_trace_token() for _ in range(500))

            threads = [threading.Thread(target=take) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(previous)
        assert len(admitted) == 4000
        assert admitted.count(True) == TRACE_BURST
