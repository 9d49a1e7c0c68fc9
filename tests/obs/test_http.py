"""The per-node telemetry HTTP server: routes, readiness, span shipping."""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.obs import (
    SPAN_STORE,
    MetricsRegistry,
    ObsHttpServer,
    OtlpJsonlSpanExporter,
    start_span,
)
from repro.obs.http import PROMETHEUS_CONTENT_TYPE


def fetch(url: str):
    """(status, content type, body) — 4xx/5xx answered, not raised."""
    try:
        with urllib.request.urlopen(url, timeout=5) as response:
            return (response.status, response.headers.get("Content-Type"),
                    response.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:
        return exc.code, exc.headers.get("Content-Type"), \
            exc.read().decode("utf-8")


@pytest.fixture
def server():
    registry = MetricsRegistry(component="test", node_id="node-0")
    registry.counter("test_requests_total", "Requests.").inc(3)
    registry.histogram("test_latency", "Recent.", window=True).observe(0.02)
    srv = ObsHttpServer(registry)
    srv.start()
    yield srv
    srv.stop()


class TestRoutes:
    def test_metrics_serves_prometheus_text(self, server):
        status, content_type, body = fetch(server.url + "/metrics")
        assert status == 200
        assert content_type == PROMETHEUS_CONTENT_TYPE
        assert "# TYPE test_requests_total counter" in body
        assert "# TYPE test_latency_window summary" in body
        assert 'test_latency_window{' in body

    def test_metrics_json_round_trips(self, server):
        status, content_type, body = fetch(server.url + "/metrics.json")
        assert status == 200
        assert content_type.startswith("application/json")
        snapshot = json.loads(body)
        assert snapshot["node_id"] == "node-0"
        assert "test_requests_total" in snapshot["metrics"]

    def test_scrapes_are_counted(self, server):
        fetch(server.url + "/metrics")
        _, _, body = fetch(server.url + "/metrics.json")
        snapshot = json.loads(body)
        series = snapshot["metrics"]["obs_http_requests_total"]["series"]
        by_route = {entry["labels"]["route"]: entry["value"]
                    for entry in series}
        assert by_route["/metrics"] >= 1

    def test_unknown_route_is_json_404(self, server):
        status, _, body = fetch(server.url + "/nope")
        assert status == 404
        assert json.loads(body)["error"] == "not found"

    def test_spans_dump(self, server):
        with start_span("unit.op", component="test", node_id="node-0"):
            pass
        status, _, body = fetch(server.url + "/spans")
        assert status == 200
        spans = json.loads(body)["spans"]
        assert [span["name"] for span in spans] == ["unit.op"]

    def test_spans_otlp_format(self, server):
        with start_span("unit.op", component="test", node_id="node-0"):
            pass
        _, _, body = fetch(server.url + "/spans?format=otlp")
        document = json.loads(body)
        resource = document["resourceSpans"][0]
        attributes = {
            item["key"]: item["value"]["stringValue"]
            for item in resource["resource"]["attributes"]
        }
        assert attributes == {"service.name": "test",
                              "service.instance.id": "node-0"}
        span = resource["scopeSpans"][0]["spans"][0]
        assert span["name"] == "unit.op"
        assert len(span["traceId"]) == 32
        assert len(span["spanId"]) == 16


class TestHealthRoute:
    def test_default_health_is_ready(self, server):
        status, _, body = fetch(server.url + "/health")
        assert status == 200
        assert json.loads(body) == {"ready": True, "status": "ok"}

    def test_not_ready_health_is_503_with_document(self):
        registry = MetricsRegistry()
        srv = ObsHttpServer(
            registry,
            health_provider=lambda: {"ready": False, "status": "standby",
                                     "role": "standby"},
        ).start()
        try:
            status, _, body = fetch(srv.url + "/health")
            assert status == 503
            assert json.loads(body)["status"] == "standby"
        finally:
            srv.stop()

    def test_health_provider_crash_is_500_not_fatal(self):
        registry = MetricsRegistry()

        def broken():
            raise RuntimeError("boom")

        srv = ObsHttpServer(registry, health_provider=broken).start()
        try:
            status, _, body = fetch(srv.url + "/health")
            assert status == 500
            assert "boom" in json.loads(body)["error"]
            # The server survives: the next route still answers.
            assert fetch(srv.url + "/metrics")[0] == 200
        finally:
            srv.stop()


class TestSpanShipping:
    def test_scrape_drains_to_rotated_otlp_files(self, tmp_path):
        registry = MetricsRegistry()
        exporter = OtlpJsonlSpanExporter(str(tmp_path / "spans.jsonl"))
        srv = ObsHttpServer(registry, span_exporter=exporter).start()
        try:
            with start_span("ship.me", component="test", node_id="n0"):
                pass
            _, _, body = fetch(srv.url + "/spans")
            document = json.loads(body)
            assert [span["name"] for span in document["spans"]] == ["ship.me"]
            assert document["exported"] == 1
            # The store was drained into the file: a second scrape is empty,
            # the file holds the batch.
            assert json.loads(fetch(srv.url + "/spans")[2])["spans"] == []
            assert SPAN_STORE.spans() == []
            lines = (tmp_path / "spans.jsonl").read_text().splitlines()
            assert len(lines) == 1
            batch = json.loads(lines[0])
            assert batch["resourceSpans"][0]["scopeSpans"][0]["spans"][0][
                "name"] == "ship.me"
        finally:
            srv.stop()

    def test_rotation_bounds_disk(self, tmp_path):
        from repro.obs import RotatingJsonlWriter

        writer = RotatingJsonlWriter(str(tmp_path / "log.jsonl"),
                                     max_bytes=200, max_files=3)
        for index in range(50):
            writer.write({"index": index, "pad": "x" * 40})
        files = writer.files()
        assert len(files) <= 3
        import os
        for path in files:
            assert os.path.getsize(path) <= 200 + 64
        # Newest record is in the active file.
        last = json.loads(
            (tmp_path / "log.jsonl").read_text().splitlines()[-1])
        assert last["index"] == 49
