"""The per-node telemetry HTTP server: routes and readiness."""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.obs import (
    MetricsRegistry,
    ObsHttpServer,
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
        document = json.loads(body)
        assert list(document) == ["spans"]
        assert [span["name"] for span in document["spans"]] == ["unit.op"]

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
