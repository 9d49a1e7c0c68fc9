"""Per-node HTTP telemetry endpoints — dependency-free, threaded, embeddable.

Every node-like component (manager, standby, benefactor) can run one
:class:`ObsHttpServer` next to its RPC endpoint, turning the pull-by-RPC-only
telemetry of the observability subsystem into a live plane any scraper can
reach with plain ``curl``:

* ``GET /metrics`` — Prometheus text exposition of the node's registry
  (cumulative series plus windowed-summary quantiles).
* ``GET /metrics.json`` — the same snapshot as deterministic JSON.
* ``GET /spans`` — the span store dump (``{"spans": [...]}``); with
  ``?format=otlp`` the same spans in OTLP/JSON shape.
* ``GET /health`` — the node's role-aware health document; HTTP 200 when the
  node reports itself ready to serve its clients, 503 otherwise, so plain
  load-balancer-style checks work without parsing the body.

The server is stdlib-only (``http.server.ThreadingHTTPServer`` behind the
package's one server lifecycle, :class:`~repro.util.serving.BackgroundServer`),
binds an ephemeral port by default, and never logs to stdout (T20 gate).
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, Optional
from urllib.parse import urlparse

from repro.obs.export import to_json, to_prometheus
from repro.obs.metrics import MetricsRegistry
from repro.obs.otlp import otlp_resource_spans
from repro.obs.tracing import SPAN_STORE, SpanStore
from repro.util.serving import BackgroundServer

#: Content type of the Prometheus text exposition format.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"
JSON_CONTENT_TYPE = "application/json; charset=utf-8"


class _TelemetryHandler(BaseHTTPRequestHandler):
    """Routes one request; all state lives on the owning server object."""

    protocol_version = "HTTP/1.1"
    server_version = "stdchk-obs"

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        """Silence default stderr access logging (library code never prints)."""

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        owner: "ObsHttpServer" = self.server.owner  # type: ignore[attr-defined]
        parsed = urlparse(self.path)
        try:
            route = owner.routes.get(parsed.path)
            if route is None:
                self._respond(404, JSON_CONTENT_TYPE,
                              json.dumps({"error": "not found",
                                          "path": parsed.path}))
                return
            status, content_type, body = route(parsed.query)
            self._respond(status, content_type, body)
        except BrokenPipeError:  # pragma: no cover - client went away
            pass
        except Exception as exc:  # noqa: BLE001 - a scrape must never kill a node
            self._respond(500, JSON_CONTENT_TYPE,
                          json.dumps({"error": f"{type(exc).__name__}: {exc}"}))

    def _respond(self, status: int, content_type: str, body: str) -> None:
        payload = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)


class _TelemetryServer(BackgroundServer, ThreadingHTTPServer):
    pass


class ObsHttpServer:
    """One node's telemetry endpoint (threaded, daemonized, ephemeral port).

    ``health_provider`` is a zero-argument callable returning the node's
    health document; the HTTP status derives from its ``ready`` key.
    ``span_store`` defaults to the process-global store.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        health_provider: Optional[Callable[[], Dict[str, object]]] = None,
        span_store: Optional[SpanStore] = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.registry = registry
        self.health_provider = health_provider
        self.span_store = span_store if span_store is not None else SPAN_STORE
        self._server = _TelemetryServer((host, port), _TelemetryHandler)
        self._server.owner = self  # type: ignore[attr-defined]
        self._scrapes = registry.counter(
            "obs_http_requests_total",
            "Telemetry endpoint requests served, by route.",
            labelnames=("route",),
        )
        self.routes: Dict[str, Callable[[str], tuple]] = {
            "/metrics": self._metrics,
            "/metrics.json": self._metrics_json,
            "/spans": self._spans,
            "/health": self._health,
        }

    # -- lifecycle -----------------------------------------------------------
    @property
    def address(self) -> str:
        host, port = self._server.server_address[:2]
        return f"{host}:{port}"

    @property
    def url(self) -> str:
        return f"http://{self.address}"

    def start(self) -> "ObsHttpServer":
        self._server.start()
        return self

    def stop(self) -> None:
        self._server.stop()

    # -- routes --------------------------------------------------------------
    def _metrics(self, query: str) -> tuple:
        self._scrapes.labels(route="/metrics").inc()
        return 200, PROMETHEUS_CONTENT_TYPE, to_prometheus(self.registry.snapshot())

    def _metrics_json(self, query: str) -> tuple:
        self._scrapes.labels(route="/metrics.json").inc()
        return 200, JSON_CONTENT_TYPE, to_json(self.registry.snapshot())

    def _spans(self, query: str) -> tuple:
        self._scrapes.labels(route="/spans").inc()
        spans = self.span_store.spans()
        if "format=otlp" in query:
            body = json.dumps(otlp_resource_spans(spans), sort_keys=True)
        else:
            body = json.dumps({"spans": [span.to_dict() for span in spans]},
                              sort_keys=True)
        return 200, JSON_CONTENT_TYPE, body

    def _health(self, query: str) -> tuple:
        self._scrapes.labels(route="/health").inc()
        if self.health_provider is None:
            document: Dict[str, object] = {"ready": True, "status": "ok"}
        else:
            document = dict(self.health_provider())
        status = 200 if document.get("ready") else 503
        return status, JSON_CONTENT_TYPE, json.dumps(document, sort_keys=True)
