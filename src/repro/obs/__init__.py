"""``repro.obs`` — metrics registry, trace propagation and exporters.

Three pieces, per the observability tentpole:

* :mod:`repro.obs.metrics` — thread-safe labeled counters/gauges/histograms,
  one :class:`MetricsRegistry` per node, :func:`merge_snapshots` for
  pool-wide aggregation.
* :mod:`repro.obs.tracing` — trace contexts injected into RPC payloads on
  both transports, spans recorded to the process-global
  :data:`~repro.obs.tracing.SPAN_STORE`.
* :mod:`repro.obs.export` — Prometheus text exposition + JSON snapshots.

Plus :func:`logging_setup` / :func:`component_logger` for structured logs,
and the global :func:`set_enabled` switch used by the benchmark overhead
gate.
"""

from repro.obs.runtime import is_enabled, set_enabled
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    LabelChildren,
    MetricsRegistry,
    merge_snapshots,
)
from repro.obs.tracing import (
    SPAN_STORE,
    Span,
    SpanStore,
    TraceContext,
    current_context,
    start_span,
    use_context,
)
from repro.obs.export import to_json, to_prometheus
from repro.obs.logs import component_logger, logging_setup
from repro.obs.otlp import otlp_resource_spans
from repro.obs.http import ObsHttpServer
from repro.obs.health import (
    ClusterHealthMonitor,
    HealthTransition,
    http_health_probe,
    rpc_health_probe,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "LabelChildren",
    "MetricsRegistry",
    "merge_snapshots",
    "SPAN_STORE",
    "Span",
    "SpanStore",
    "TraceContext",
    "current_context",
    "start_span",
    "use_context",
    "to_json",
    "to_prometheus",
    "component_logger",
    "logging_setup",
    "is_enabled",
    "set_enabled",
    "otlp_resource_spans",
    "ObsHttpServer",
    "ClusterHealthMonitor",
    "HealthTransition",
    "http_health_probe",
    "rpc_health_probe",
]
