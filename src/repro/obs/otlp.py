"""OTLP/JSON rendering of finished spans.

``/spans?format=otlp`` (:class:`~repro.obs.http.ObsHttpServer`) answers with
:func:`otlp_resource_spans`: the span store's contents in OTLP/JSON shape
(``resourceSpans`` → ``scopeSpans`` → ``spans``), one resource per node.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.obs.tracing import Span


def _otlp_id(hex_id: Optional[str], width: int) -> str:
    """Zero-pad our 8-byte ids to OTLP's 16-byte trace / 8-byte span hex."""
    return (hex_id or "").rjust(width, "0")


def _otlp_attributes(attributes: Dict[str, object]) -> List[dict]:
    return [
        {"key": str(key), "value": {"stringValue": str(value)}}
        for key, value in sorted(attributes.items(), key=lambda kv: str(kv[0]))
    ]


def otlp_span(span: Span) -> dict:
    """One span in OTLP/JSON shape (ids padded to OTLP widths)."""
    start_nanos = int(span.start_time * 1e9)
    end_nanos = start_nanos + int(span.duration * 1e9)
    out = {
        "traceId": _otlp_id(span.trace_id, 32),
        "spanId": _otlp_id(span.span_id, 16),
        "name": span.name,
        "startTimeUnixNano": str(start_nanos),
        "endTimeUnixNano": str(end_nanos),
        "status": {"code": "STATUS_CODE_ERROR" if span.status == "error"
                   else "STATUS_CODE_OK"},
        "attributes": _otlp_attributes(dict(span.attributes)),
    }
    if span.parent_id:
        out["parentSpanId"] = _otlp_id(span.parent_id, 16)
    if span.error:
        out["status"]["message"] = span.error
    return out


def otlp_resource_spans(spans: Sequence[Span]) -> dict:
    """A batch of finished spans as one OTLP/JSON export request body.

    Spans are grouped by (component, node id) into one ``resourceSpans``
    entry each, mirroring how a per-node OTLP SDK would report them.
    """
    grouped: Dict[tuple, List[Span]] = {}
    for span in spans:
        grouped.setdefault((span.component, span.node_id), []).append(span)
    resource_spans = []
    for (component, node_id), members in sorted(grouped.items()):
        attributes = []
        if component:
            attributes.append({"key": "service.name",
                               "value": {"stringValue": component}})
        if node_id:
            attributes.append({"key": "service.instance.id",
                               "value": {"stringValue": node_id}})
        resource_spans.append({
            "resource": {"attributes": attributes},
            "scopeSpans": [{
                "scope": {"name": "repro.obs"},
                "spans": [otlp_span(span) for span in members],
            }],
        })
    return {"resourceSpans": resource_spans}
