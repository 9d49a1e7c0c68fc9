"""Trace contexts, spans and the in-memory span store.

A trace is born when a client operation (``write_file``, ``read_file``, …)
opens a root span.  The active context is kept in a ``threading.local`` —
*not* a ``contextvars`` variable, because the client data paths hand work to
``ThreadPoolExecutor`` workers which would not inherit it; instead the
pusher/reader capture the context at construction and re-activate it inside
each worker task with :func:`use_context`.

Propagation across RPC boundaries rides inside the existing payload dict
under the reserved key :data:`TRACE_KEY` — no wire-format change for either
transport.  The client side of a transport injects the current context (and
wraps the call in an ``rpc:<method>`` span so unreachable endpoints are
error-annotated); ``Endpoint.dispatch`` pops the key before invoking the
handler and opens a server-side span stamped with the endpoint's component
and node id.  One checkpoint write therefore yields a linked span tree
client -> manager -> benefactors, all sharing one trace id.
"""

from __future__ import annotations

import json
import os
import random
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro.obs import runtime

#: Reserved RPC payload key carrying the wire form of a trace context.
TRACE_KEY = "__trace__"


#: Source of span and trace ids, seeded once from the OS.  Ids are
#: correlation keys, not secrets, so they need no syscall each;
#: ``getrandbits`` is a single C call and therefore safe across threads.
_ids = random.Random(os.urandom(16))


def new_id() -> str:
    """A fresh 64-bit hex id for traces and spans."""
    return f"{_ids.getrandbits(64):016x}"


@dataclass(frozen=True)
class TraceContext:
    """Immutable (trace id, span id, parent) triple identifying a position."""

    trace_id: str
    span_id: str
    parent_id: Optional[str] = None

    def to_wire(self) -> Dict[str, str]:
        return {"trace_id": self.trace_id, "span_id": self.span_id}

    @staticmethod
    def from_wire(wire: object) -> Optional["TraceContext"]:
        if not isinstance(wire, dict):
            return None
        trace_id = wire.get("trace_id")
        span_id = wire.get("span_id")
        if not trace_id or not span_id:
            return None
        return TraceContext(trace_id=str(trace_id), span_id=str(span_id))


@dataclass
class Span:
    """One timed unit of work attributed to a component/node."""

    trace_id: str
    span_id: str
    parent_id: Optional[str]
    name: str
    component: str = ""
    node_id: str = ""
    start_time: float = 0.0
    duration: float = 0.0
    status: str = "ok"
    error: Optional[str] = None
    attributes: Dict[str, object] = field(default_factory=dict)

    @property
    def context(self) -> TraceContext:
        return TraceContext(trace_id=self.trace_id, span_id=self.span_id,
                            parent_id=self.parent_id)

    def to_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "component": self.component,
            "node_id": self.node_id,
            "start_time": self.start_time,
            "duration": self.duration,
            "status": self.status,
            "error": self.error,
            "attributes": dict(self.attributes),
        }


class SpanStore:
    """Bounded, thread-safe in-memory sink for finished spans."""

    def __init__(self, max_spans: int = 8192):
        self._lock = threading.Lock()
        self._spans: deque = deque(maxlen=max_spans)

    def record(self, span: Span) -> None:
        with self._lock:
            self._spans.append(span)

    def spans(self) -> List[Span]:
        with self._lock:
            return list(self._spans)

    def traces(self) -> Dict[str, List[Span]]:
        """Finished spans grouped by trace id, in completion order."""
        grouped: Dict[str, List[Span]] = {}
        for span in self.spans():
            grouped.setdefault(span.trace_id, []).append(span)
        return grouped

    def tree(self, trace_id: str) -> List[dict]:
        """The span tree of one trace as nested dicts (roots first)."""
        spans = [s for s in self.spans() if s.trace_id == trace_id]
        nodes = {s.span_id: {**s.to_dict(), "children": []} for s in spans}
        roots: List[dict] = []
        for span in spans:
            node = nodes[span.span_id]
            parent = nodes.get(span.parent_id) if span.parent_id else None
            if parent is not None:
                parent["children"].append(node)
            else:
                roots.append(node)
        return roots

    def to_dicts(self) -> List[dict]:
        return [span.to_dict() for span in self.spans()]

    def dump_json(self, path: Optional[str] = None, indent: int = 2) -> str:
        """Serialize every stored span; optionally also write it to ``path``."""
        text = json.dumps({"spans": self.to_dicts()}, indent=indent,
                          sort_keys=True)
        if path is not None:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
        return text

    def drain(self) -> List[Span]:
        """Atomically remove and return every stored span (exporter hook)."""
        with self._lock:
            spans = list(self._spans)
            self._spans.clear()
        return spans

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)


#: Process-global default sink; tests clear it between scenarios.
SPAN_STORE = SpanStore()

_tls = threading.local()


def current_context() -> Optional[TraceContext]:
    """The trace context active on this thread, if any."""
    return getattr(_tls, "ctx", None)


@contextmanager
def use_context(ctx: Optional[TraceContext]) -> Iterator[None]:
    """Activate ``ctx`` on this thread for the duration of the block.

    Used by thread-pool workers to adopt the context captured by the
    submitting thread; ``None`` is accepted and is a no-op so callers do not
    need to special-case untraced operation.
    """
    previous = getattr(_tls, "ctx", None)
    _tls.ctx = ctx if ctx is not None else previous
    try:
        yield
    finally:
        _tls.ctx = previous


@contextmanager
def start_span(name: str, component: str = "", node_id: str = "",
               parent: Optional[TraceContext] = None,
               attributes: Optional[Dict[str, object]] = None,
               store: Optional[SpanStore] = None) -> Iterator[Optional[Span]]:
    """Open a span, activate its context on this thread, record on exit.

    ``parent`` overrides the thread-local context (used by the server side
    of an RPC, where the parent arrived on the wire).  Exceptions mark the
    span ``status="error"`` with the exception repr and re-raise, so failed
    RPCs leave an annotated tombstone in the tree.
    """
    if not runtime.ENABLED:
        yield None
        return
    parent_ctx = parent if parent is not None else current_context()
    span = Span(
        trace_id=parent_ctx.trace_id if parent_ctx else new_id(),
        span_id=new_id(),
        parent_id=parent_ctx.span_id if parent_ctx else None,
        name=name,
        component=component,
        node_id=node_id,
        start_time=time.time(),
        attributes=dict(attributes or {}),
    )
    started = time.perf_counter()
    previous = getattr(_tls, "ctx", None)
    _tls.ctx = span.context
    try:
        yield span
    except BaseException as exc:
        span.status = "error"
        span.error = f"{type(exc).__name__}: {exc}"
        raise
    finally:
        _tls.ctx = previous
        span.duration = time.perf_counter() - started
        (store if store is not None else SPAN_STORE).record(span)


def inject(payload: Dict[str, object]) -> None:
    """Stamp the current context into an RPC payload (no-op when untraced)."""
    if not runtime.ENABLED:
        return
    ctx = current_context()
    if ctx is not None:
        payload[TRACE_KEY] = ctx.to_wire()


def extract(payload: Dict[str, object]) -> Optional[TraceContext]:
    """Pop and parse the trace context from an RPC payload, if present."""
    wire = payload.pop(TRACE_KEY, None)
    if wire is None:
        return None
    return TraceContext.from_wire(wire)
