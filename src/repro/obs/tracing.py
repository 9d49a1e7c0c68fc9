"""Trace contexts, spans and the in-memory span store.

A trace is born when a client operation (``write_file``, ``read_file``, …)
opens a root span.  The active context is kept in a ``threading.local`` —
*not* a ``contextvars`` variable, because the client data paths hand work to
``ThreadPoolExecutor`` workers which would not inherit it; instead the
pusher/reader capture the context at construction and re-activate it inside
each worker task with :func:`use_context`.  Whether a client operation opens
a root at all is the client's trace budget (``StdchkConfig.trace_rate``); a
root it refuses still records one span if it fails (:func:`record_failure`).

Everything here runs on every traced frame, fetch and RPC, so nothing
allocates more than it must: spans and scopes are small slotted classes with
``__enter__``/``__exit__`` (no generator per ``with``), an open span *is* the
thread's context, and :func:`start_span` with observability off, like
:func:`use_context` of no context, hands back one shared do-nothing scope.

Propagation across RPC boundaries rides inside the existing payload dict
under the reserved key :data:`TRACE_KEY` as a ``(trace_id, span_id)`` tuple
— no wire-format change for either transport (:meth:`TraceContext.from_wire`
still accepts the dict form).  The client side of a transport injects the
current context (and wraps the call in an ``rpc:<method>`` span so
unreachable endpoints are error-annotated); ``Endpoint.dispatch`` pops the
key before invoking the handler and opens a server-side span stamped with
the endpoint's component and node id.  One checkpoint write therefore
yields a linked span tree client -> manager -> benefactors, all sharing one
trace id.
"""

from __future__ import annotations

import json
import os
import random
import threading
import time
from collections import deque
from contextlib import nullcontext
from typing import Dict, List, Optional, Tuple

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


class TraceContext:
    """The (trace id, span id, parent) triple identifying a position.

    Treated as immutable.  A :class:`Span` is its own context, so a context
    captured while a span is open is that span.
    """

    __slots__ = ("trace_id", "span_id", "parent_id")

    def __init__(self, trace_id: str, span_id: str,
                 parent_id: Optional[str] = None) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id

    def _key(self) -> Tuple[str, str, Optional[str]]:
        return (self.trace_id, self.span_id, self.parent_id)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceContext):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(trace_id={self.trace_id!r}, "
                f"span_id={self.span_id!r}, parent_id={self.parent_id!r})")

    def to_wire(self) -> Tuple[str, str]:
        return (self.trace_id, self.span_id)

    @staticmethod
    def from_wire(wire: object) -> Optional["TraceContext"]:
        """Parse a ``(trace_id, span_id)`` pair, or the dict form older peers send."""
        if type(wire) is tuple or type(wire) is list:
            if len(wire) != 2:
                return None
            trace_id, span_id = wire
        elif isinstance(wire, dict):
            trace_id = wire.get("trace_id")
            span_id = wire.get("span_id")
        else:
            return None
        if not trace_id or not span_id:
            return None
        return TraceContext(str(trace_id), str(span_id))


class Span(TraceContext):
    """One timed unit of work attributed to a component/node.

    A span is a context manager: entering activates it as the thread's trace
    context and starts its timer, leaving restores the previous context,
    annotates an exception and records the span into its store.
    """

    __slots__ = ("name", "component", "node_id", "start_time", "duration",
                 "status", "error", "attributes", "_store", "_previous",
                 "_started")

    def __init__(self, trace_id: str, span_id: str, parent_id: Optional[str],
                 name: str, component: str = "", node_id: str = "",
                 start_time: float = 0.0, duration: float = 0.0,
                 status: str = "ok", error: Optional[str] = None,
                 attributes: Optional[Dict[str, object]] = None,
                 store: Optional["SpanStore"] = None) -> None:
        super().__init__(trace_id, span_id, parent_id)
        self.name = name
        self.component = component
        self.node_id = node_id
        self.start_time = start_time
        self.duration = duration
        self.status = status
        self.error = error
        self.attributes: Dict[str, object] = attributes if attributes is not None else {}
        self._store = store
        self._previous: Optional[TraceContext] = None
        self._started = 0.0

    def __enter__(self) -> "Span":
        self._previous = _tls.ctx
        _tls.ctx = self
        self.start_time = time.time()
        self._started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, _tb) -> bool:
        self.duration = time.perf_counter() - self._started
        _tls.ctx = self._previous
        self._previous = None
        if exc_type is not None:
            self.status = "error"
            self.error = f"{exc_type.__name__}: {exc}"
        (self._store if self._store is not None else SPAN_STORE).record(self)
        return False

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


class _ThreadContext(threading.local):
    ctx: Optional[TraceContext] = None


_tls = _ThreadContext()


def current_context() -> Optional[TraceContext]:
    """The trace context active on this thread, if any."""
    return _tls.ctx


#: What :func:`start_span` returns while observability is off, and what a
#: caller with nothing to trace may enter instead of a span: one shared
#: scope that does nothing and enters as ``None``.
NO_SPAN = nullcontext()


class _Adopted:
    """The scope of :func:`use_context`: ``ctx`` is current inside it."""

    __slots__ = ("_ctx", "_previous")

    def __init__(self, ctx: TraceContext) -> None:
        self._ctx = ctx
        self._previous: Optional[TraceContext] = None

    def __enter__(self) -> None:
        self._previous = _tls.ctx
        _tls.ctx = self._ctx

    def __exit__(self, *_exc) -> bool:
        _tls.ctx = self._previous
        return False


def use_context(ctx: Optional[TraceContext]):
    """A scope in which ``ctx`` is this thread's trace context.

    Used by thread-pool workers to adopt the context captured by the
    submitting thread; ``None`` is accepted and is a no-op so callers do not
    need to special-case untraced operation.
    """
    return NO_SPAN if ctx is None else _Adopted(ctx)


def start_span(name: str, component: str = "", node_id: str = "",
               parent: Optional[TraceContext] = None,
               attributes: Optional[Dict[str, object]] = None,
               store: Optional[SpanStore] = None):
    """A span to enter: it becomes this thread's context, recorded on exit.

    ``parent`` overrides the thread-local context (used by the server side
    of an RPC, where the parent arrived on the wire).  Exceptions mark the
    span ``status="error"`` with the exception repr and re-raise, so failed
    RPCs leave an annotated tombstone in the tree.  While observability is
    off this is :data:`NO_SPAN`, which enters as ``None``.
    """
    if not runtime.ENABLED:
        return NO_SPAN
    if parent is None:
        parent = _tls.ctx
    if parent is None:
        trace_id, parent_id = new_id(), None
    else:
        trace_id, parent_id = parent.trace_id, parent.span_id
    return Span(trace_id, new_id(), parent_id, name, component, node_id,
                attributes=dict(attributes) if attributes else {}, store=store)


class _FailureOnly:
    """The scope of :func:`record_failure`."""

    __slots__ = ("_name", "_component", "_node_id", "_attributes", "_started")

    def __init__(self, name: str, component: str, node_id: str,
                 attributes: Optional[Dict[str, object]]) -> None:
        self._name = name
        self._component = component
        self._node_id = node_id
        self._attributes = attributes
        self._started = 0.0

    def __enter__(self) -> None:
        self._started = time.perf_counter()

    def __exit__(self, exc_type, exc, _tb) -> bool:
        if exc_type is not None:
            duration = time.perf_counter() - self._started
            SPAN_STORE.record(Span(
                new_id(), new_id(), None, self._name, self._component,
                self._node_id, start_time=time.time() - duration,
                duration=duration, status="error",
                error=f"{exc_type.__name__}: {exc}",
                attributes=dict(self._attributes) if self._attributes else {},
            ))
        return False


def record_failure(name: str, component: str = "", node_id: str = "",
                   attributes: Optional[Dict[str, object]] = None):
    """A root that is not traced, except that failing records it.

    Nothing becomes the thread's context, so the block's RPCs carry no trace
    and open no spans; if the block raises, one root span with the exception,
    its duration and no children is recorded, exactly as :func:`start_span`
    would have annotated it.
    """
    if not runtime.ENABLED:
        return NO_SPAN
    return _FailureOnly(name, component, node_id, attributes)


def inject(payload: Dict[str, object]) -> None:
    """Stamp the current context into an RPC payload (no-op when untraced)."""
    if not runtime.ENABLED:
        return
    ctx = _tls.ctx
    if ctx is not None:
        payload[TRACE_KEY] = ctx.to_wire()


def extract(payload: Dict[str, object]) -> Optional[TraceContext]:
    """Pop and parse the trace context from an RPC payload, if present."""
    wire = payload.pop(TRACE_KEY, None)
    if wire is None:
        return None
    return TraceContext.from_wire(wire)
