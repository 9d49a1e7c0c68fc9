"""Spans recorded from outside the program, and the per-layer table.

The traced run wraps the public entry point of each layer with a timing
wrapper installed as a class attribute (nothing under ``src/`` changes).  A
span is ``(id, parent, layer, name, start, end, thread, request)``; the
parent link follows the work across threads (``ThreadPoolExecutor.submit``
carries the submitter's span to the worker) and across the wire (the client
side of ``TcpTransport.call`` adds its span id to the payload and the
``Endpoint.dispatch`` wrapper pops it again before the handler runs).

Two times are derived per span:

* *self time* — its duration minus the part its children cover;
* *exclusive time* — a sweep over one client operation's time line gives
  every instant to the deepest span of that operation's tree active at that
  instant (its push and fetch workers and the servers' handler threads
  included).  The harness is pinned to one CPU, so at most one thread runs
  at a time and the deepest span is the one most likely running.  Exclusive
  times of all layers add up to the operations' wall time exactly.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Tuple

#: Payload key linking a server-side span to the client call that caused it.
LINK_KEY = "__bench_span__"

Span = Tuple[int, int, str, str, float, float, int, int]
ID, PARENT, LAYER, NAME, START, END, THREAD, REQUEST = range(8)

ENDPOINT_LAYERS = {
    "MetadataManager": "manager.manager",
    "StandbyManager": "manager.replication.standby",
    "Benefactor": "benefactor.benefactor",
}
LAYERS = (
    "client.proxy", "client.session", "client.read_path", "transport.tcp",
    "benefactor.benefactor", "benefactor.chunk_store", "manager.manager",
    "manager.persistence", "manager.replication.shipper",
    "manager.replication.standby",
)


class Recorder:
    """In-memory span sink; records only while ``enabled``."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def drain(self) -> List[Span]:
        spans, self.spans = self.spans, []
        return spans

    # -- wrappers -------------------------------------------------------------
    def _run(self, fn: Callable, args, kwargs, layer: str, name: str,
             parent=None, link_payload=None):
        local = self._local
        previous = getattr(local, "current", None)
        if parent is None:
            parent = previous
        span_id = next(self._ids)
        request = parent[1] if parent is not None else span_id
        local.current = (span_id, request)
        if link_payload is not None:
            link_payload[LINK_KEY] = (span_id, request)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            local.current = previous
            self.spans.append((span_id, parent[0] if parent is not None else 0,
                               layer, name, start, end, threading.get_ident(), request))

    def wrap(self, fn: Callable, layer: str) -> Callable:
        name = fn.__name__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            return self._run(fn, args, kwargs, layer, name)
        return wrapper

    def wrap_call(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def call(transport, address, method, /, **payload):
            if not self.enabled:
                return fn(transport, address, method, **payload)
            return self._run(fn, (transport, address, method), payload,
                             "transport.tcp", method, link_payload=payload)
        return call

    def wrap_dispatch(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def dispatch(endpoint, method, payload):
            link = payload.pop(LINK_KEY, None)
            if link is None or not self.enabled:
                return fn(endpoint, method, payload)
            layer = ENDPOINT_LAYERS.get(type(endpoint).__name__, "transport.base")
            return self._run(fn, (endpoint, method, payload), {}, layer, method,
                             parent=tuple(link))
        return dispatch

    def wrap_submit(self, fn: Callable) -> Callable:
        local = self._local

        @functools.wraps(fn)
        def submit(executor, task, /, *args, **kwargs):
            current = getattr(local, "current", None) if self.enabled else None
            if current is None:
                return fn(executor, task, *args, **kwargs)

            def carried(*a, **k):
                local.current = current
                try:
                    return task(*a, **k)
                finally:
                    local.current = None
            return fn(executor, carried, *args, **kwargs)
        return submit

    def install(self) -> Callable[[], None]:
        """Wrap every layer's entry points; returns the function that undoes it."""
        from repro.benefactor.chunk_store import ChunkStore
        from repro.client.proxy import ClientProxy
        from repro.client.read_path import StripedReader
        from repro.client.session import ChunkPusher
        from repro.manager.persistence import ManagerPersistence
        from repro.manager.replication import LogShipper
        from repro.transport.base import Endpoint
        from repro.transport.tcp import TcpTransport

        undo: List[Callable[[], None]] = []

        def patch(cls, attr: str, wrapper: Callable) -> None:
            original = vars(cls)[attr]
            undo.append(lambda: setattr(cls, attr, original))
            setattr(cls, attr, wrapper)

        for attr in ("write_file", "read_file", "stat", "listdir", "delete"):
            patch(ClientProxy, attr, self.wrap(getattr(ClientProxy, attr), "client.proxy"))
        for attr in ("feed", "finish"):
            patch(ChunkPusher, attr, self.wrap(getattr(ChunkPusher, attr), "client.session"))
        patch(StripedReader, "read_all",
              self.wrap(StripedReader.read_all, "client.read_path"))
        for attr in ("put", "get"):
            patch(ChunkStore, attr,
                  self.wrap(getattr(ChunkStore, attr), "benefactor.chunk_store"))
        patch(ManagerPersistence, "append",
              self.wrap(ManagerPersistence.append, "manager.persistence"))
        patch(LogShipper, "offer",
              self.wrap(LogShipper.offer, "manager.replication.shipper"))
        patch(TcpTransport, "call", self.wrap_call(TcpTransport.call))
        patch(Endpoint, "dispatch", self.wrap_dispatch(Endpoint.dispatch))
        patch(ThreadPoolExecutor, "submit", self.wrap_submit(ThreadPoolExecutor.submit))

        def uninstall() -> None:
            for step in reversed(undo):
                step()
        return uninstall


# -- analysis -----------------------------------------------------------------
def _covered(intervals: List[Tuple[float, float]], low: float, high: float) -> float:
    """Length of ``[low, high]`` covered by the union of ``intervals``."""
    total = 0.0
    edge = low
    for start, end in sorted(intervals):
        start = max(start, edge)
        end = min(end, high)
        if end > start:
            total += end - start
            edge = end
    return total


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id -> duration minus the part its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        children[span[PARENT]].append((span[START], span[END]))
    return {
        span[ID]: (span[END] - span[START])
        - _covered(children.get(span[ID], []), span[START], span[END])
        for span in spans
    }


def exclusive_times(spans: List[Span], window: Tuple[float, float]) -> Dict[str, float]:
    """Per-layer exclusive seconds inside ``window`` (instants no span covers are dropped)."""
    by_id = {span[ID]: span for span in spans}
    depth: Dict[int, int] = {}

    def depth_of(span_id: int) -> int:
        chain = []
        while span_id in by_id and span_id not in depth:
            chain.append(span_id)
            span_id = by_id[span_id][PARENT]
        base = depth.get(span_id, 0)
        for offset, member in enumerate(reversed(chain), start=1):
            depth[member] = base + offset
        return depth[chain[0]] if chain else base

    events = []
    for span in spans:
        rank = (depth_of(span[ID]), span[START], span[ID])
        events.append((span[START], 1, rank, span[LAYER]))
        events.append((span[END], 0, rank, span[LAYER]))
    events.sort(key=lambda event: (event[0], event[1]))

    low, high = window
    layers: Dict[str, float] = defaultdict(float)
    active: Dict[tuple, str] = {}
    cursor = low
    for moment, opening, rank, layer in events:
        moment = min(max(moment, low), high)
        if moment > cursor:
            if active:
                layers[active[max(active)]] += moment - cursor
            cursor = moment
        if opening:
            active[rank] = layer
        else:
            active.pop(rank, None)
    return dict(layers)


def spans_to_json(spans: List[Span]) -> List[dict]:
    return [
        {"id": s[ID], "parent": s[PARENT], "layer": s[LAYER], "name": s[NAME],
         "start": s[START], "end": s[END], "thread": s[THREAD], "request": s[REQUEST]}
        for s in spans
    ]
