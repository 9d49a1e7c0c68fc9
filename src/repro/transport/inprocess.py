"""In-process transport: direct dispatch to registered endpoints.

Calls still travel through the full ``call(address, method, payload)``
protocol, so the caller code is identical to the TCP deployment, but delivery
is a plain method invocation.  Two failure-injection hooks support the
integration tests and failure benchmarks:

* endpoints can be *disconnected* (the address stays registered but calls
  raise :class:`EndpointUnreachableError`), modelling a desktop owner
  reclaiming their machine;
* a per-call fault hook can inject arbitrary exceptions or delays.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, Optional, Sequence, Set

from repro.exceptions import EndpointUnreachableError
from repro.obs import runtime, tracing
from repro.transport.base import Endpoint, Transport

#: Optional hook invoked before every call: (address, method, payload) -> None.
FaultHook = Callable[[str, str, Dict[str, Any]], None]


class InProcessTransport(Transport):
    """Registry-backed transport for single-process deployments."""

    def __init__(self) -> None:
        self._endpoints: Dict[str, Endpoint] = {}
        self._disconnected: Set[str] = set()
        self._fault_hook: Optional[FaultHook] = None
        self._lock = threading.RLock()
        #: Count of calls per (address, method); useful for benchmarks that
        #: report manager transaction counts (Figure 8's 2800 transactions).
        self.call_counts: Dict[tuple, int] = {}

    # -- registration ------------------------------------------------------
    def register(self, address: str, endpoint: Endpoint) -> None:
        with self._lock:
            self._endpoints[address] = endpoint
            self._disconnected.discard(address)

    def unregister(self, address: str) -> None:
        with self._lock:
            self._endpoints.pop(address, None)
            self._disconnected.discard(address)

    def registered_addresses(self) -> Set[str]:
        with self._lock:
            return set(self._endpoints)

    # -- failure injection ----------------------------------------------------
    def disconnect(self, address: str) -> None:
        """Make ``address`` unreachable without unregistering it."""
        with self._lock:
            self._disconnected.add(address)

    def reconnect(self, address: str) -> None:
        with self._lock:
            self._disconnected.discard(address)

    def is_connected(self, address: str) -> bool:
        with self._lock:
            return address in self._endpoints and address not in self._disconnected

    def set_fault_hook(self, hook: Optional[FaultHook]) -> None:
        """Install (or clear) a hook called before every dispatched call."""
        self._fault_hook = hook

    # -- dispatch -------------------------------------------------------------
    def call(self, address: str, method: str, /, *,
             into: Optional[Sequence[memoryview]] = None, **payload: Any) -> Any:
        # ``into`` is ignored: the handler's result is handed over as is.
        with self._lock:
            endpoint = self._endpoints.get(address)
            disconnected = address in self._disconnected
            self.call_counts[(address, method)] = (
                self.call_counts.get((address, method), 0) + 1
            )
        ctx = tracing.current_context() if runtime.ENABLED else None
        if ctx is None:
            return self._deliver(address, method, payload, endpoint, disconnected)
        with tracing.start_span(f"rpc:{method}", component="rpc-client",
                                attributes={"address": address}):
            tracing.inject(payload)
            return self._deliver(address, method, payload, endpoint, disconnected)

    def _deliver(self, address: str, method: str, payload: Dict[str, Any],
                 endpoint: Optional[Endpoint], disconnected: bool) -> Any:
        if endpoint is None:
            raise EndpointUnreachableError(
                f"no endpoint registered at {address!r}", endpoint=address
            )
        if disconnected:
            raise EndpointUnreachableError(
                f"endpoint {address!r} is unreachable", endpoint=address
            )
        if self._fault_hook is not None:
            self._fault_hook(address, method, payload)
        return endpoint.dispatch(method, payload)

    # -- introspection ----------------------------------------------------------
    def calls_to(self, address: str) -> int:
        """Total number of calls delivered to ``address``."""
        with self._lock:
            return sum(
                count for (addr, _method), count in self.call_counts.items()
                if addr == address
            )

    def reset_counters(self) -> None:
        with self._lock:
            self.call_counts.clear()
