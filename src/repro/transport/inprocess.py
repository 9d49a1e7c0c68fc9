"""In-process transport: direct dispatch to registered endpoints.

Calls still travel through the full ``call(address, method, payload)``
protocol, so the caller code is identical to the TCP deployment, but delivery
is a plain method invocation.  This class only registers and dispatches;
faults (partitions, dropped calls, lost answers, scripted answers) and call
logs come from wrapping it in :class:`~repro.transport.faulty.FaultyTransport`,
which is what :class:`~repro.pool.StdchkPool` does.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Optional, Sequence

from repro.exceptions import EndpointUnreachableError
from repro.obs import runtime, tracing
from repro.transport.base import Endpoint, Transport


class InProcessTransport(Transport):
    """Registry-backed transport for single-process deployments."""

    def __init__(self) -> None:
        self._endpoints: Dict[str, Endpoint] = {}
        self._lock = threading.Lock()

    # -- registration ------------------------------------------------------
    def register(self, address: str, endpoint: Endpoint) -> None:
        with self._lock:
            self._endpoints[address] = endpoint

    def unregister(self, address: str) -> None:
        with self._lock:
            self._endpoints.pop(address, None)

    # -- dispatch -------------------------------------------------------------
    def call(self, address: str, method: str, /, *,
             into: Optional[Sequence[memoryview]] = None, **payload: Any) -> Any:
        # ``into`` is ignored: the handler's result is handed over as is.
        with self._lock:
            endpoint = self._endpoints.get(address)
        ctx = tracing.current_context() if runtime.ENABLED else None
        if ctx is None:
            return _deliver(address, method, payload, endpoint)
        with tracing.start_span(f"rpc:{method}", component="rpc-client",
                                attributes={"address": address}):
            tracing.inject(payload)
            return _deliver(address, method, payload, endpoint)


def _deliver(address: str, method: str, payload: Dict[str, Any],
             endpoint: Optional[Endpoint]) -> Any:
    if endpoint is None:
        raise EndpointUnreachableError(
            f"no endpoint registered at {address!r}", endpoint=address
        )
    return endpoint.dispatch(method, payload)
