"""Transport abstractions.

stdchk components never hold direct references to each other: they know each
other's *addresses* and issue calls through a :class:`Transport`.  This keeps
the manager/benefactor/client code identical whether the deployment is
in-process (tests, benchmarks) or spread over TCP sockets.
"""

from __future__ import annotations

import functools
import time
from abc import ABC, abstractmethod
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from repro.exceptions import ProtocolError
from repro.obs import runtime, tracing


def rpc(handler: Callable[..., Any]) -> Callable[..., Any]:
    """Declare ``handler`` an RPC admitted by its endpoint's guard.

    The guard (:meth:`Endpoint._admit`) runs on every call, dispatched or
    direct, before the handler body: a refused call changes nothing.
    """

    @functools.wraps(handler)
    def guarded(self: "Endpoint", /, *args: Any, **kwargs: Any) -> Any:
        self._admit()
        return handler(self, *args, **kwargs)

    guarded.rpc_entry = (handler, True)  # type: ignore[attr-defined]
    return guarded


def control(handler: Callable[..., Any]) -> Callable[..., Any]:
    """Declare ``handler`` a control RPC: served in any state, never guarded."""
    handler.rpc_entry = (handler, False)  # type: ignore[attr-defined]
    return handler


class Endpoint(ABC):
    """An object that can be exported over a transport.

    An endpoint serves exactly the methods its class declares with
    :func:`rpc` (client- and peer-facing calls, admitted by the class's one
    guard, :meth:`_admit`) or :func:`control` (probes and operator calls
    served in any state).  The table is built once per class, inherited and
    extended by subclasses; :meth:`dispatch` refuses any other name with
    :class:`~repro.exceptions.ProtocolError`, so lifecycle and fault
    injection methods (``crash``, ``fail``, ...) stay local.  A subclass
    that overrides an RPC declares the override too.

    Observability hooks (all optional): an endpoint exposing an ``obs``
    :class:`~repro.obs.MetricsRegistry` gets per-method server-side RPC
    latency histograms for free, and ``obs_component``/``obs_node_id``
    attributes stamp identity onto server-side trace spans.
    """

    #: ``method -> (handler, guarded)`` of every RPC the class serves.
    _rpcs: Dict[str, Tuple[Callable[..., Any], bool]] = {}

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        table = dict(cls._rpcs)
        for name, attribute in vars(cls).items():
            entry = getattr(attribute, "rpc_entry", None)
            if entry is not None:
                table[name] = entry
            elif name in table:
                raise TypeError(
                    f"{cls.__qualname__}.{name} overrides an RPC without "
                    "declaring it @rpc or @control"
                )
        cls._rpcs = table

    def _admit(self) -> None:
        """The guard every :func:`rpc` call passes; raise to refuse it."""

    def dispatch(self, method: str, payload: Dict[str, Any]) -> Any:
        """Invoke ``method`` with keyword arguments ``payload``.

        The reserved ``__trace__`` payload key (injected by the transports'
        client side) is stripped before the handler sees its arguments and
        opens a server-side span parented to the caller's context.
        """
        entry = self._rpcs.get(method)
        if entry is None:
            raise ProtocolError(
                f"{type(self).__name__} serves no RPC named {method!r}")
        handler, guarded = entry
        ctx = tracing.extract(payload)
        timer = self._rpc_timer(method) if runtime.ENABLED else None
        span = tracing.NO_SPAN if ctx is None else tracing.start_span(
            f"rpc.server:{method}",
            component=getattr(self, "obs_component", ""),
            node_id=getattr(self, "obs_node_id", ""),
            parent=ctx,
        )
        started = time.perf_counter()
        try:
            with span:
                if guarded:
                    self._admit()
                return handler(self, **payload)
        finally:
            if timer is not None:
                timer.observe(time.perf_counter() - started)

    def _rpc_timer(self, method: str) -> Optional[Any]:
        """The latency series of ``method``, resolved once per endpoint.

        None for an endpoint without an ``obs`` registry.  The series is
        windowed, so one observation feeds both the lifetime histogram and
        the recent p50/p99 of live SLOs.  Looking the family and its label
        child up costs registry and family locks per RPC; the series object
        is stable, so it is kept on the endpoint, keyed by method, for as
        long as ``obs`` is the same registry.
        """
        registry = getattr(self, "obs", None)
        if registry is None:
            return None
        cache = getattr(self, "_rpc_timer_cache", None)
        if cache is None or cache[0] is not registry:
            cache = self._rpc_timer_cache = (registry, {})
        timer = cache[1].get(method)
        if timer is None:
            timer = cache[1][method] = registry.histogram(
                "rpc_handled_seconds",
                "Server-side RPC handling latency by method.",
                labelnames=("method",), window=True,
            ).labels(method=method)
        return timer


class Transport(ABC):
    """Delivers calls to endpoints identified by string addresses."""

    @abstractmethod
    def call(self, address: str, method: str, /, *,
             into: Optional[Sequence[memoryview]] = None, **payload: Any) -> Any:
        """Invoke ``method`` on the endpoint at ``address``.

        Raises :class:`~repro.exceptions.EndpointUnreachableError` when the
        endpoint cannot be contacted.  Exceptions raised by the remote method
        propagate to the caller (the in-process transport re-raises them
        directly; the TCP transport re-raises a reconstructed instance).

        ``into`` is a hint, never payload: one destination per element of a
        list-of-bytes result (``get_chunks``).  A transport able to deliver
        the elements in place does so when every element is exactly as long
        as its view, and the list returned then holds the views themselves;
        on any mismatch (count, one length, an error) none is touched and
        the result comes back as usual, as it does from a transport that
        ignores the hint.  Either way the caller checks what it got.
        """

    @abstractmethod
    def register(self, address: str, endpoint: Endpoint) -> None:
        """Make ``endpoint`` reachable at ``address`` (server side)."""

    @abstractmethod
    def unregister(self, address: str) -> None:
        """Remove the endpoint at ``address``."""

    def bound_address(self, address: str) -> str:
        """The address peers dial to reach the endpoint registered at ``address``.

        The identity unless registering binds something the caller did not
        choose (the TCP transport binds an ephemeral port).
        """
        return address

    def ensure_pool_capacity(self, limit: int) -> None:
        """Allow ``limit`` concurrent calls per endpoint; nothing to grow here."""

    def close(self) -> None:
        """Release what the transport holds (sockets, servers); nothing here."""

    def probe(self, address: str, method: str, timeout: "float | None" = None,
              /, **payload: Any) -> Any:
        """Like :meth:`call`, but bounded by ``timeout`` where supported.

        Failover probes must not hang on a black-holed endpoint (a host that
        accepts connections but never answers).  Transports that can enforce
        a deadline override this; the default simply delegates to
        :meth:`call`, which is correct for in-process transports where a
        local call cannot stall on the network.
        """
        return self.call(address, method, **payload)

    def proxy(self, address: str) -> "RemoteProxy":
        """Return a convenience proxy whose attribute calls become RPCs."""
        return RemoteProxy(self, address)


class RemoteProxy:
    """Attribute-style sugar over :meth:`Transport.call`.

    ``proxy.put_chunks(chunk_ids=[...], data=[...])`` is equivalent to
    ``transport.call(address, "put_chunks", chunk_ids=[...], data=[...])``.
    """

    def __init__(self, transport: Transport, address: str) -> None:
        self._transport = transport
        self._address = address

    @property
    def address(self) -> str:
        return self._address

    def __getattr__(self, method: str) -> Any:
        if method.startswith("_"):
            raise AttributeError(method)

        def _invoke(**payload: Any) -> Any:
            return self._transport.call(self._address, method, **payload)

        _invoke.__name__ = method
        return _invoke

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RemoteProxy({self._address!r})"
