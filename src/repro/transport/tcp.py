"""TCP transport: one frame format, chunk payloads carried out-of-band.

Every RPC — request or response, large or small — is one frame::

    [meta_len u64][k u64][len_1 .. len_k u64][meta][section_1] .. [section_k]

``meta`` is a protocol-5 pickle of ``(method, payload_dict)`` on the way in
and of ``("ok", result)`` / ``("error", exception)`` on the way out.  The
chunks of a data RPC — the first list of bytes-likes among the payload's
top-level values (``put_chunks(data=[...])``) or the result itself when it is
such a list (``get_chunks``) — leave the pickle as :class:`pickle.PickleBuffer`
s, each element of at least :data:`OUT_OF_BAND_MIN` bytes a raw section of
its own, and protocol 5 pairs the *k* buffers with the *k* sections in order.
One RPC moves up to :data:`TRANSFER_UNIT` of chunks; a chunk that travels
alone is a frame of one.  Every other frame has ``k = 0`` and is just
``[meta_len][0][meta]``.

A frame leaves in one ``sendall`` when ``k = 0`` and in one ``sendmsg``
(``[header+table+meta, view_1 .. view_k]``, views of the caller's bytes)
otherwise.  The receiver reads the header, then the section table and
``meta`` with one ``recv``, then each section with its own
``recv(len, MSG_WAITALL)`` into its own ``bytes`` that the handler receives
as is — 2 + *k* receives in all — so a chunk is never copied in user space
between the application's buffer and the benefactor's store.  A caller that
already owns the memory the sections belong in (a restart read filling its
image) passes ``call(..., into=[view_1 .. view_k])``: when the reply has
exactly that many sections and each is exactly as long as its view, each is
received with ``recv_into`` at its final address and no buffer of its own
ever exists.

What arrives on a socket is not trusted.  Frames are loaded by an unpickler
that resolves no global except the exception classes of
:mod:`repro.exceptions` and :mod:`builtins` — every RPC argument and result
is built from dict/list/tuple/str/int/float/bool/None/bytes, which need no
globals — so a hostile pickle cannot name a callable.  The section count,
``meta_len`` and the sections' total are capped before anything they size is
allocated, and a frame that breaks any of these rules costs its sender only
its own connection.
"""

from __future__ import annotations

import builtins
import io
import pickle
import socket
import socketserver
import struct
import threading
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import exceptions
from repro.exceptions import EndpointUnreachableError, ProtocolError, StdchkError
from repro.obs import component_logger, runtime, tracing
from repro.transport.base import Endpoint, Transport
from repro.util.serving import BackgroundServer

#: ``meta_len`` and the section count *k*.
_HEADER = struct.Struct(">QQ")

#: Smallest bytes-like element that leaves the pickle and travels as a raw
#: section.  Below it the extra buffer in ``sendmsg`` and the extra ``recv``
#: cost more than the copy they save.
OUT_OF_BAND_MIN = 16 * 1024

#: The most chunk payload one data RPC carries: the paper's transfer size and
#: the default ``chunk_size``.  The client packs the chunks bound for (or
#: served by) one benefactor into frames of at most this much; a chunk at
#: least this large is a frame by itself.
TRANSFER_UNIT = 1 << 20

#: Upper bound on ``meta`` and on the sections together.  A header is 16
#: bytes anyone can send; without a cap it makes the receiver allocate
#: whatever it claims.
MAX_SECTION_BYTES = 1 << 30

#: Upper bound on the sections of one frame (``TRANSFER_UNIT`` of
#: ``OUT_OF_BAND_MIN``-sized chunks is 64); with the header it stays under
#: ``IOV_MAX``, so a frame is always one ``sendmsg``.
MAX_SECTIONS = 512

#: The closed registry of globals a frame may name: exception classes
#: defined in these modules, nothing else.
_WIRE_EXCEPTION_MODULES = {"builtins": builtins, "repro.exceptions": exceptions}


def _wire_exception(module: str, name: str) -> Optional[type]:
    """The exception class ``module.name`` if frames may carry it, else None."""
    owner = _WIRE_EXCEPTION_MODULES.get(module)
    cls = getattr(owner, name, None) if owner is not None else None
    if isinstance(cls, type) and issubclass(cls, BaseException):
        return cls
    return None


class _FrameUnpickler(pickle.Unpickler):
    """Loads a frame's ``meta``; the only globals it resolves are exceptions."""

    __slots__ = ()

    def find_class(self, module: str, name: str) -> type:
        cls = _wire_exception(module, name)
        if cls is None:
            raise pickle.UnpicklingError(
                f"global {module}.{name} is not allowed in a frame"
            )
        return cls


def _leave_out(_buffer: pickle.PickleBuffer) -> None:
    """``buffer_callback`` keeping every ``PickleBuffer`` out of the pickle."""


def _sections(values: List[Any], lifted: List[Any]) -> List[Any]:
    """``values`` as the pickle takes them, its large elements moved to ``lifted``.

    Elements are lifted only when nothing was lifted before this list (one
    list per message travels out of band) and while the frame has room for
    another section; any other memoryview is copied, as at the top level.
    """
    room = 0 if lifted else MAX_SECTIONS
    ready = []
    for value in values:
        kind = type(value)
        if kind is bytes or kind is memoryview:
            if room and memoryview(value).nbytes >= OUT_OF_BAND_MIN:
                room -= 1
                lifted.append(value)
                value = pickle.PickleBuffer(value)
            elif kind is memoryview:
                value = bytes(value)
        ready.append(value)
    return ready


def _encode(tag: str, body: Any) -> Tuple[bytes, Sequence[memoryview]]:
    """Pickle one message; returns ``(meta, sections)``.

    Only top-level values are looked at, in one pass that costs a small frame
    a type check per value.  The large elements of the first list that
    starts with a bytes-like are lifted out, each as a section of its own;
    pickle refuses memoryviews, so any other one is copied into the stream as
    ``bytes``.  The caller's dict and lists are never modified.
    """
    lifted: List[Any] = []
    if type(body) is dict:
        for key, value in body.items():
            kind = type(value)
            if kind is memoryview:
                body = {**body, key: bytes(value)}
            elif kind is list and value and type(value[0]) in (bytes, memoryview):
                body = {**body, key: _sections(value, lifted)}
    elif type(body) is list and body and type(body[0]) in (bytes, memoryview):
        body = _sections(body, lifted)
    meta = pickle.dumps((tag, body), protocol=5, buffer_callback=_leave_out)
    return meta, [memoryview(value).cast("B") for value in lifted] if lifted else ()


def _send_frame(sock: socket.socket, meta: bytes, sections: Sequence[memoryview]) -> None:
    count = len(sections)
    if not count:
        sock.sendall(_HEADER.pack(len(meta), 0) + meta)
        return
    # Header, table and sections leave in one syscall without being joined;
    # whatever a partial send left behind follows as views of the same buffers.
    buffers = [_HEADER.pack(len(meta), count)
               + struct.pack(f">{count}Q", *[view.nbytes for view in sections]) + meta,
               *sections]
    sent = sock.sendmsg(buffers)
    for buffer in buffers:
        if sent >= len(buffer):
            sent -= len(buffer)
        else:
            sock.sendall(memoryview(buffer)[sent:])
            sent = 0


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    """Read exactly ``count`` bytes into one ``bytes`` object.

    ``MSG_WAITALL`` makes the kernel fill the buffer in a single call on a
    blocking socket.  Short reads stay legal (sockets with a timeout, signals):
    the remainder is read the same way and joined, in that rare case only.
    """
    data = sock.recv(count, socket.MSG_WAITALL)
    if len(data) == count:
        return data
    parts = []
    while True:
        if not data:
            raise ProtocolError("connection closed mid-frame")
        parts.append(data)
        count -= len(data)
        if not count:
            return b"".join(parts)
        data = sock.recv(count, socket.MSG_WAITALL)


def _recv_into(sock: socket.socket, into: memoryview) -> None:
    """Fill ``into`` from the socket: the kernel writes where the bytes belong."""
    received = 0
    while received < into.nbytes:
        with into[received:] as rest:
            count = sock.recv_into(rest, rest.nbytes, socket.MSG_WAITALL)
        if not count:
            raise ProtocolError("connection closed mid-frame")
        received += count


def _recv_frame(sock: socket.socket,
                into: Optional[Sequence[memoryview]] = None) -> Tuple[Any, Any]:
    """Read one frame; returns the ``(tag, body)`` pair it carries.

    ``into`` is a sequence of destinations.  When the frame has exactly as
    many sections as there are destinations and every section is exactly as
    long as its destination, each is received straight into it, and when
    those sections are the body's elements the body returned is a list of
    the destinations themselves.  Any other count or length — and so every
    small or error frame — is read as if no destination had been given,
    leaving all of them untouched: a peer can write neither outside a
    destination nor short of it.

    Raises :class:`ProtocolError` for anything that is not a well-formed
    frame and ``OSError`` when the connection is gone.
    """
    header = sock.recv(_HEADER.size, socket.MSG_WAITALL)
    if not header:
        raise ConnectionResetError("connection closed between frames")
    if len(header) < _HEADER.size:
        header += _recv_exact(sock, _HEADER.size - len(header))
    meta_len, count = _HEADER.unpack(header)
    if meta_len > MAX_SECTION_BYTES or count > MAX_SECTIONS:
        raise ProtocolError(
            f"frame claims {meta_len} bytes of meta and {count} sections "
            f"(limits {MAX_SECTION_BYTES} and {MAX_SECTIONS})"
        )
    head = _recv_exact(sock, 8 * count + meta_len)
    meta = io.BytesIO(head)
    buffers = destinations = None
    if count:
        meta.seek(8 * count)
        lengths = struct.unpack_from(f">{count}Q", head)
        if sum(lengths) > MAX_SECTION_BYTES:
            raise ProtocolError(
                f"frame claims {sum(lengths)} bytes of sections (limit {MAX_SECTION_BYTES})"
            )
        if into is not None and len(into) == count and all(
                0 < length == destination.nbytes
                for length, destination in zip(lengths, into)):
            buffers = destinations = into
            for destination in destinations:
                _recv_into(sock, destination)
        else:
            buffers = [_recv_exact(sock, length) for length in lengths]
    try:
        tag, body = _FrameUnpickler(meta, buffers=buffers).load()
    except Exception as exc:  # noqa: BLE001 - pickle raises nearly anything on bad input
        raise ProtocolError(f"undecodable frame: {exc!r}") from exc
    if (destinations is not None and type(body) is list and len(body) == count
            and all(type(view) is memoryview for view in body)):
        # The buffers on offer were the destinations; a sender's read-only
        # ``bytes`` loads as a read-only view of one, which must not outlive
        # this call (a live view pins whatever the destination is a window of).
        for view, destination in zip(body, destinations):
            if view is not destination:
                view.release()
        body = list(destinations)
    return tag, body


def _portable(exc: Exception) -> Exception:
    """``exc`` if the peer's unpickler admits its class, else a stand-in naming it."""
    cls = type(exc)
    if _wire_exception(cls.__module__, cls.__qualname__) is cls:
        return exc
    return StdchkError(f"{cls.__qualname__}: {exc}")


class _RequestHandler(socketserver.BaseRequestHandler):
    """Handles one connection; each frame is one RPC."""

    def handle(self) -> None:  # pragma: no cover - exercised via integration
        # One call per frame, so that nothing of a finished request (a chunk
        # payload, a result) stays referenced while the connection idles.
        while self._serve_one():
            pass

    def _serve_one(self) -> bool:
        """Answer one frame; False once the connection is finished."""
        endpoint: Endpoint = self.server.endpoint  # type: ignore[attr-defined]
        try:
            method, payload = _recv_frame(self.request)
        except ProtocolError as exc:
            # A peer that cannot frame costs itself this connection only.
            component_logger("tcp-server", getattr(endpoint, "obs_node_id", "")).warning(
                "closing connection from %s:%s: %s", *self.client_address[:2], exc
            )
            return False
        except OSError:
            return False
        try:
            frame = _encode("ok", endpoint.dispatch(method, payload))
        except Exception as exc:  # noqa: BLE001 - errors cross the wire
            frame = _encode("error", _portable(exc))
        try:
            _send_frame(self.request, *frame)
        except OSError:
            return False  # peer (or a server stop) severed the connection
        return True


class _ThreadedTcpServer(BackgroundServer, socketserver.ThreadingTCPServer):
    allow_reuse_address = True


class TcpServer:
    """Expose a single endpoint on a TCP port (one server per endpoint)."""

    def __init__(self, endpoint: Endpoint, host: str = "127.0.0.1", port: int = 0) -> None:
        self._server = _ThreadedTcpServer((host, port), _RequestHandler)
        self._server.endpoint = endpoint  # type: ignore[attr-defined]

    @property
    def address(self) -> str:
        host, port = self._server.server_address
        return f"{host}:{port}"

    def start(self) -> "TcpServer":
        self._server.start()
        return self

    def stop(self) -> None:
        self._server.stop()


class _ConnectionPool:
    """A small pool of persistent sockets to one ``host:port`` endpoint.

    Each checked-out socket is exclusively owned by one caller for the
    duration of a request/response exchange, so no frame-level locking is
    needed and up to ``limit`` RPCs to the same endpoint proceed in parallel.
    Callers beyond the limit wait for a socket to be returned.
    """

    def __init__(self, address: str, connect_timeout: float, limit: int) -> None:
        self.address = address
        self.connect_timeout = connect_timeout
        self.limit = limit
        self._idle: list[socket.socket] = []
        self._total = 0
        self._closed = False
        self._cond = threading.Condition()

    def _connect(self) -> socket.socket:
        host, _, port = self.address.partition(":")
        try:
            sock = socket.create_connection(
                (host, int(port)), timeout=self.connect_timeout
            )
        except (OSError, ValueError) as exc:
            with self._cond:
                self._total -= 1
                self._cond.notify()
            raise EndpointUnreachableError(
                f"cannot connect to {self.address}: {exc}", endpoint=self.address
            ) from exc
        sock.settimeout(None)
        return sock

    def checkout(self) -> socket.socket:
        with self._cond:
            while True:
                if self._closed:
                    raise EndpointUnreachableError(
                        f"transport closed while contacting {self.address}",
                        endpoint=self.address,
                    )
                if self._idle:
                    return self._idle.pop()
                if self._total < self.limit:
                    self._total += 1
                    break
                self._cond.wait()
        # Connect outside the condition so waiters are not serialized behind
        # the TCP handshake; _connect undoes the reservation on failure.
        return self._connect()

    def checkin(self, sock: socket.socket) -> None:
        with self._cond:
            if self._closed:
                self._total -= 1
            else:
                self._idle.append(sock)
            self._cond.notify()
        if self._closed:
            _close_quietly(sock)

    def discard(self, sock: socket.socket) -> None:
        """Drop a socket that observed an error (never reused)."""
        _close_quietly(sock)
        with self._cond:
            self._total -= 1
            self._cond.notify()

    def raise_limit(self, limit: int) -> None:
        """Grow the pool's connection bound (never shrinks a live pool)."""
        with self._cond:
            if limit > self.limit:
                self.limit = limit
                self._cond.notify_all()

    def close(self) -> None:
        with self._cond:
            self._closed = True
            idle, self._idle = self._idle, []
            self._total -= len(idle)
            self._cond.notify_all()
        for sock in idle:
            _close_quietly(sock)


def _close_quietly(sock: socket.socket) -> None:
    try:
        sock.close()
    except OSError:  # pragma: no cover - best effort cleanup
        pass


class TcpTransport(Transport):
    """Client-side transport issuing calls to ``host:port`` addresses.

    Connections are pooled per endpoint (a few persistent sockets each,
    ``pool_size``) and reused across calls, so one transport instance shared
    by many threads sustains ``pool_size`` concurrent RPCs per endpoint with
    no socket-per-frame setup cost.
    """

    def __init__(self, connect_timeout: float = 5.0, pool_size: int = 4) -> None:
        if pool_size <= 0:
            raise ValueError("pool_size must be positive")
        self._connect_timeout = connect_timeout
        self._pool_size = pool_size
        self._pools: Dict[str, _ConnectionPool] = {}
        self._lock = threading.RLock()
        self._servers: Dict[str, TcpServer] = {}

    # -- server-side helpers ----------------------------------------------------
    def register(self, address: str, endpoint: Endpoint) -> None:
        """Serve ``endpoint``.

        ``address`` is an opaque advisory key; when it embeds ``host:port``
        (an optional ``scheme://`` prefix is ignored) the server binds there,
        otherwise it binds an ephemeral port on 127.0.0.1.  The actual bound
        address is available through :meth:`bound_address`.
        """
        target = address.split("://", 1)[-1]
        host, separator, port = target.rpartition(":")
        if not separator or not port.isdigit():
            host, port = "127.0.0.1", "0"
        server = TcpServer(endpoint, host=host or "127.0.0.1", port=int(port))
        server.start()
        with self._lock:
            self._servers[address] = server

    def bound_address(self, address: str) -> str:
        with self._lock:
            return self._servers[address].address

    def unregister(self, address: str) -> None:
        with self._lock:
            server = self._servers.pop(address, None)
        if server is not None:
            server.stop()

    def close(self) -> None:
        with self._lock:
            pools = list(self._pools.values())
            self._pools.clear()
            servers = list(self._servers.values())
            self._servers.clear()
        for pool in pools:
            pool.close()
        for server in servers:
            server.stop()

    def ensure_pool_capacity(self, limit: int) -> None:
        """Guarantee at least ``limit`` concurrent connections per endpoint.

        Parallel readers and pushers size the transport to their in-flight
        window so pooled sockets never cap the configured parallelism; pools
        already created are grown in place, future pools start at the new
        bound.
        """
        with self._lock:
            if limit <= self._pool_size:
                return
            self._pool_size = limit
            pools = list(self._pools.values())
        for pool in pools:
            pool.raise_limit(limit)

    # -- client-side calls ----------------------------------------------------------
    def _pool(self, address: str) -> _ConnectionPool:
        with self._lock:
            pool = self._pools.get(address)
            if pool is None:
                pool = _ConnectionPool(address, self._connect_timeout, self._pool_size)
                self._pools[address] = pool
            return pool

    def call(self, address: str, method: str, /, *,
             into: Optional[Sequence[memoryview]] = None, **payload: Any) -> Any:
        ctx = tracing.current_context() if runtime.ENABLED else None
        if ctx is None:
            return self._call(address, method, payload, into)
        with tracing.start_span(f"rpc:{method}", component="rpc-client",
                                attributes={"address": address}):
            tracing.inject(payload)
            return self._call(address, method, payload, into)

    def probe(self, address: str, method: str, timeout: Optional[float] = None,
              /, **payload: Any) -> Any:
        """One-shot RPC with a hard deadline on every socket operation.

        Uses a dedicated throwaway socket instead of the pool: a pooled
        socket has no read timeout (RPCs may legitimately take long), so a
        black-holed endpoint would hang a pooled call forever — and a
        timed-out pooled socket could poison a later exchange with a stale
        response frame.
        """
        if timeout is None:
            return self.call(address, method, **payload)
        host, _, port = address.partition(":")
        try:
            sock = socket.create_connection((host, int(port)), timeout=timeout)
        except (OSError, ValueError) as exc:
            raise EndpointUnreachableError(
                f"cannot connect to {address}: {exc}", endpoint=address
            ) from exc
        try:
            sock.settimeout(timeout)
            reply = _exchange(sock, address, method, payload)
        finally:
            _close_quietly(sock)
        return _unwrap(address, reply)

    def _call(self, address: str, method: str, payload: Dict[str, Any],
              into: Optional[Sequence[memoryview]]) -> Any:
        pool = self._pool(address)
        sock = pool.checkout()
        try:
            reply = _exchange(sock, address, method, payload, into)
        except BaseException:
            # A socket that saw any failure may hold half a frame: never reuse.
            pool.discard(sock)
            raise
        pool.checkin(sock)
        return _unwrap(address, reply)


def _exchange(sock: socket.socket, address: str, method: str, payload: Dict[str, Any],
              into: Optional[Sequence[memoryview]] = None) -> Tuple[Any, Any]:
    """One request/response on ``sock``; returns the reply's ``(status, result)``."""
    try:
        _send_frame(sock, *_encode(method, payload))
        return _recv_frame(sock, into)
    except (OSError, ProtocolError) as exc:
        raise EndpointUnreachableError(
            f"call to {address} failed: {exc}", endpoint=address
        ) from exc


def _unwrap(address: str, reply: Tuple[Any, Any]) -> Any:
    status, result = reply
    if status == "ok":
        return result
    if status == "error" and isinstance(result, Exception):
        raise result
    raise ProtocolError(f"malformed response from {address}: {status!r}", endpoint=address)
