"""One lifecycle for every threaded socket server in the package.

The RPC endpoint server (:mod:`repro.transport.tcp`) and the telemetry HTTP
server (:mod:`repro.obs.http`) are both a ``socketserver`` class with this
mixin in front of it.  The accept thread blocks with no timeout, so an idle
node wakes nobody, and :meth:`BackgroundServer.stop` returns as soon as that
thread has been woken: it does not wait out a poll period.
"""

from __future__ import annotations

import socket
import threading
from typing import Optional


class BackgroundServer:
    """Mixin for a ``socketserver.TCPServer``: ``start()`` and an abrupt ``stop()``.

    ``stop()`` models a crash: the listener goes away *and* every established
    connection is severed.  Stopping the listener alone would leave pooled
    client sockets attached to live handler threads, so a "killed" node would
    keep answering over old connections — invisible to failure detectors.
    """

    daemon_threads = True

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._stopping = False
        self._accept_thread: Optional[threading.Thread] = None
        self._active: set = set()
        self._active_lock = threading.Lock()

    def start(self) -> None:
        host, port = self.server_address[:2]
        self._accept_thread = threading.Thread(
            target=self._accept_until_stopped, daemon=True,
            name=f"{type(self).__name__}-{host}:{port}",
        )
        self._accept_thread.start()

    def _accept_until_stopped(self) -> None:
        while not self._stopping:
            self.handle_request()

    def verify_request(self, request, client_address) -> bool:
        # Whatever is accepted once stop() has begun — its own wake-up
        # connection first of all — is closed without a handler thread.
        return not self._stopping

    def process_request(self, request, client_address) -> None:
        with self._active_lock:
            self._active.add(request)
        super().process_request(request, client_address)

    def close_request(self, request) -> None:
        with self._active_lock:
            self._active.discard(request)
        super().close_request(request)

    def stop(self) -> None:
        """Stop accepting, close the listener, sever every open connection."""
        thread, self._accept_thread = self._accept_thread, None
        if thread is None:
            return
        # The flag is set before the wake-up, so wherever the accept thread
        # is — blocked, or between its check and blocking — it sees the flag
        # after at most one more accept.
        self._stopping = True
        try:
            socket.create_connection(self.server_address[:2], timeout=5).close()
        except OSError:
            pass
        thread.join(timeout=5)
        self.server_close()
        with self._active_lock:
            active = list(self._active)
        for request in active:
            try:
                request.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
