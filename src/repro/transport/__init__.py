"""Transports connecting clients, the manager and benefactor nodes.

Two interchangeable implementations are provided:

* :class:`~repro.transport.inprocess.InProcessTransport` — direct method
  dispatch inside one Python process.  This is what tests, examples and the
  functional benchmarks use; it exercises the full protocol (every call goes
  through ``call(address, method, payload)``) without socket overhead.
* :class:`~repro.transport.tcp.TcpTransport` /
  :class:`~repro.transport.tcp.TcpServer` — localhost TCP with
  length-prefixed frames, demonstrating that the same components operate
  across real sockets.

:class:`~repro.transport.faulty.FaultyTransport` wraps either one with
deterministic fault rules (partitions, dropped calls, lost answers, scripted
answers) and an opt-in call log; a ``StdchkPool`` runs on one around an
in-process transport.
"""

from repro.transport.base import Endpoint, Transport, RemoteProxy
from repro.transport.faulty import FaultyTransport
from repro.transport.inprocess import InProcessTransport
from repro.transport.tcp import TcpServer, TcpTransport

__all__ = [
    "Endpoint",
    "Transport",
    "RemoteProxy",
    "FaultyTransport",
    "InProcessTransport",
    "TcpServer",
    "TcpTransport",
]
