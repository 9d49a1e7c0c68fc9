"""Fixtures shared by the client tests."""

from __future__ import annotations

import pytest

from repro.transport.inprocess import InProcessTransport
from repro.transport.tcp import TcpTransport

DATA_RPCS = ("put_chunks", "get_chunks")


@pytest.fixture
def data_rpcs(monkeypatch):
    """``(method, chunks carried)`` of every data RPC sent over either transport."""
    calls = []

    def spy_on(cls):
        original = cls.call

        def spying(transport, address, method, /, **payload):
            if method in DATA_RPCS:
                calls.append((method, len(payload["chunk_ids"])))
            return original(transport, address, method, **payload)

        monkeypatch.setattr(cls, "call", spying)

    spy_on(InProcessTransport)
    spy_on(TcpTransport)
    return calls
