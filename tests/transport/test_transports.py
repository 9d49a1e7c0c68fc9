"""Tests for the in-process and TCP transports."""

import threading

import pytest

from repro.exceptions import EndpointUnreachableError, ProtocolError
from repro.obs import MetricsRegistry
from repro.transport.base import Endpoint, control, rpc
from repro.transport.inprocess import InProcessTransport
from repro.transport.tcp import TcpTransport


class EchoEndpoint(Endpoint):
    """Simple endpoint used to exercise the transports."""

    def __init__(self):
        self.calls = 0

    @rpc
    def echo(self, value):
        self.calls += 1
        return value

    @rpc
    def add(self, a, b):
        return a + b

    @rpc
    def boom(self):
        raise ValueError("intentional failure")

    def local(self):  # pragma: no cover - must never be reachable
        return "undeclared"

    def _private(self):  # pragma: no cover - must never be reachable
        return "secret"


class TestEndpointDispatch:
    def test_dispatch_calls_method(self):
        endpoint = EchoEndpoint()
        assert endpoint.dispatch("add", {"a": 2, "b": 3}) == 5

    def test_dispatch_rejects_private_methods(self):
        with pytest.raises(ProtocolError):
            EchoEndpoint().dispatch("_private", {})

    def test_dispatch_rejects_unknown_methods(self):
        with pytest.raises(ProtocolError):
            EchoEndpoint().dispatch("nope", {})

    def test_dispatch_rejects_undeclared_public_methods(self):
        with pytest.raises(ProtocolError):
            EchoEndpoint().dispatch("local", {})

    def test_served_rpcs_are_the_declared_ones(self):
        assert set(EchoEndpoint._rpcs) == {"echo", "add", "boom"}

    def test_guard_admits_direct_and_dispatched_calls_alike(self):
        class Guarded(EchoEndpoint):
            open = False

            def _admit(self):
                if not self.open:
                    raise PermissionError("closed")

            @control
            def ping(self):
                return "pong"

        endpoint = Guarded()
        for call in (lambda: endpoint.echo(value=1),
                     lambda: endpoint.dispatch("echo", {"value": 1})):
            with pytest.raises(PermissionError):
                call()
        assert endpoint.calls == 0
        assert endpoint.dispatch("ping", {}) == "pong"  # control: never guarded
        endpoint.open = True
        assert endpoint.echo(value=1) == 1
        assert endpoint.dispatch("echo", {"value": 2}) == 2
        assert set(Guarded._rpcs) == {"echo", "add", "boom", "ping"}

    def test_an_override_must_declare_the_rpc_it_replaces(self):
        with pytest.raises(TypeError, match="echo"):
            class Undeclared(EchoEndpoint):
                def echo(self, value):
                    return value

    def test_latency_series_follow_a_swapped_registry(self):
        """The per-method series are resolved once, per registry."""

        def handled(registry):
            metrics = registry.snapshot()["metrics"]
            return {
                name: {entry["labels"]["method"]: entry["count"]
                       for entry in metrics[name]["series"]}
                for name in ("rpc_handled_seconds", "rpc_handled_seconds_window")
            }

        endpoint = EchoEndpoint()
        first = endpoint.obs = MetricsRegistry(component="test", node_id="n0")
        for _ in range(2):
            endpoint.dispatch("echo", {"value": 1})
        endpoint.dispatch("add", {"a": 1, "b": 2})
        second = endpoint.obs = MetricsRegistry(component="test", node_id="n0")
        for _ in range(3):
            endpoint.dispatch("echo", {"value": 1})
        with pytest.raises(ValueError):
            endpoint.dispatch("boom", {})
        assert handled(first) == {
            "rpc_handled_seconds": {"echo": 2, "add": 1},
            "rpc_handled_seconds_window": {"echo": 2, "add": 1},
        }
        assert handled(second) == {
            "rpc_handled_seconds": {"echo": 3, "boom": 1},
            "rpc_handled_seconds_window": {"echo": 3, "boom": 1},
        }


    def test_one_metric_lock_per_dispatched_rpc(self):
        """An RPC's latency is one observation into one series: one lock
        acquisition feeds both the lifetime histogram and its window."""

        class CountingLock:
            def __init__(self):
                self._inner = threading.Lock()
                self.acquired = 0

            def __enter__(self):
                self.acquired += 1
                self._inner.acquire()

            def __exit__(self, *_exc):
                self._inner.release()
                return False

        endpoint = EchoEndpoint()
        registry = endpoint.obs = MetricsRegistry(component="test", node_id="n0")
        endpoint.dispatch("echo", {"value": 1})  # resolves the method's series
        owners = [registry, *registry.families()]
        owners += [series for family in registry.families() for series in family.series()]
        locks = []
        for owner in owners:
            if hasattr(owner, "_lock"):
                owner._lock = CountingLock()
                locks.append(owner._lock)
        endpoint.dispatch("echo", {"value": 1})
        assert sum(lock.acquired for lock in locks) == 1


class TestInProcessTransport:
    def test_register_and_call(self):
        transport = InProcessTransport()
        endpoint = EchoEndpoint()
        transport.register("node://a", endpoint)
        assert transport.call("node://a", "echo", value=41) == 41
        assert endpoint.calls == 1

    def test_proxy_sugar(self):
        transport = InProcessTransport()
        transport.register("node://a", EchoEndpoint())
        proxy = transport.proxy("node://a")
        assert proxy.add(a=1, b=2) == 3

    def test_unknown_address_unreachable(self):
        with pytest.raises(EndpointUnreachableError):
            InProcessTransport().call("node://missing", "echo", value=1)

    def test_unregister(self):
        transport = InProcessTransport()
        transport.register("node://a", EchoEndpoint())
        transport.unregister("node://a")
        with pytest.raises(EndpointUnreachableError):
            transport.call("node://a", "echo", value=1)

    def test_remote_exceptions_propagate(self):
        transport = InProcessTransport()
        transport.register("node://a", EchoEndpoint())
        with pytest.raises(ValueError):
            transport.call("node://a", "boom")


class TestTcpTransport:
    def test_round_trip_over_sockets(self):
        transport = TcpTransport()
        try:
            transport.register("127.0.0.1:0", EchoEndpoint())
            address = transport.bound_address("127.0.0.1:0")
            assert transport.call(address, "echo", value={"nested": [1, 2, 3]}) == {
                "nested": [1, 2, 3]
            }
            assert transport.call(address, "add", a=10, b=5) == 15
        finally:
            transport.close()

    def test_remote_exception_propagates(self):
        transport = TcpTransport()
        try:
            transport.register("127.0.0.1:0", EchoEndpoint())
            address = transport.bound_address("127.0.0.1:0")
            with pytest.raises(ValueError):
                transport.call(address, "boom")
        finally:
            transport.close()

    def test_bytes_payload(self):
        transport = TcpTransport()
        try:
            transport.register("127.0.0.1:0", EchoEndpoint())
            address = transport.bound_address("127.0.0.1:0")
            payload = bytes(range(256)) * 100
            assert transport.call(address, "echo", value=payload) == payload
        finally:
            transport.close()

    def test_unreachable_endpoint(self):
        transport = TcpTransport(connect_timeout=0.2)
        with pytest.raises(EndpointUnreachableError):
            transport.call("127.0.0.1:1", "echo", value=1)

    def test_connections_are_reused_across_calls(self):
        transport = TcpTransport(pool_size=2)
        try:
            transport.register("127.0.0.1:0", EchoEndpoint())
            address = transport.bound_address("127.0.0.1:0")
            for value in range(20):
                assert transport.call(address, "echo", value=value) == value
            pool = transport._pool(address)
            # Sequential calls ride a single persistent socket.
            assert pool._total == 1
        finally:
            transport.close()

    def test_concurrent_calls_share_the_pool(self):
        import threading

        class SlowEndpoint(Endpoint):
            @rpc
            def nap(self, seconds):
                import time

                time.sleep(seconds)
                return seconds

        transport = TcpTransport(pool_size=4)
        try:
            transport.register("127.0.0.1:0", SlowEndpoint())
            address = transport.bound_address("127.0.0.1:0")
            results = []

            def caller():
                results.append(transport.call(address, "nap", seconds=0.05))

            import time

            threads = [threading.Thread(target=caller) for _ in range(8)]
            start = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            elapsed = time.perf_counter() - start
            assert results == [0.05] * 8
            pool = transport._pool(address)
            assert 1 <= pool._total <= 4
            # 8 x 50 ms serialized would take >= 400 ms; 4-wide pooling
            # pipelines them into two waves (plus generous slack for CI).
            assert elapsed < 0.35
        finally:
            transport.close()

    def test_error_frames_do_not_poison_the_connection(self):
        transport = TcpTransport(pool_size=1)
        try:
            transport.register("127.0.0.1:0", EchoEndpoint())
            address = transport.bound_address("127.0.0.1:0")
            with pytest.raises(ValueError):
                transport.call(address, "boom")
            # The socket that carried the application error is still usable.
            assert transport.call(address, "echo", value=7) == 7
            assert transport._pool(address)._total == 1
        finally:
            transport.close()
