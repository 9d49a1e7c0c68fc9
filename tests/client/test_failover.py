"""Client-side manager failover: directory, retry transport, commit replay.

Unit-level coverage of :mod:`repro.client.failover` (re-discovery choosing
the freshest serving primary, retry loop pacing, deadline budget, hint
absorption) plus pool-level coverage of the idempotence-aware write replay:
a commit whose first attempt landed but whose answer was lost is absorbed,
and a session the promoted standby never saw is replayed wholesale.
"""

from __future__ import annotations

import socket
import time

import pytest

from repro import StdchkConfig, StdchkPool
from repro.client.failover import FailoverTransport, ManagerDirectory
from repro.exceptions import (
    EndpointUnreachableError,
    ManagerUnavailableError,
    NotPrimaryError,
    UnknownDatasetError,
)
from repro.obs import MetricsRegistry
from repro.transport.base import Endpoint, control
from repro.transport.faulty import FaultyTransport
from repro.transport.inprocess import InProcessTransport
from repro.transport.tcp import TcpServer, TcpTransport
from repro.util.clock import VirtualClock
from tests.conftest import make_bytes

SMALL = dict(
    chunk_size=64 * 1024,
    stripe_width=3,
    replication_level=2,
    incremental_file_size=128 * 1024,
    failover_backoff_base=0.001,
    failover_backoff_max=0.01,
    failover_deadline=10.0,
)


def make_pool(**overrides) -> StdchkPool:
    return StdchkPool(benefactor_count=4, config=StdchkConfig(**{**SMALL, **overrides}))


def scripted(answers) -> FaultyTransport:
    """A transport answering each address from its script; an address
    without one has no endpoint, so calls to it are unreachable."""
    transport = FaultyTransport(InProcessTransport())
    for address, sequence in answers.items():
        transport.script(address, sequence)
    return transport


def primary_status(lsn=0, role="primary", online=True, recovering=False):
    return {"role": role, "online": online, "recovering": recovering,
            "last_lsn": lsn}


# ---------------------------------------------------------------- directory
class TestManagerDirectory:
    def test_needs_at_least_one_candidate(self):
        with pytest.raises(ValueError):
            ManagerDirectory([])

    def test_first_candidate_is_the_initial_active(self):
        directory = ManagerDirectory(["m0", "m1"])
        assert directory.current() == "m0"
        assert directory.covers("m1")
        assert not directory.covers("m2")

    def test_note_candidates_merges_without_duplicates(self):
        directory = ManagerDirectory(["m0"])
        directory.note_candidates(["m1", "m0", "m1", ""])
        assert directory.candidates() == ["m0", "m1"]

    def test_note_primary_adds_and_activates(self):
        directory = ManagerDirectory(["m0"])
        directory.note_primary("m9")
        assert directory.current() == "m9"
        assert directory.covers("m9")

    def test_rediscover_picks_highest_lsn_primary(self):
        transport = scripted({
            "m0": [EndpointUnreachableError("dead")],
            "m1": [primary_status(lsn=5)],
            "m2": [primary_status(lsn=9)],
        })
        directory = ManagerDirectory(["m0", "m1", "m2"])
        assert directory.rediscover(transport) is True
        assert directory.current() == "m2"

    def test_rediscover_skips_standbys_and_recovering_managers(self):
        transport = scripted({
            "m0": [primary_status(role="standby")],
            "m1": [primary_status(recovering=True)],
            "m2": [primary_status(online=False)],
        })
        directory = ManagerDirectory(["m0", "m1", "m2"])
        assert directory.rediscover(transport) is False
        assert directory.current() == "m0"  # unchanged

    def test_rediscover_prefers_higher_epoch_over_higher_lsn(self):
        # A deposed-but-unaware primary may still report the larger LSN;
        # the successor's epoch dominates the selection.
        transport = scripted({
            "m1": [dict(primary_status(lsn=50), epoch=1)],
            "m2": [dict(primary_status(lsn=10), epoch=2)],
        })
        directory = ManagerDirectory(["m1", "m2"])
        assert directory.rediscover(transport) is True
        assert directory.current() == "m2"
        assert directory.known_epoch() == 2

    def test_rediscover_skips_primaries_behind_a_known_epoch(self):
        transport = scripted({
            "m0": [dict(primary_status(lsn=50), epoch=1)],
        })
        directory = ManagerDirectory(["m0"])
        directory.note_epoch(2)  # a successor exists somewhere
        assert directory.rediscover(transport) is False
        assert directory.current() == "m0"  # unchanged, never re-selected

    def test_note_epoch_never_moves_backwards(self):
        directory = ManagerDirectory(["m0"])
        directory.note_epoch(5)
        directory.note_epoch(3)
        directory.note_epoch(None)
        assert directory.known_epoch() == 5


# ---------------------------------------------------------------- transport
class TestFailoverTransport:
    def make(self, answers, candidates=("m0", "m1"), **config_overrides):
        inner = scripted(answers)
        directory = ManagerDirectory(list(candidates))
        clock = VirtualClock()
        sleeps = []

        def sleep(seconds):
            sleeps.append(seconds)
            clock.advance(seconds)

        clock.sleep = sleep
        transport = FailoverTransport(
            inner, directory,
            config=StdchkConfig(**{**SMALL, **config_overrides}), clock=clock,
        )
        return transport, inner, directory, clock, sleeps

    def test_non_candidate_addresses_pass_through(self):
        transport, inner, _, _, _ = self.make({"b0": ["chunk"]})
        calls = inner.record()
        assert transport.call("b0", "get_chunks") == "chunk"
        assert calls == [("b0", "get_chunks", 0, {})]

    def test_a_sequence_of_destinations_passes_through_untouched(self):
        """``into``, a sequence of views, is forwarded with the payload."""
        transport, inner, _, _, _ = self.make({"b0": [["c0", "c1"]], "m0": [{"ok": True}]})
        calls = inner.record()
        windows = [memoryview(bytearray(8)), memoryview(bytearray(4))]
        assert transport.call("b0", "get_chunks", into=windows,
                              chunk_ids=["c0", "c1"]) == ["c0", "c1"]
        assert calls[-1] == ("b0", "get_chunks", 2, {"chunk_ids": ["c0", "c1"]})
        # ... and through the retry loop of a manager address as well.
        assert transport.call("m0", "echo", into=windows) == {"ok": True}
        assert calls[-1] == ("m0", "echo", 2, {})

    def test_retries_until_rediscovery_finds_new_primary(self):
        # m0 dies; the probe finds m1 serving; the retried call succeeds.
        # Scripted: m1 answers the probe, then the real call.
        transport, _inner, directory, _, _ = self.make({
            "m0": [EndpointUnreachableError("dead")],
            "m1": [primary_status(lsn=3), "ok"],
        })
        assert transport.call("m0", "get_chunk_map") == "ok"
        assert directory.current() == "m1"

    def test_non_retryable_errors_propagate_immediately(self):
        transport, inner, _, _, sleeps = self.make({
            "m0": [UnknownDatasetError("no such file")],
        })
        with pytest.raises(UnknownDatasetError):
            transport.call("m0", "get_chunk_map")
        assert not sleeps

    def test_deadline_exhaustion_reraises_the_manager_error(self):
        transport, _, _, _, sleeps = self.make(
            {"m0": [ManagerUnavailableError("down")],
             "m1": [ManagerUnavailableError("down")]},
            failover_deadline=0.05,
        )
        with pytest.raises(ManagerUnavailableError):
            transport.call("m0", "create_session")
        assert sleeps  # it backed off while probing, then gave up

    def test_backoff_doubles_and_is_capped(self):
        transport, _, _, _, sleeps = self.make(
            {"m0": [ManagerUnavailableError("down")],
             "m1": [ManagerUnavailableError("down")]},
            failover_backoff_base=0.01, failover_backoff_max=0.04,
            failover_jitter=0.0, failover_deadline=0.2,
        )
        with pytest.raises(ManagerUnavailableError):
            transport.call("m0", "create_session")
        # 0.01, 0.02, 0.04, 0.04, ... doubling then flat at the cap.
        assert sleeps[:3] == [0.01, 0.02, 0.04]
        assert all(delay == 0.04 for delay in sleeps[2:-1])

    def test_jitter_stretches_delays_within_the_configured_fraction(self):
        transport, _, _, _, sleeps = self.make(
            {"m0": [ManagerUnavailableError("down")],
             "m1": [ManagerUnavailableError("down")]},
            failover_backoff_base=0.01, failover_backoff_max=0.01,
            failover_jitter=0.5, failover_deadline=0.1,
        )
        with pytest.raises(ManagerUnavailableError):
            transport.call("m0", "create_session")
        assert all(0.01 <= delay < 0.015 for delay in sleeps[:-1])

    def test_not_primary_hint_is_absorbed_into_the_directory(self):
        hint = NotPrimaryError("standby here", primary_address="m7")
        transport, inner, directory, _, _ = self.make({
            "m0": [hint],
            "m7": [primary_status(lsn=1), "ok"],
        }, candidates=("m0",))
        assert transport.call("m0", "get_chunk_map") == "ok"
        assert directory.covers("m7")
        assert directory.current() == "m7"

    def test_epoch_hint_from_manager_errors_is_absorbed(self):
        # A fenced manager's NotPrimaryError carries the successor epoch;
        # the retry loop feeds it into the directory so re-discovery never
        # falls back onto a stale primary.
        hint = NotPrimaryError("fenced", primary_address="m7", epoch=3)
        transport, _inner, directory, _, _ = self.make({
            "m0": [hint],
            "m7": [dict(primary_status(lsn=1), epoch=3), "ok"],
        }, candidates=("m0",))
        assert transport.call("m0", "get_chunk_map") == "ok"
        assert directory.known_epoch() == 3
        assert directory.current() == "m7"

    def test_retry_metrics_are_recorded(self):
        registry = MetricsRegistry(component="client", node_id="c0")
        inner = scripted({
            "m0": [ManagerUnavailableError("down")],
            "m1": [primary_status(lsn=1), "ok"],
        })
        transport = FailoverTransport(
            inner, ManagerDirectory(["m0", "m1"]),
            config=StdchkConfig(**SMALL), obs=registry, clock=VirtualClock(),
        )
        assert transport.call("m0", "get_chunk_map") == "ok"
        retries = registry.counter(
            "client_failover_retries_total", "", labelnames=("method",)
        )
        assert retries.labels(method="get_chunk_map").value == 1
        stall = registry.histogram("client_failover_stall_seconds", "", window=True)
        assert stall.count == 1


# ------------------------------------------------------------ probe timeout
class _StatusEndpoint(Endpoint):
    """Minimal TCP endpoint answering ``manager_status`` with a fixed dict."""

    def __init__(self, status):
        self._status = status

    @control
    def manager_status(self):
        return self._status


class TestProbeTimeout:
    """Re-discovery against black-holed endpoints (regression).

    A black-holed endpoint accepts connections but never answers; the pooled
    TCP call path has no read timeout (RPCs may legitimately take long), so
    before ``Transport.probe`` a single such candidate hung the entire
    failover scan forever.
    """

    def black_hole(self):
        hole = socket.socket()
        hole.bind(("127.0.0.1", 0))
        hole.listen(1)
        host, port = hole.getsockname()
        return hole, f"{host}:{port}"

    def test_tcp_probe_times_out_instead_of_hanging(self):
        hole, address = self.black_hole()
        transport = TcpTransport()
        try:
            started = time.monotonic()
            with pytest.raises(EndpointUnreachableError):
                transport.probe(address, "manager_status", 0.2)
            assert time.monotonic() - started < 2.0
        finally:
            transport.close()
            hole.close()

    def test_rediscover_skips_black_holed_candidate_within_budget(self):
        hole, hole_address = self.black_hole()
        server = TcpServer(_StatusEndpoint(
            dict(primary_status(lsn=4), epoch=2))).start()
        transport = TcpTransport()
        try:
            directory = ManagerDirectory([hole_address, server.address])
            started = time.monotonic()
            assert directory.rediscover(transport, probe_timeout=0.2) is True
            assert time.monotonic() - started < 2.0
            assert directory.current() == server.address
            assert directory.known_epoch() == 2
        finally:
            transport.close()
            server.stop()
            hole.close()

    def test_probe_without_timeout_uses_the_pooled_call_path(self):
        server = TcpServer(_StatusEndpoint(primary_status(lsn=1))).start()
        transport = TcpTransport()
        try:
            status = transport.probe(server.address, "manager_status", None)
            assert status["last_lsn"] == 1
        finally:
            transport.close()
            server.stop()


# ------------------------------------------------------------------- wiring
class TestClientWiring:
    def test_client_without_standbys_keeps_the_bare_transport(self):
        pool = make_pool()
        client = pool.client("c0")
        assert client.directory is None
        assert client.transport is pool.transport

    def test_client_with_standby_gets_the_failover_layer(self):
        pool = make_pool()
        standby = pool.add_standby("standby-0")
        client = pool.client("c0")
        assert isinstance(client.transport, FailoverTransport)
        assert client.directory.covers(standby.address)
        assert client.directory.current() == pool.manager.address

    def test_existing_clients_learn_late_standbys(self):
        pool = make_pool()
        client = pool.client("c0")
        standby = pool.add_standby("standby-0")
        assert client.directory is not None
        assert client.directory.covers(standby.address)

    def test_enable_failover_is_idempotent(self):
        pool = make_pool()
        pool.add_standby("standby-0")
        client = pool.client("c0")
        transport = client.transport
        client.enable_failover(["extra-standby"])
        assert client.transport is transport  # no double wrap
        assert client.directory.covers("extra-standby")

    def test_config_standby_endpoints_enable_failover(self):
        from repro.client.proxy import ClientProxy

        pool = make_pool()
        standby = pool.add_standby("standby-0")
        client = ClientProxy(
            client_id="cfg-client",
            transport=pool.transport,
            manager_address=pool.manager.address,
            config=pool.config.with_overrides(
                standby_endpoints=(standby.address,)
            ),
        )
        assert isinstance(client.transport, FailoverTransport)
        assert client.directory.covers(standby.address)

    def test_client_rides_out_a_slow_promotion(self):
        # The primary dies; the standby is promoted only at the third probe
        # re-discovery sends it — the client's read backs off inside the
        # retry loop, on the pool's virtual clock, and completes against the
        # promoted standby.
        pool = make_pool()
        standby = pool.add_standby("standby-0")
        client = pool.client("c0")
        data = make_bytes(200 * 1024, seed=21)
        client.write_file("/app/ckpt.N0.T1", data)

        pool.kill_primary()
        for _ in range(2):
            pool.transport.before(standby.address, "manager_status",
                                  lambda *_: None)
        pool.transport.before(standby.address, "manager_status",
                              lambda *_: pool.promote_standby())
        waited_from = pool.clock.now()
        assert client.read_file("/app/ckpt.N0.T1") == data
        assert pool.manager is standby
        assert pool.clock.now() - waited_from >= 2 * SMALL["failover_backoff_base"]
        retries = client.obs.counter(
            "client_failover_retries_total", "", labelnames=("method",)
        )
        assert retries.labels(method="get_chunk_map").value >= 1

    def test_without_a_successor_the_deadline_passes_in_virtual_time(self):
        """No standby to promote: the client gives up after
        ``failover_deadline`` seconds of the pool's clock, not of the wall."""
        pool = make_pool(failover_deadline=30.0)
        pool.add_standby("standby-0")
        client = pool.client("c0")
        client.write_file("/app/ckpt.N0.T1", make_bytes(1024, seed=25))
        pool.kill_primary()
        pool.transport.partition(pool.transport.bound_address("standby-0"))
        started, waited_from = time.monotonic(), pool.clock.now()
        with pytest.raises(EndpointUnreachableError):
            client.read_file("/app/ckpt.N0.T1")
        assert pool.clock.now() - waited_from >= 30.0
        assert time.monotonic() - started < 5.0


# ------------------------------------------------------------- commit replay
class TestCommitReplay:
    def test_lost_commit_answer_is_absorbed_as_success(self):
        # The commit *lands* on the primary (and ships to the standby), but
        # the answer is lost because the primary dies on the way back.  The
        # retried commit against the promoted standby answers "already
        # committed" — absorbed and reported as success.
        pool = make_pool()
        pool.add_standby("standby-0")
        client = pool.client("c0")
        data = make_bytes(150 * 1024, seed=22)
        primary = pool.manager
        pool.transport.lose_answer(pool.manager_address, "commit_session",
                                   then=pool.promote_standby)
        client.write_file("/app/ckpt.N0.T1", data)
        assert pool.manager is not primary
        assert client.read_file("/app/ckpt.N0.T1") == data
        assert len(pool.manager.dataset_by_path("/app/ckpt.N0.T1").versions) == 1

    def test_unshipped_session_is_replayed_on_the_standby(self):
        # With a large ship batch the session's records are still buffered
        # when the primary dies: the promoted standby has never seen the
        # session, so the client re-opens and re-commits it wholesale.
        pool = make_pool(ship_batch_records=256)
        pool.add_standby("standby-0")
        client = pool.client("c0")
        data = make_bytes(200 * 1024, seed=23)
        primary = pool.manager
        # The primary dies as the commit reaches it: the call finds no endpoint.
        pool.transport.before(pool.manager_address, "commit_session",
                              lambda *_: pool.promote_standby())
        client.write_file("/app/ckpt.N0.T1", data)
        assert pool.manager is not primary
        assert client.read_file("/app/ckpt.N0.T1") == data

    def test_a_replayed_session_keeps_its_replication_level_and_stripe_width(self):
        """The replay re-opens the session as it was opened, not with the
        configured defaults (2 replicas over a 3-wide stripe here)."""
        pool = make_pool(ship_batch_records=256)
        pool.add_standby("standby-0")
        client = pool.client("c0")
        data = make_bytes(200 * 1024, seed=24)
        primary = pool.manager
        # The primary dies as the commit reaches it: the call finds no endpoint.
        pool.transport.before(pool.manager_address, "commit_session",
                              lambda *_: pool.promote_standby())
        session = client.open_write("/app/ckpt.N0.T2", replication_level=3,
                                    stripe_width=2)
        session.write(data)
        session.close()
        assert pool.manager is not primary
        assert len(session.session_info["stripe"]) == 2
        dataset_id = pool.manager.dataset_by_path("/app/ckpt.N0.T2").dataset_id
        assert pool.manager.replication_target_for(dataset_id) == 3
        assert client.read_file("/app/ckpt.N0.T2") == data
