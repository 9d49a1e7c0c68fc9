"""One deployment, two constructors: the same contract on both transports.

``StdchkPool`` and ``TcpDeployment`` are thin constructors over one
``Deployment``; every lifecycle and fault-injection helper has one body.  The
scenario below drives that body end to end through each constructor, and the
rest pins what the one server lifecycle promises: ``stop()`` wakes a blocked
accept loop instead of waiting out a poll period, severs what is connected,
and leaves no thread and no descriptor behind.
"""

from __future__ import annotations

import ast
import dataclasses
import gc
import json
import os
import socket
import sys
import threading
import time
import urllib.request
import warnings
from pathlib import Path

import pytest

from repro import StdchkConfig, StdchkPool, TcpDeployment
from repro.benefactor.chunk_store import MemoryChunkStore
from repro.benefactor.benefactor import Benefactor
from repro.exceptions import EndpointUnreachableError, ProtocolError
from repro.manager.manager import MetadataManager
from repro.manager.replication import StandbyManager
from repro.obs import MetricsRegistry, ObsHttpServer
from repro.pool import Deployment
from repro.transport.base import Endpoint, rpc
from repro.transport.tcp import TcpServer, TcpTransport
from tests.conftest import make_bytes

CHUNK = 16 * 1024
WAIT = 10.0  # bound of every wait in this file; none is expected to run out
CLOSE_BUDGET = 0.050

KINDS = pytest.mark.parametrize("build", [StdchkPool, TcpDeployment],
                                ids=["inprocess", "tcp"])


def config(**overrides) -> StdchkConfig:
    defaults = dict(
        chunk_size=CHUNK, stripe_width=3, replication_level=2,
        incremental_file_size=4 * CHUNK,
        failover_backoff_base=0.001, failover_backoff_max=0.01,
    )
    defaults.update(overrides)
    return StdchkConfig(**defaults)


def threads_since(before: set) -> list:
    """Threads alive now that ``before`` (a set of ``threading.enumerate()``)
    lacks: counted by identity, so a thread of an earlier test that is
    still exiting is neither counted nor waited for."""
    return [thread for thread in threading.enumerate() if thread not in before]


def open_fds() -> set:
    """``(descriptor, link target)`` of every open descriptor of this
    process: one opened since a snapshot is in the difference, whatever an
    earlier test's exiting thread closed meanwhile."""
    found = set()
    for name in os.listdir("/proc/self/fd"):
        try:
            found.add((name, os.readlink(f"/proc/self/fd/{name}")))
        except OSError:  # closed since listed, the listing's own among them
            continue
    return found


def wait_until(condition) -> bool:
    deadline = time.monotonic() + WAIT
    while not condition():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.005)
    return True


@KINDS
def test_one_scenario_through_either_constructor(build, tmp_path):
    gc.collect()
    threads, descriptors = set(threading.enumerate()), open_fds()

    deployment = build(benefactor_count=3,
                       config=config(journal_dir=str(tmp_path / "journal")))
    assert isinstance(deployment, Deployment)
    # Built before the standby exists: add_standby must reach it.
    client = deployment.client("early", push_parallelism=2, read_parallelism=2)
    assert client.directory is None
    standby = deployment.add_standby()
    assert standby.manager_id == f"{deployment.id_prefix}standby-0"
    assert client.directory is not None
    assert client.directory.covers(deployment.standby_endpoints()[standby.manager_id])

    data = make_bytes(5 * CHUNK + 17, seed=21)
    client.write_file("/contract/ckpt.N0.T1", data)

    # A manager restart with one benefactor down: the live ones re-register,
    # the dead one is skipped and registers when it comes back.
    victim = f"{deployment.id_prefix}benefactor-01"
    deployment.kill_benefactor(victim)
    report = deployment.restart_manager()
    assert report.records_replayed > 0
    restarted = deployment.manager
    assert not restarted.registry.is_online(victim)
    for bundle in deployment.maintenance.values():
        assert bundle.manager_address == deployment.manager_address
    deployment.recover_benefactor(victim)
    assert restarted.registry.is_online(victim)
    node = deployment.maintenance[victim].benefactor
    assert restarted.registry.address_of(victim) == (
        deployment.transport.bound_address(node.address))

    deployment.kill_primary()
    promoted = deployment.promote_standby()
    assert deployment.manager is promoted and promoted.role == "primary"
    assert deployment.standby_endpoints() == {}
    # The client that predates the standby follows the failover.
    assert client.read_file("/contract/ckpt.N0.T1") == data

    monitor = deployment.health_monitor()
    assert monitor.probe_once() == {
        node_id: "alive" for node_id in (
            promoted.manager_id,
            *(f"{deployment.id_prefix}benefactor-{i:02d}" for i in range(3)),
        )
    }

    endpoints = deployment.start_obs_http()
    assert set(endpoints) == set(monitor.probe_once())
    with urllib.request.urlopen(endpoints[victim] + "/health", timeout=WAIT) as response:
        assert json.load(response)["ready"] is True
    deployment.stop_obs_http()
    assert deployment.obs_endpoints() == {}

    workers = list(client._worker_pool()._threads)
    assert workers
    deployment.close()
    assert not any(worker.is_alive() for worker in workers)
    deployment.close()  # nothing left to tear down

    del monitor, client
    gc.collect()
    assert wait_until(lambda: threads_since(threads) == []), (
        f"{threads_since(threads)} outlive close()")
    assert wait_until(lambda: open_fds() <= descriptors), (
        f"{sorted(open_fds() - descriptors)} outlive close()")


@KINDS
def test_restart_manager_with_a_benefactor_down(build, tmp_path):
    """Over TCP this used to die on the dead node's missing socket, after the
    manager had been replaced and before anything was re-pointed at it."""
    deployment = build(benefactor_count=2,
                       config=config(journal_dir=str(tmp_path), replication_level=1))
    try:
        down, up = (f"{deployment.id_prefix}benefactor-{i:02d}" for i in range(2))
        deployment.kill_benefactor(down)
        deployment.restart_manager()
        assert deployment.manager.registry.is_online(up)
        assert not deployment.manager.registry.is_online(down)
        assert deployment.maintenance[up].manager_address == deployment.manager_address
        assert set(deployment.run_maintenance_once()) == {up}
    finally:
        deployment.close()


@KINDS
@pytest.mark.parametrize("primary", ["first", "restarted", "promoted"])
def test_close_closes_the_journal(build, primary, tmp_path, monkeypatch):
    """Every deployment with a journal used to leave its WAL open after
    ``close()``: ``ResourceWarning: unclosed file ... journal-*.wal``."""
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    deployment = build(benefactor_count=2, config=config(
        journal_dir=str(tmp_path / "journal"), replication_level=1))
    client = deployment.client("journaled")
    client.write_file("/journaled/f", b"one record")
    if primary == "restarted":
        deployment.restart_manager()
    elif primary == "promoted":
        deployment.add_standby()
        deployment.promote_standby(journal_dir=str(tmp_path / "promoted"))
        client.write_file("/journaled/g", b"and one more")
        assert deployment.manager.persistence is not None
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        deployment.close()
        deployment.close()  # a second close finds the journal closed
        del deployment, client
        gc.collect()
    assert [hook.exc_value for hook in unraisable] == []


@KINDS
def test_add_standby_reaches_clients_built_before_it(build):
    """Over TCP such a client used to keep ``directory is None`` and never fail over."""
    deployment = build(benefactor_count=2, config=config(replication_level=1))
    try:
        client = deployment.client("early")
        client.write_file("/early/f", b"before the standby")
        deployment.add_standby()
        deployment.kill_primary()
        deployment.promote_standby()
        assert client.read_file("/early/f") == b"before the standby"
    finally:
        deployment.close()


@KINDS
def test_close_does_not_wait_out_a_poll_period(build):
    """Best of three, so that one scheduling hiccup of the host is not a failure."""
    elapsed = []
    for _ in range(3):
        deployment = build(benefactor_count=4, config=config())
        deployment.add_standby()
        deployment.start_obs_http()
        client = deployment.client("closing", push_parallelism=2)
        client.write_file("/closing/f", make_bytes(3 * CHUNK, seed=3))
        start = time.perf_counter()
        deployment.close()
        elapsed.append(time.perf_counter() - start)
    assert min(elapsed) < CLOSE_BUDGET, elapsed


@KINDS
def test_the_deployment_holds_its_clients_weakly(build):
    deployment = build(benefactor_count=2, config=config(replication_level=1))
    try:
        kept = deployment.client("kept")
        deployment.client("dropped")
        gc.collect()
        assert [c.client_id for c in deployment._clients] == ["kept"]
        node_ids = {snap["node_id"] for snap in deployment.metrics()["nodes"]}
        assert "kept" in node_ids and "dropped" not in node_ids
        del kept
    finally:
        deployment.close()


@KINDS
def test_fail_benefactor_loses_the_disk_and_recover_brings_the_node_back(build):
    deployment = build(benefactor_count=3, config=config())
    try:
        client = deployment.client("writer")
        data = make_bytes(4 * CHUNK, seed=5)
        client.write_file("/fail/f", data)
        deployment.stabilize()
        victim = f"{deployment.id_prefix}benefactor-00"
        node = deployment.maintenance[victim].benefactor
        assert node.store.chunk_count > 0
        deployment.fail_benefactor(victim, lose_data=True)
        assert node.store.chunk_count == 0
        assert not deployment.manager.registry.is_online(victim)
        with pytest.raises(EndpointUnreachableError):
            deployment.transport.call(node.advertised_address, "health")
        assert client.read_file("/fail/f") == data
        deployment.recover_benefactor(victim)
        assert deployment.manager.registry.is_online(victim)
        assert deployment.transport.call(
            deployment.transport.bound_address(node.address), "health")["ready"]
    finally:
        deployment.close()


# -- the RPC surface: what a peer may call ------------------------------------
#: Client- and benefactor-facing calls: admitted by the manager's one guard
#: (fenced, standby, recovering, offline) and counted as transactions.
MANAGER_RPCS = {
    "register_benefactor", "heartbeat", "report_benefactor_failure",
    "gc_report", "reconcile_inventory", "report_corrupt_chunk",
    "record_replicas", "make_folder", "set_retention", "list_dir", "exists",
    "stat", "delete", "remove_folder", "create_session", "extend_stripe",
    "put_chunks_ack", "commit_session", "abort_session", "get_chunk_map",
    "get_versions", "get_existing_chunks",
}
#: Served in any state, never counted.
MANAGER_CONTROL = {"get_metrics", "health", "manager_status", "fence"}
STANDBY_CONTROL = MANAGER_CONTROL | {"replicate_records", "install_snapshot", "promote"}
BENEFACTOR_RPCS = {
    "put_chunks", "get_chunks", "has_chunk", "delete_chunks", "list_chunks",
    "checksum_inventory",
}
BENEFACTOR_CONTROL = {"get_metrics", "health"}


@pytest.mark.parametrize("cls, guarded, control", [
    (MetadataManager, MANAGER_RPCS, MANAGER_CONTROL),
    (StandbyManager, MANAGER_RPCS, STANDBY_CONTROL),
    (Benefactor, BENEFACTOR_RPCS, BENEFACTOR_CONTROL),
], ids=["manager", "standby", "benefactor"])
def test_each_endpoint_serves_exactly_its_declared_rpcs(cls, guarded, control):
    served = {name: is_guarded for name, (_handler, is_guarded) in cls._rpcs.items()}
    assert {name for name, is_guarded in served.items() if is_guarded} == guarded
    assert {name for name, is_guarded in served.items() if not is_guarded} == control


@KINDS
def test_no_peer_can_call_a_local_method(build):
    """Lifecycle, fault-injection and repair methods are local.  A peer that
    names one gets ``ProtocolError`` and nothing changes; over TCP the caller
    is a bare transport from outside the deployment."""
    deployment = build(benefactor_count=3, config=config(replication_level=1))
    outsider = (TcpTransport() if isinstance(deployment, TcpDeployment)
                else deployment.transport)
    try:
        client = deployment.client("writer")
        data = make_bytes(4 * CHUNK, seed=9)
        client.write_file("/surface/f", data)
        manager = deployment.manager
        source, target = (
            deployment.maintenance[f"{deployment.id_prefix}benefactor-{i:02d}"].benefactor
            for i in range(2))
        source_address = deployment.transport.bound_address(source.address)

        def state():
            return {
                "manager": (manager.online, manager.transactions),
                "chunk map": manager.dataset_by_path("/surface/f").latest.chunk_map.to_dict(),
                "source": (source.online, sorted(source.store.chunk_ids()), source.stats),
                "target": sorted(target.store.chunk_ids()),
            }

        before = state()
        assert before["source"][1], "the source holds chunks a wiped disk would lose"
        attempts = [
            (source_address, "crash", {"lose_data": True}),
            (source_address, "replicate_to", {
                "chunk_ids": source.store.chunk_ids(),
                "target_address": deployment.transport.bound_address(target.address)}),
            (source_address, "register_with",
             {"manager_address": deployment.manager_address}),
            (deployment.manager_address, "fail", {}),
            (deployment.manager_address, "drop_benefactor_placements",
             {"benefactor_id": source.benefactor_id}),
        ]
        for address, method, payload in attempts:
            with pytest.raises(ProtocolError):
                outsider.call(address, method, **payload)
        assert state() == before
        assert client.read_file("/surface/f") == data
    finally:
        if outsider is not deployment.transport:
            outsider.close()
        deployment.close()


class TestKillSeversWhatIsMidRpc:
    def test_a_blocked_get_chunk_fails_when_its_benefactor_is_killed(self):
        entered, gate = threading.Event(), threading.Event()

        class BlockingStore(MemoryChunkStore):
            def get(self, chunk_id):
                entered.set()
                gate.wait(WAIT)
                return super().get(chunk_id)

        with TcpDeployment(benefactor_count=1, config=config(replication_level=1),
                           store_factory=BlockingStore) as deployment:
            node = deployment.benefactors[0]
            address = deployment.transport.bound_address(node.address)
            deployment.transport.call(address, "put_chunks", chunk_ids=["ds-1:v1:c0"],
                                      data=[b"x" * 100])
            outcome = []

            def fetch() -> None:
                try:
                    outcome.append(deployment.transport.call(
                        address, "get_chunks", chunk_ids=["ds-1:v1:c0"]))
                except Exception as exc:  # noqa: BLE001 - asserted below
                    outcome.append(exc)

            caller = threading.Thread(target=fetch)
            caller.start()
            try:
                assert entered.wait(WAIT)
                deployment.kill_benefactor(node.benefactor_id)
                caller.join(WAIT)
                assert not caller.is_alive(), "the caller is still waiting for a dead node"
                assert isinstance(outcome[0], EndpointUnreachableError)
            finally:
                gate.set()
                caller.join(WAIT)


class _Echo(Endpoint):
    @rpc
    def echo(self, value):
        return value


def _rpc_server():
    server = TcpServer(_Echo()).start()
    return server, server.address


def _obs_server():
    server = ObsHttpServer(MetricsRegistry(component="test", node_id="n")).start()
    return server, server.address


@pytest.mark.parametrize("make", [_rpc_server, _obs_server], ids=["rpc", "obs-http"])
class TestOneServerLifecycle:
    def test_stop_wakes_the_accept_loop_and_severs_idle_connections(self, make):
        gc.collect()
        threads, descriptors = set(threading.enumerate()), open_fds()
        server, address = make()
        host, _, port = address.partition(":")
        with socket.create_connection((host, int(port)), timeout=WAIT) as idle:
            # One thread accepts, one serves the idle connection.
            assert wait_until(lambda: len(threads_since(threads)) == 2)
            start = time.perf_counter()
            server.stop()
            elapsed = time.perf_counter() - start
            idle.settimeout(WAIT)
            assert idle.recv(1) == b""  # severed, not left to a live handler
        assert elapsed < CLOSE_BUDGET
        with pytest.raises(OSError):
            socket.create_connection((host, int(port)), timeout=WAIT)
        server.stop()  # nothing left to stop
        assert wait_until(lambda: threads_since(threads) == [])
        assert wait_until(lambda: open_fds() <= descriptors)


def src_lines_naming(*needles: str) -> list:
    """``file:line`` of every line under ``src/`` containing one of ``needles``."""
    root = Path(__file__).resolve().parents[1] / "src"
    return [
        f"{path.relative_to(root)}:{number}"
        for path in sorted(root.rglob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if any(needle in line for needle in needles)
    ]


def test_no_server_in_src_polls_for_shutdown():
    """The accept loops block; nothing may bring a poll period back."""
    assert src_lines_naming("serve_forever", "poll_interval") == []


def test_no_second_healer_in_src():
    """The manager judges under-replication and the benefactors copy, chunk
    by chunk, each a frame of one; nothing may bring the second mechanism back.

    ``put_chunks(`` is no longer a sign of it: the healer's batch call carried
    its chunks inside the pickle and is gone with the healer; the name now
    belongs to the one data RPC, whose chunks travel as sections.
    """
    assert src_lines_naming("ReplicationService", "ShadowChunkMap") == []


def test_no_dead_knob_or_hint_in_src():
    """Benefactors learn their peers from the manager's heartbeat answer, the
    manager stripes round-robin, the in-flight windows are
    ``2 * parallelism`` and a recent window is part of its histogram: none of
    the knobs, hints, strategies, RPCs, second membership mechanisms or
    second latency instruments nothing needed may come back."""
    assert src_lines_naming("note_holders", "hint_sample", "StripingPolicy",
                            "resolve_addresses", "max_inflight_",
                            "drop_released", "reserved_on", "def reserve(",
                            "windowed_histogram", "WindowedHistogram",
                            "GossipService", "list_benefactors",
                            "merge_peer_records", "heartbeat_all") == []


def test_every_config_field_is_read_by_the_product():
    """A ``StdchkConfig`` field only ``validate()`` reads is a dead tunable.

    A read is ``x.field`` or ``getattr(x, "field", ...)``.
    """
    src = Path(__file__).resolve().parents[1] / "src" / "repro"
    read = set()
    for path in src.rglob("*.py"):
        if path == src / "util" / "config.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "getattr" and len(node.args) >= 2
                  and isinstance(node.args[1], ast.Constant)):
                read.add(node.args[1].value)
    fields = {field.name for field in dataclasses.fields(StdchkConfig)}
    assert sorted(fields - read) == []
