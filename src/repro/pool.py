"""Deployment helper: wire a complete stdchk cluster in one call.

The paper describes one architecture — a metadata manager, benefactor nodes
and client proxies that know each other only by address — and this module
wires it exactly once.  :class:`Deployment` bundles a transport, the manager,
the benefactors with their maintenance stacks (which execute the repairs
the manager judges necessary), the manager-side background services (garbage
collection, retention pruning), hot standbys,
the per-node telemetry servers and the clients it handed out; every lifecycle
and fault-injection helper (kill, recover, restart, promote) has one body
that works over any :class:`~repro.transport.base.Transport`, because every
address a peer dials goes through ``transport.bound_address``.

:class:`StdchkPool` (in-process transport wrapped in a
:class:`~repro.transport.faulty.FaultyTransport`, virtual clock) and
:class:`TcpDeployment` (localhost sockets, wall clock) only choose the
transport, the default clock, the id prefix and the historical shape of
``.benefactors``.  Tests, examples and benchmarks all build their clusters
through one of the two names.
"""

from __future__ import annotations

import time
import weakref
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.benefactor.benefactor import Benefactor
from repro.benefactor.chunk_store import DiskChunkStore, MemoryChunkStore
from repro.benefactor.maintenance import AntiEntropyReport, BenefactorMaintenance
from repro.client.proxy import ClientProxy
from repro.exceptions import ConfigurationError, StdchkError
from repro.fs.filesystem import StdchkFilesystem
from repro.manager.garbage_collector import GarbageCollector
from repro.manager.manager import MetadataManager
from repro.manager.persistence import RecoveryReport
from repro.manager.pruner import RetentionPruner
from repro.manager.replication import LogShipper, StandbyManager
from repro.obs import (
    ClusterHealthMonitor,
    ObsHttpServer,
    http_health_probe,
    merge_snapshots,
    rpc_health_probe,
)
from repro.transport.base import Transport
from repro.transport.faulty import FaultyTransport
from repro.transport.inprocess import InProcessTransport
from repro.transport.tcp import TcpTransport
from repro.util.clock import Clock, SystemClock, VirtualClock
from repro.util.config import StdchkConfig
from repro.util.units import GiB


@dataclass
class PoolStats:
    """Snapshot of a pool's aggregate state."""

    benefactors: int
    benefactors_online: int
    datasets: int
    versions: int
    unique_chunks: int
    logical_bytes: int
    stored_bytes: int
    free_space: int
    manager_transactions: int


class Deployment:
    """A fully-wired stdchk cluster over one transport.

    ``store_factory`` is an optional ``capacity -> ChunkStore`` builder;
    benchmarks use it to model device latency on otherwise hermetic in-memory
    stores.  Without it ``storage_root`` selects disk-backed stores, and
    without either every benefactor keeps its chunks in memory.
    """

    #: Prefix of every id the deployment makes up itself (benefactors, the
    #: default standby and client), so logs tell the two flavours apart.
    id_prefix = ""

    def __init__(
        self,
        transport: Transport,
        clock: Clock,
        benefactor_count: int = 4,
        benefactor_capacity: int = 10 * GiB,
        config: Optional[StdchkConfig] = None,
        storage_root: Optional[str] = None,
        store_factory=None,
    ) -> None:
        self.config = config if config is not None else StdchkConfig()
        self.clock = clock
        self.transport = transport
        self._storage_root = storage_root
        self._store_factory = store_factory
        self._benefactor_capacity = benefactor_capacity
        self._benefactors: Dict[str, Benefactor] = {}
        #: Per-benefactor maintenance stacks (heartbeat + anti-entropy),
        #: keyed by benefactor id.
        self.maintenance: Dict[str, BenefactorMaintenance] = {}
        #: Hot standby managers receiving the primary's journal stream,
        #: keyed by manager id (see :meth:`add_standby`).
        self.standbys: Dict[str, StandbyManager] = {}
        #: Per-node telemetry HTTP servers, keyed by node id; empty until
        #: :meth:`start_obs_http` opts the deployment into the live plane.
        self._obs_servers: Dict[str, ObsHttpServer] = {}
        self._obs_http_host: Optional[str] = None
        #: Clients handed out and still alive, so that late standbys, a
        #: promotion and :meth:`close` reach them; weak, a dropped client
        #: releases its own workers.
        self._clients: "weakref.WeakSet[ClientProxy]" = weakref.WeakSet()

        manager = MetadataManager(self.transport, config=self.config, clock=self.clock)
        self.garbage_collector = GarbageCollector(manager, self.transport)
        self.pruner = RetentionPruner(manager)
        self._adopt_manager(manager)
        for index in range(benefactor_count):
            self.add_benefactor(f"{self.id_prefix}benefactor-{index:02d}")

    # -- membership ------------------------------------------------------------
    def add_benefactor(self, benefactor_id: str,
                       capacity: Optional[int] = None) -> Benefactor:
        """Add (and register) one benefactor."""
        capacity = capacity if capacity is not None else self._benefactor_capacity
        if self._store_factory is not None:
            store = self._store_factory(capacity)
        elif self._storage_root is not None:
            store = DiskChunkStore(
                root=f"{self._storage_root}/{benefactor_id}", capacity=capacity
            )
        else:
            store = MemoryChunkStore(capacity)
        benefactor = Benefactor(benefactor_id, self.transport, store=store, clock=self.clock)
        self._benefactors[benefactor_id] = benefactor
        self._register(benefactor)
        self.maintenance[benefactor_id] = BenefactorMaintenance(
            benefactor,
            manager_address=self.manager_address,
            # Deterministic per-node seed so pool tests are reproducible.
            seed=zlib.crc32(benefactor_id.encode("utf-8")),
        )
        self._start_obs_server(benefactor_id, benefactor)
        return benefactor

    def _register(self, benefactor: Benefactor) -> None:
        """(Re-)register a live node at the current primary.

        Re-registration re-advertises the surviving chunk inventory, so the
        manager re-attaches placements and schedules orphans for GC, and it
        refreshes soft-state liveness without waiting a heartbeat interval.
        """
        benefactor.register_with(
            self.manager_address,
            advertised_address=self.transport.bound_address(benefactor.address),
        )

    def _take_down(self, node_id: str, address: str) -> None:
        """Tear a node's endpoints down: RPCs are refused, telemetry is gone."""
        self.transport.unregister(address)
        self._stop_obs_server(node_id)

    def kill_benefactor(self, benefactor_id: str) -> None:
        """Crash one benefactor abruptly while traffic may be in flight.

        The node stops serving (established connections are severed, fresh
        ones refused); the stored chunks survive in the store object,
        matching an owner-reclaimed desktop rather than a disk loss.
        """
        benefactor = self._benefactors[benefactor_id]
        benefactor.go_offline()
        self._take_down(benefactor_id, benefactor.address)

    def fail_benefactor(self, benefactor_id: str, lose_data: bool = False) -> None:
        """Like :meth:`kill_benefactor`, optionally losing the disk, and the
        manager is told at once instead of finding out by heartbeat silence."""
        self.kill_benefactor(benefactor_id)
        self._benefactors[benefactor_id].crash(lose_data=lose_data)
        self.manager.report_benefactor_failure(benefactor_id)

    def recover_benefactor(self, benefactor_id: str) -> None:
        """Bring a killed benefactor back and re-register it.

        Over TCP the node binds a *fresh* port (desktop machines rarely come
        back on the same ephemeral socket); registering at the manager
        absorbs any repair hints waiting for it, and its peers learn the new
        address from their next heartbeat answer.
        """
        benefactor = self._benefactors[benefactor_id]
        benefactor.go_online()
        self.transport.register(benefactor.address, benefactor)
        self._register(benefactor)
        self._start_obs_server(benefactor_id, benefactor)

    # -- manager durability and failover -------------------------------------
    def _adopt_manager(self, manager: MetadataManager) -> None:
        """Point everything the deployment owns at ``manager``, the primary."""
        self.manager = manager
        #: Where peers dial the primary (its bound socket over TCP).
        self.manager_address = self.transport.bound_address(manager.address)
        self.garbage_collector.manager = manager
        self.pruner.manager = manager
        for bundle in self.maintenance.values():
            bundle.manager_address = self.manager_address
        self._start_obs_server(manager.manager_id, manager)
        for benefactor in self._benefactors.values():
            if benefactor.online:
                self._register(benefactor)

    def kill_primary(self) -> MetadataManager:
        """Crash the primary abruptly (no clean handover, endpoint torn down).

        In-flight and subsequent RPCs observe ``EndpointUnreachableError``
        until a standby is promoted or the manager restarted; the journal
        directory and the standbys keep whatever reached them.
        """
        old = self.manager
        old.online = False
        old.close_persistence()
        self._take_down(old.manager_id, old.address)
        return old

    kill_manager = kill_primary

    def restart_manager(self) -> "RecoveryReport":
        """Bring up a replacement manager recovered from the journal.

        Kills the primary first if it still serves.  The replacement restores
        itself from ``config.journal_dir`` (snapshot + replay) — over TCP on
        a fresh port, so ``manager_address`` changes — the services and
        maintenance stacks are re-pointed at it, and every online benefactor
        re-registers (soft-state reconciliation); one that is down registers
        when it is recovered.  Clients without a failover directory keep
        dialling the address they were built with: over TCP build new ones
        after the restart, as a restarted desktop-grid node would re-resolve
        its manager.
        """
        if self.config.journal_dir is None:
            raise ConfigurationError("restart_manager requires config.journal_dir")
        if self.manager.online:
            self.kill_primary()
        manager = MetadataManager(self.transport, config=self.config, clock=self.clock)
        report = manager.recover_from_journal()
        self._adopt_manager(manager)
        return report

    def add_standby(self, standby_id: Optional[str] = None) -> StandbyManager:
        """Attach a hot standby manager fed by the primary's journal stream.

        Lazily wires a :class:`LogShipper` onto the primary (works with or
        without a journal directory), bootstraps the standby with a full
        snapshot, and teaches every existing client the new failover
        candidate.  Clients created afterwards learn it automatically.
        """
        if standby_id is None:
            standby_id = f"{self.id_prefix}standby-0"
        standby = StandbyManager(
            transport=self.transport, config=self.config, clock=self.clock,
            manager_id=standby_id,
        )
        address = self.transport.bound_address(standby.address)
        shipper = self.manager.shipper
        if shipper is None:
            shipper = LogShipper(self.manager, transport=self.transport)
            self.manager.attach_shipper(shipper)
        shipper.add_standby(address)
        self.standbys[standby_id] = standby
        self._start_obs_server(standby_id, standby)
        for client in self._clients:
            client.enable_failover([address])
        return standby

    def standby_endpoints(self) -> Dict[str, str]:
        """``standby_id -> address peers dial`` of every enrolled hot standby."""
        return {standby_id: self.transport.bound_address(standby.address)
                for standby_id, standby in self.standbys.items()}

    def promote_standby(self, standby_id: Optional[str] = None,
                        journal_dir: Optional[str] = None) -> StandbyManager:
        """Promote a standby to primary and re-point the deployment at it.

        Kills the old primary first if it is still serving, flips the
        standby's role at its last applied LSN, re-points the background
        services and maintenance stacks, re-registers online benefactors,
        and tells every failover-enabled client where the new primary lives
        (one it misses re-discovers it).  Records
        ``manager_failover_seconds`` on the promoted manager's registry.
        """
        start = time.perf_counter()
        if standby_id is None:
            standby_id = next(iter(self.standbys))
        standby = self.standbys.pop(standby_id)
        old = self.manager
        if old.online:
            self.kill_primary()
        standby.promote(journal_dir=journal_dir)
        self._adopt_manager(standby)
        # Fence the deposed primary under the successor epoch (direct object
        # call — its endpoint is already torn down).  Best effort: a truly
        # dead primary cannot split-brain anyway, and a zombie that resumes
        # shipping gets fenced by the standbys' epoch checks instead.
        try:
            old.fence(standby.epoch, self.manager_address)
        except StdchkError:
            pass
        for client in self._clients:
            if client.directory is not None:
                client.directory.note_primary(self.manager_address)
                client.directory.note_epoch(standby.epoch)
        standby.obs.histogram(
            "manager_failover_seconds",
            "Wall-clock time of one standby promotion (deployment-side view).",
        ).observe(time.perf_counter() - start)
        return standby

    # -- clients -----------------------------------------------------------------
    def client(self, client_id: Optional[str] = None,
               config: Optional[StdchkConfig] = None,
               spool_dir: Optional[str] = None,
               **overrides) -> ClientProxy:
        """Create a client proxy attached to this deployment.

        ``overrides`` replace fields of the client's config without building
        a whole one — typically the parallel data-path knobs:
        ``push_parallelism`` / ``read_parallelism`` (they size the client's
        one worker pool; a session keeps ``2 * push_parallelism`` frames in
        flight, and a read is fetched by the caller and ``read_parallelism -
        1`` pool tasks) and ``ack_batch_size`` (placement-ack batching toward
        the manager).  ``None`` keeps the config's value.
        """
        effective = config if config is not None else self.config
        overrides = {k: v for k, v in overrides.items() if v is not None}
        if overrides:
            effective = effective.with_overrides(**overrides)
        # Concurrent pushes or fetches against one benefactor must not be
        # capped by pooled sockets: grow to twice the larger knob.
        self.transport.ensure_pool_capacity(
            2 * max(effective.push_parallelism, effective.read_parallelism)
        )
        proxy = ClientProxy(
            client_id=(client_id if client_id is not None
                       else f"{self.id_prefix}client-0"),
            transport=self.transport,
            manager_address=self.manager_address,
            config=effective,
            clock=self.clock,
            spool_dir=spool_dir,
            standby_addresses=list(self.standby_endpoints().values()),
        )
        self._clients.add(proxy)
        return proxy

    def filesystem(self, client_id: str = "fs-client",
                   config: Optional[StdchkConfig] = None) -> StdchkFilesystem:
        """Create the POSIX-like facade ("mount /stdchk") for this deployment."""
        proxy = self.client(client_id=client_id, config=config)
        return StdchkFilesystem(client=proxy, config=proxy.config)

    # -- maintenance ------------------------------------------------------------------
    def run_services_once(self) -> None:
        """One tick of every background service (deterministic maintenance)."""
        self.manager.expire_benefactors()
        self.pruner.run_once()
        self.run_maintenance_once()
        self.garbage_collector.collect_expired_reservations()
        self.garbage_collector.run_once()

    def stabilize(self, rounds: int = 3) -> None:
        """Run several service rounds (repair + pruning + GC convergence)."""
        for _ in range(rounds):
            self.run_services_once()

    def run_maintenance_once(self) -> Dict[str, "AntiEntropyReport"]:
        """One maintenance round on every online benefactor: the one healer.

        Each node heartbeats (with its inventory digest, reconciling when
        asked — the manager's answer lists the online peers and names the
        under-replicated chunks this node must copy) and runs one anti-entropy
        pass that makes those copies.  :meth:`run_services_once` runs this
        too, beside pruning and garbage collection.
        """
        reports: Dict[str, AntiEntropyReport] = {}
        for benefactor_id, bundle in self.maintenance.items():
            if self._benefactors[benefactor_id].online:
                reports[benefactor_id] = bundle.run_once()
        return reports

    def heal(self, rounds: int = 3) -> None:
        """Run several maintenance rounds (repair only: no pruning, no GC)."""
        for _ in range(rounds):
            self.run_maintenance_once()

    # -- reporting ----------------------------------------------------------------------
    def stats(self) -> PoolStats:
        summary = self.manager.storage_summary()
        return PoolStats(
            benefactors=len(self._benefactors),
            benefactors_online=sum(1 for b in self._benefactors.values() if b.online),
            datasets=summary["datasets"],
            versions=summary["versions"],
            unique_chunks=summary["unique_chunks"],
            logical_bytes=summary["logical_bytes"],
            stored_bytes=self.stored_bytes(),
            free_space=summary["free_space"],
            manager_transactions=summary["transactions"],
        )

    def stored_bytes(self) -> int:
        """Physical bytes held across every benefactor (replicas included)."""
        return sum(b.used_space for b in self._benefactors.values())

    def _nodes(self):
        """``(node_id, kind, node, address peers dial)`` of every node, primary first.

        A benefactor's address is where it last registered from: right while
        it lives, and a dead socket — so a failing call — once it was killed.
        """
        yield self.manager.manager_id, "manager", self.manager, self.manager_address
        for standby_id, standby in self.standbys.items():
            yield standby_id, "manager", standby, self.transport.bound_address(standby.address)
        for benefactor_id, benefactor in self._benefactors.items():
            yield benefactor_id, "benefactor", benefactor, benefactor.advertised_address

    def metrics(self) -> Dict[str, object]:
        """Every node's metrics snapshot plus a cluster-wide aggregate.

        Read straight from the objects: ``nodes`` holds one registry snapshot
        per manager, benefactor and live client (each tagged with
        ``component``/``node_id``); ``aggregate`` merges them by metric name
        and label set.
        """
        nodes = [node.obs.snapshot() for _, _, node, _ in self._nodes()]
        nodes.extend(client.obs.snapshot() for client in self._clients)
        return {"nodes": nodes, "aggregate": merge_snapshots(nodes)}

    def scrape(self) -> Dict[str, object]:
        """Collect metrics from every reachable node over the transport.

        Uses the ``get_metrics`` RPC — the same path an external scraper
        would take — so the result reflects exactly what each node exports.
        Unreachable nodes are skipped rather than failing the scrape.
        """
        nodes: List[Dict[str, object]] = []
        for _, _, _, address in self._nodes():
            try:
                nodes.append(self.transport.call(address, "get_metrics"))
            except StdchkError:
                continue
        return {"nodes": nodes, "aggregate": merge_snapshots(nodes)}

    # -- live observability plane -------------------------------------------
    def start_obs_http(self, host: str = "127.0.0.1") -> Dict[str, str]:
        """Serve every live node's telemetry over HTTP (ephemeral local ports).

        Idempotent; nodes added later (``add_benefactor``, ``add_standby``)
        get their own server automatically, and the kill/recover/promote
        helpers keep the server set in step with the node set.  Returns
        :meth:`obs_endpoints`.
        """
        self._obs_http_host = host
        for node_id, _, node, _ in self._nodes():
            if node.online:
                self._start_obs_server(node_id, node)
        return self.obs_endpoints()

    def _start_obs_server(self, node_id: str, node) -> None:
        if self._obs_http_host is None or node_id in self._obs_servers:
            return
        server = ObsHttpServer(node.obs, health_provider=node.health, host=self._obs_http_host)
        server.start()
        self._obs_servers[node_id] = server

    def _stop_obs_server(self, node_id: str) -> None:
        server = self._obs_servers.pop(node_id, None)
        if server is not None:
            server.stop()

    def obs_endpoints(self) -> Dict[str, str]:
        """``node_id -> base URL`` of every live telemetry endpoint."""
        return {node_id: server.url
                for node_id, server in self._obs_servers.items()}

    def stop_obs_http(self) -> None:
        for node_id in list(self._obs_servers):
            self._stop_obs_server(node_id)
        self._obs_http_host = None

    def health_monitor(self, registry=None,
                       on_transition=None) -> ClusterHealthMonitor:
        """A failure detector over every node, knobs from the config.

        Probes ``/health`` over HTTP when :meth:`start_obs_http` ran, the
        ``health`` RPC otherwise; either way a killed node's probe raises
        and the suspicion machine takes over.  The caller drives it
        (``probe_once`` or ``start``) and owns its lifecycle.
        """
        monitor = ClusterHealthMonitor(
            clock=self.clock,
            probe_interval=self.config.health_probe_interval,
            suspect_after=self.config.health_suspect_after,
            dead_after=self.config.health_dead_after,
            on_transition=on_transition,
            registry=registry,
        )
        endpoints = self.obs_endpoints()
        for node_id, kind, _, address in self._nodes():
            if node_id in endpoints:
                probe = http_health_probe(endpoints[node_id])
            else:
                probe = rpc_health_probe(self.transport, address)
            monitor.add_node(node_id, probe, kind=kind)
        return monitor

    def close(self) -> None:
        """Tear down everything the deployment started; a second call finds nothing."""
        self.stop_obs_http()
        for client in list(self._clients):
            client.close()
        # The primary's journal, and a promoted standby's if one is primary;
        # a deposed primary's was closed when it was killed.
        self.manager.close_persistence()
        self.transport.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class StdchkPool(Deployment):
    """A deployment inside one process: direct dispatch, virtual time by default."""

    def __init__(
        self,
        benefactor_count: int = 4,
        benefactor_capacity: int = 10 * GiB,
        config: Optional[StdchkConfig] = None,
        transport: Optional[Transport] = None,
        clock: Optional[Clock] = None,
        storage_root: Optional[str] = None,
        store_factory=None,
    ) -> None:
        super().__init__(
            transport if transport is not None else FaultyTransport(InProcessTransport()),
            clock if clock is not None else VirtualClock(),
            benefactor_count, benefactor_capacity, config, storage_root, store_factory,
        )

    @property
    def benefactors(self) -> Dict[str, Benefactor]:
        """``benefactor_id -> Benefactor``."""
        return self._benefactors


class TcpDeployment(Deployment):
    """A deployment over real localhost sockets, on the wall clock.

    Every component binds an ephemeral port and peers contact each other at
    the *bound* ``host:port`` (``manager_address`` for the primary).
    """

    id_prefix = "tcp-"

    def __init__(
        self,
        benefactor_count: int = 4,
        benefactor_capacity: int = 1 * GiB,
        config: Optional[StdchkConfig] = None,
        store_factory=None,
    ) -> None:
        config = config if config is not None else StdchkConfig()
        super().__init__(
            TcpTransport(pool_size=config.transport_pool_size), SystemClock(),
            benefactor_count, benefactor_capacity, config, store_factory=store_factory,
        )

    @property
    def benefactors(self) -> List[Benefactor]:
        """The benefactors in creation order."""
        return list(self._benefactors.values())
