"""Deployment helper: wire a complete stdchk pool in one call.

A *pool* bundles the transport, the metadata manager, a set of benefactor
nodes and the three background services (replication, garbage collection,
retention pruning).  Tests, examples and the functional benchmarks all build
their deployments through this class so the wiring logic lives in exactly one
place.
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
from repro.manager.replication_service import ReplicationService
from repro.obs import (
    ClusterHealthMonitor,
    ObsHttpServer,
    http_health_probe,
    merge_snapshots,
    rpc_health_probe,
)
from repro.transport.base import Transport
from repro.transport.inprocess import InProcessTransport
from repro.transport.tcp import TcpTransport
from repro.util.clock import Clock, VirtualClock
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


class StdchkPool:
    """A fully-wired stdchk deployment inside one process."""

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
        self.config = config if config is not None else StdchkConfig()
        self.clock = clock if clock is not None else VirtualClock()
        self.transport = transport if transport is not None else InProcessTransport()
        self.manager = MetadataManager(
            transport=self.transport, config=self.config, clock=self.clock
        )
        self.benefactors: Dict[str, Benefactor] = {}
        #: Per-benefactor maintenance stacks (heartbeat + gossip +
        #: anti-entropy), keyed like :attr:`benefactors`.
        self.maintenance: Dict[str, BenefactorMaintenance] = {}
        self._storage_root = storage_root
        #: Optional ``capacity -> ChunkStore`` builder; benchmarks use it to
        #: model device latency on otherwise hermetic in-memory stores.
        self._store_factory = store_factory
        self._benefactor_capacity = benefactor_capacity
        #: Per-node telemetry HTTP servers, keyed by node id; empty until
        #: :meth:`start_obs_http` opts the pool into the live plane.
        self._obs_servers: Dict[str, ObsHttpServer] = {}
        self._obs_http_host: Optional[str] = None
        for index in range(benefactor_count):
            self.add_benefactor(f"benefactor-{index:02d}", capacity=benefactor_capacity)

        self.replication_service = ReplicationService(
            manager=self.manager, transport=self.transport
        )
        self.garbage_collector = GarbageCollector(
            manager=self.manager, transport=self.transport
        )
        self.pruner = RetentionPruner(manager=self.manager)
        self._clients: List[ClientProxy] = []
        #: Hot standby managers receiving the primary's journal stream,
        #: keyed by manager id (see :meth:`add_standby`).
        self.standbys: Dict[str, StandbyManager] = {}

    # -- membership ------------------------------------------------------------
    def add_benefactor(self, benefactor_id: str,
                       capacity: Optional[int] = None) -> Benefactor:
        """Add (and register) one benefactor to the pool."""
        capacity = capacity if capacity is not None else self._benefactor_capacity
        if self._store_factory is not None:
            store = self._store_factory(capacity)
        elif self._storage_root is not None:
            store = DiskChunkStore(
                root=f"{self._storage_root}/{benefactor_id}", capacity=capacity
            )
        else:
            store = MemoryChunkStore(capacity)
        benefactor = Benefactor(
            benefactor_id=benefactor_id,
            transport=self.transport,
            store=store,
            clock=self.clock,
        )
        self.benefactors[benefactor_id] = benefactor
        benefactor.register_with(self.manager.address)
        self.maintenance[benefactor_id] = BenefactorMaintenance(
            benefactor,
            manager_address=self.manager.address,
            replication_target=self.config.replication_level,
            gossip_fanout=self.config.gossip_fanout,
            gossip_hint_sample=self.config.gossip_hint_sample,
            max_repairs=self.config.anti_entropy_max_repairs,
            # Deterministic per-node seed so pool tests are reproducible.
            seed=zlib.crc32(benefactor_id.encode("utf-8")),
        )
        self._start_obs_server(benefactor_id, benefactor)
        return benefactor

    def heartbeat_all(self) -> None:
        """Deliver one heartbeat from every online benefactor."""
        for benefactor in self.benefactors.values():
            if not benefactor.online:
                continue
            self.manager.heartbeat(
                benefactor_id=benefactor.benefactor_id,
                free_space=benefactor.free_space,
                used_space=benefactor.used_space,
                chunk_count=benefactor.store.chunk_count,
            )

    def fail_benefactor(self, benefactor_id: str, lose_data: bool = False) -> None:
        """Take one benefactor offline (crash or owner reclaim)."""
        benefactor = self.benefactors[benefactor_id]
        benefactor.crash(lose_data=lose_data)
        self.transport_disconnect(benefactor.address)
        self._stop_obs_server(benefactor_id)
        self.manager.report_benefactor_failure(benefactor_id)

    def recover_benefactor(self, benefactor_id: str) -> None:
        benefactor = self.benefactors[benefactor_id]
        benefactor.go_online()
        self.transport_reconnect(benefactor.address)
        # Re-registration re-advertises the surviving chunk inventory so the
        # manager re-attaches placements and schedules orphans for GC.
        benefactor.register_with(self.manager.address)
        self._start_obs_server(benefactor_id, benefactor)

    # -- manager durability ------------------------------------------------------
    def restart_manager(self) -> "RecoveryReport":
        """Kill the manager and bring up a recovered replacement.

        Simulates a manager crash: the old instance stops serving, a new one
        restores itself from the journal directory (snapshot + replay), the
        background services are re-pointed at it, and every online benefactor
        re-registers and re-advertises its chunk inventory (soft-state
        reconciliation).  Requires ``config.journal_dir``.
        """
        if self.config.journal_dir is None:
            raise ConfigurationError(
                "restart_manager requires config.journal_dir"
            )
        old = self.manager
        old.online = False
        old.close_persistence()
        self.transport.unregister(old.address)
        self._stop_obs_server(old.manager_id)
        manager = MetadataManager(
            transport=self.transport, config=self.config, clock=self.clock
        )
        report = manager.recover_from_journal()
        self.manager = manager
        self._start_obs_server(manager.manager_id, manager)
        self.replication_service.manager = manager
        self.garbage_collector.manager = manager
        self.pruner.manager = manager
        for benefactor in self.benefactors.values():
            if benefactor.online:
                benefactor.register_with(manager.address)
        return report

    # -- manager replication / failover --------------------------------------
    def add_standby(self, standby_id: str = "standby-0") -> StandbyManager:
        """Attach a hot standby manager fed by the primary's journal stream.

        Lazily wires a :class:`LogShipper` onto the primary (works with or
        without a journal directory), bootstraps the standby with a full
        snapshot, and teaches every existing client the new failover
        candidate.  Clients created afterwards learn it automatically.
        """
        standby = StandbyManager(
            transport=self.transport, config=self.config, clock=self.clock,
            manager_id=standby_id,
        )
        shipper = self.manager.shipper
        if shipper is None:
            shipper = LogShipper(self.manager, transport=self.transport)
            self.manager.attach_shipper(shipper)
        shipper.add_standby(standby.address)
        self.standbys[standby_id] = standby
        self._start_obs_server(standby_id, standby)
        for client in self._clients:
            client.enable_failover([standby.address])
        return standby

    def standby_endpoints(self) -> Dict[str, str]:
        """``standby_id -> address`` of every enrolled hot standby."""
        return {sid: s.address for sid, s in self.standbys.items()}

    def kill_primary(self) -> MetadataManager:
        """Crash the primary abruptly (no clean handover, endpoint torn down).

        Clients observe ``EndpointUnreachableError`` until a standby is
        promoted; the standbys keep whatever the shipper delivered.
        """
        old = self.manager
        old.online = False
        old.close_persistence()
        self.transport.unregister(old.address)
        self._stop_obs_server(old.manager_id)
        return old

    def promote_standby(self, standby_id: Optional[str] = None,
                        journal_dir: Optional[str] = None) -> StandbyManager:
        """Promote a standby to primary and re-point the pool at it.

        Kills the old primary first if it is still serving, flips the
        standby's role at its last applied LSN, re-points the background
        services and maintenance stacks, re-registers online benefactors
        (refreshing soft-state liveness immediately instead of waiting a
        heartbeat interval), and tells every failover-enabled client where
        the new primary lives.  Records ``manager_failover_seconds`` on the
        promoted manager's registry.
        """
        start = time.perf_counter()
        if standby_id is None:
            standby_id = next(iter(self.standbys))
        standby = self.standbys.pop(standby_id)
        old = self.manager
        if old.online:
            self.kill_primary()
        standby.promote(journal_dir=journal_dir)
        # Fence the deposed primary under the successor epoch (direct object
        # call — its endpoint is already torn down).  Best effort: a truly
        # dead primary cannot split-brain anyway, and a zombie that resumes
        # shipping gets fenced by the standbys' epoch checks instead.
        try:
            old.fence(standby.epoch, standby.address)
        except StdchkError:
            pass
        self.manager = standby
        self.replication_service.manager = standby
        self.garbage_collector.manager = standby
        self.pruner.manager = standby
        for bundle in self.maintenance.values():
            bundle.manager_address = standby.address
        for benefactor in self.benefactors.values():
            if benefactor.online:
                benefactor.register_with(standby.address)
        for client in self._clients:
            if client.directory is not None:
                client.directory.note_primary(standby.address)
                client.directory.note_epoch(standby.epoch)
        standby.obs.histogram(
            "manager_failover_seconds",
            "Wall-clock time of one standby promotion (pool-side view).",
        ).observe(time.perf_counter() - start)
        return standby

    def transport_disconnect(self, address: str) -> None:
        if isinstance(self.transport, InProcessTransport):
            self.transport.disconnect(address)

    def transport_reconnect(self, address: str) -> None:
        if isinstance(self.transport, InProcessTransport):
            self.transport.reconnect(address)

    # -- clients -----------------------------------------------------------------
    def client(self, client_id: str = "client-0",
               config: Optional[StdchkConfig] = None,
               spool_dir: Optional[str] = None,
               push_parallelism: Optional[int] = None,
               max_inflight_chunks: Optional[int] = None,
               ack_batch_size: Optional[int] = None,
               read_parallelism: Optional[int] = None,
               max_inflight_reads: Optional[int] = None) -> ClientProxy:
        """Create a client proxy attached to this pool.

        The parallel data-path knobs can be overridden per client without
        building a whole config: ``push_parallelism`` / ``read_parallelism``
        (they size the client's one worker pool), ``max_inflight_chunks`` /
        ``max_inflight_reads`` (in-flight window bounds) and
        ``ack_batch_size`` (placement-ack batching toward the manager).
        """
        effective = config if config is not None else self.config
        overrides = {}
        if push_parallelism is not None:
            overrides["push_parallelism"] = push_parallelism
        if max_inflight_chunks is not None:
            overrides["max_inflight_chunks"] = max_inflight_chunks
        if ack_batch_size is not None:
            overrides["ack_batch_size"] = ack_batch_size
        if read_parallelism is not None:
            overrides["read_parallelism"] = read_parallelism
        if max_inflight_reads is not None:
            overrides["max_inflight_reads"] = max_inflight_reads
        if overrides:
            effective = effective.with_overrides(**overrides)
        proxy = ClientProxy(
            client_id=client_id,
            transport=self.transport,
            manager_address=self.manager.address,
            config=effective,
            clock=self.clock,
            spool_dir=spool_dir,
            standby_addresses=[s.address for s in self.standbys.values()],
        )
        self._clients.append(proxy)
        return proxy

    def filesystem(self, client_id: str = "fs-client",
                   config: Optional[StdchkConfig] = None) -> StdchkFilesystem:
        """Create the POSIX-like facade ("mount /stdchk") for this pool."""
        proxy = self.client(client_id=client_id, config=config)
        return StdchkFilesystem(client=proxy, config=proxy.config)

    # -- maintenance ------------------------------------------------------------------
    def run_services_once(self) -> None:
        """One tick of every background service (deterministic maintenance)."""
        self.manager.expire_benefactors()
        self.pruner.run_once()
        self.replication_service.run_once()
        self.garbage_collector.collect_expired_reservations()
        self.garbage_collector.run_once()

    def stabilize(self, rounds: int = 3) -> None:
        """Run several maintenance rounds (replication + GC convergence)."""
        for _ in range(rounds):
            self.run_services_once()

    def run_maintenance_once(self) -> Dict[str, "AntiEntropyReport"]:
        """One decentralized maintenance round on every online benefactor.

        Each node heartbeats (with its inventory digest, reconciling when
        asked), gossips with random peers and runs one anti-entropy pass.
        This is the benefactor-driven counterpart of
        :meth:`run_services_once` and needs no manager-side replication
        scan to heal replica loss.
        """
        reports: Dict[str, AntiEntropyReport] = {}
        for benefactor_id, bundle in self.maintenance.items():
            if self.benefactors[benefactor_id].online:
                reports[benefactor_id] = bundle.run_once()
        return reports

    def heal(self, rounds: int = 3) -> None:
        """Run several decentralized maintenance rounds (anti-entropy only)."""
        for _ in range(rounds):
            self.run_maintenance_once()

    # -- reporting ----------------------------------------------------------------------
    def stats(self) -> PoolStats:
        summary = self.manager.storage_summary()
        stored = sum(b.used_space for b in self.benefactors.values())
        return PoolStats(
            benefactors=len(self.benefactors),
            benefactors_online=sum(1 for b in self.benefactors.values() if b.online),
            datasets=summary["datasets"],
            versions=summary["versions"],
            unique_chunks=summary["unique_chunks"],
            logical_bytes=summary["logical_bytes"],
            stored_bytes=stored,
            free_space=summary["free_space"],
            manager_transactions=summary["transactions"],
        )

    def stored_bytes(self) -> int:
        """Physical bytes held across every benefactor (replicas included)."""
        return sum(b.used_space for b in self.benefactors.values())

    def metrics(self) -> Dict[str, object]:
        """Every node's metrics snapshot plus a pool-wide aggregate.

        ``nodes`` holds one registry snapshot per manager, benefactor and
        client (each tagged with ``component``/``node_id``); ``aggregate``
        merges them by metric name and label set.
        """
        nodes = [self.manager.obs.snapshot()]
        nodes.extend(s.obs.snapshot() for s in self.standbys.values())
        nodes.extend(b.obs.snapshot() for b in self.benefactors.values())
        nodes.extend(c.obs.snapshot() for c in self._clients)
        return {"nodes": nodes, "aggregate": merge_snapshots(nodes)}

    # -- live observability plane -------------------------------------------
    def start_obs_http(self, host: str = "127.0.0.1") -> Dict[str, str]:
        """Serve every node's telemetry over HTTP (ephemeral local ports).

        Idempotent; nodes added later (``add_benefactor``, ``add_standby``)
        get their own server automatically, and the kill/recover helpers
        tear servers down and bring them back with the node.  Returns
        :meth:`obs_endpoints`.
        """
        self._obs_http_host = host
        self._start_obs_server(self.manager.manager_id, self.manager)
        for standby_id, standby in self.standbys.items():
            self._start_obs_server(standby_id, standby)
        for benefactor_id, benefactor in self.benefactors.items():
            self._start_obs_server(benefactor_id, benefactor)
        return self.obs_endpoints()

    def _start_obs_server(self, node_id: str, node) -> None:
        if self._obs_http_host is None or node_id in self._obs_servers:
            return
        server = ObsHttpServer(
            node.obs, health_provider=node.health, host=self._obs_http_host
        )
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

    def health_monitor(self, registry=None, on_transition=None,
                       event_log=None) -> ClusterHealthMonitor:
        """A failure detector over every node, knobs from the pool config.

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
            event_log=event_log,
            registry=registry,
        )
        endpoints = self.obs_endpoints()

        def enroll(node_id: str, kind: str, address: str) -> None:
            if node_id in endpoints:
                probe = http_health_probe(endpoints[node_id])
            else:
                probe = rpc_health_probe(self.transport, address)
            monitor.add_node(node_id, probe, kind=kind)

        enroll(self.manager.manager_id, "manager", self.manager.address)
        for standby_id, standby in self.standbys.items():
            enroll(standby_id, "manager", standby.address)
        for benefactor_id, benefactor in self.benefactors.items():
            enroll(benefactor_id, "benefactor", benefactor.address)
        return monitor

    def close(self) -> None:
        """Tear down everything the pool started: obs servers, client workers."""
        self.stop_obs_http()
        for client in self._clients:
            client.close()

    def __enter__(self) -> "StdchkPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class TcpDeployment:
    """A manager plus benefactors wired over a real localhost TCP transport.

    The in-process :class:`StdchkPool` registers components under advisory
    addresses; over TCP every component binds an ephemeral port and peers
    must contact each other at the *bound* ``host:port``.  This helper does
    that wiring (manager first, then benefactors registered at their bound
    sockets) so TCP tests and benchmarks share one code path.

    ``store_factory`` builds each benefactor's chunk store (defaults to a
    memory store); benchmarks use it to inject stores with simulated device
    latency.
    """

    def __init__(
        self,
        benefactor_count: int = 4,
        benefactor_capacity: int = 1 * GiB,
        config: Optional[StdchkConfig] = None,
        store_factory=None,
        pool_size: Optional[int] = None,
    ) -> None:
        self.config = config if config is not None else StdchkConfig()
        self.transport = TcpTransport(
            pool_size=pool_size if pool_size is not None else self.config.transport_pool_size
        )
        self.manager = MetadataManager(transport=self.transport, config=self.config)
        self.manager_address = self.transport.bound_address(self.manager.address)
        self.benefactors: List[Benefactor] = []
        self.maintenance: Dict[str, BenefactorMaintenance] = {}
        #: Hot standby managers and their bound TCP addresses.
        self.standbys: Dict[str, StandbyManager] = {}
        self.standby_addresses: Dict[str, str] = {}
        #: Per-node telemetry HTTP servers (see :meth:`start_obs_http`).
        self._obs_servers: Dict[str, ObsHttpServer] = {}
        self._obs_http_host: Optional[str] = None
        #: Clients handed out and still alive, so :meth:`close` can release
        #: their worker threads; weak, a dropped client releases its own.
        self._clients: "weakref.WeakSet[ClientProxy]" = weakref.WeakSet()
        for index in range(benefactor_count):
            store = (
                store_factory(benefactor_capacity)
                if store_factory is not None
                else MemoryChunkStore(benefactor_capacity)
            )
            benefactor = Benefactor(
                benefactor_id=f"tcp-benefactor-{index:02d}",
                transport=self.transport,
                store=store,
            )
            bound = self.transport.bound_address(benefactor.address)
            benefactor.register_with(self.manager_address, advertised_address=bound)
            self.benefactors.append(benefactor)
            self.maintenance[benefactor.benefactor_id] = BenefactorMaintenance(
                benefactor,
                manager_address=self.manager_address,
                replication_target=self.config.replication_level,
                gossip_fanout=self.config.gossip_fanout,
                gossip_hint_sample=self.config.gossip_hint_sample,
                max_repairs=self.config.anti_entropy_max_repairs,
                seed=zlib.crc32(benefactor.benefactor_id.encode("utf-8")),
            )

    def kill_manager(self) -> None:
        """Tear down the manager endpoint abruptly (simulated crash).

        In-flight and subsequent client RPCs observe connection failures; the
        journal directory keeps whatever reached it.
        """
        self.manager.online = False
        self.manager.close_persistence()
        self.transport.unregister(self.manager.address)
        self._stop_obs_server(self.manager.manager_id)

    # -- manager replication / failover --------------------------------------
    def add_standby(self, standby_id: str = "tcp-standby-0") -> StandbyManager:
        """Attach a hot standby manager on its own TCP endpoint.

        The standby binds an ephemeral port; the primary's log shipper
        (created lazily) bootstraps it with a snapshot over the wire and
        streams every subsequent journal record.  Clients built via
        :meth:`client` afterwards fail over to it automatically.
        """
        standby = StandbyManager(
            transport=self.transport, config=self.config, manager_id=standby_id
        )
        bound = self.transport.bound_address(standby.address)
        shipper = self.manager.shipper
        if shipper is None:
            shipper = LogShipper(self.manager, transport=self.transport)
            self.manager.attach_shipper(shipper)
        shipper.add_standby(bound)
        self.standbys[standby_id] = standby
        self.standby_addresses[standby_id] = bound
        self._start_obs_server(standby_id, standby)
        return standby

    def standby_endpoints(self) -> Dict[str, str]:
        """``standby_id -> bound address`` of every enrolled hot standby."""
        return dict(self.standby_addresses)

    def kill_primary(self) -> None:
        """Alias of :meth:`kill_manager` (failover vocabulary)."""
        self.kill_manager()

    def promote_standby(self, standby_id: Optional[str] = None,
                        journal_dir: Optional[str] = None) -> StandbyManager:
        """Promote a standby and re-point the deployment at its bound port.

        Kills the old primary first if it still serves, flips the standby's
        role at its last applied LSN, updates ``manager_address``, re-points
        the maintenance stacks and re-registers online benefactors at the
        new primary (refreshing soft-state liveness immediately).  Clients
        built with standbys re-discover the promoted address on their own.
        """
        start = time.perf_counter()
        if standby_id is None:
            standby_id = next(iter(self.standbys))
        standby = self.standbys.pop(standby_id)
        bound = self.standby_addresses.pop(standby_id)
        old = self.manager
        if old.online:
            self.kill_manager()
        standby.promote(journal_dir=journal_dir)
        # Fence the deposed primary object directly (its socket is gone);
        # best effort — see StdchkPool.promote_standby.
        try:
            old.fence(standby.epoch, bound)
        except StdchkError:
            pass
        self.manager = standby
        self.manager_address = bound
        for bundle in self.maintenance.values():
            bundle.manager_address = bound
        for benefactor in self.benefactors:
            if benefactor.online:
                benefactor.register_with(
                    bound,
                    advertised_address=self.transport.bound_address(
                        benefactor.address
                    ),
                )
        standby.obs.histogram(
            "manager_failover_seconds",
            "Wall-clock time of one standby promotion (deployment-side view).",
        ).observe(time.perf_counter() - start)
        return standby

    def restart_manager(self) -> "RecoveryReport":
        """Bring up a recovered manager after :meth:`kill_manager`.

        The replacement binds a fresh port (``manager_address`` is updated),
        restores itself from the journal, and every benefactor re-registers
        at the new address, re-advertising its chunk inventory.  Clients
        created before the crash keep dialling the dead address — build new
        ones via :meth:`client` after the restart, exactly as a restarted
        desktop-grid node would re-resolve its manager.
        """
        if self.config.journal_dir is None:
            raise ConfigurationError(
                "restart_manager requires config.journal_dir"
            )
        if self.manager.online:
            self.kill_manager()
        self.manager = MetadataManager(transport=self.transport, config=self.config)
        self.manager_address = self.transport.bound_address(self.manager.address)
        self._start_obs_server(self.manager.manager_id, self.manager)
        report = self.manager.recover_from_journal()
        for benefactor in self.benefactors:
            bound = self.transport.bound_address(benefactor.address)
            benefactor.register_with(self.manager_address, advertised_address=bound)
        # The replacement bound a fresh port: re-point the maintenance stacks.
        for bundle in self.maintenance.values():
            bundle.manager_address = self.manager_address
        return report

    def run_maintenance_once(self) -> Dict[str, AntiEntropyReport]:
        """One decentralized maintenance round on every online benefactor."""
        reports: Dict[str, AntiEntropyReport] = {}
        for benefactor in self.benefactors:
            if benefactor.online:
                reports[benefactor.benefactor_id] = (
                    self.maintenance[benefactor.benefactor_id].run_once()
                )
        return reports

    def kill_benefactor(self, benefactor_id: str) -> None:
        """Crash one benefactor abruptly while traffic may be in flight.

        The node stops serving (pooled connections observe
        ``BenefactorOfflineError``, fresh connections are refused) and its
        TCP endpoint is torn down; the stored chunks survive in the store
        object, matching an owner-reclaimed desktop rather than a disk loss.
        """
        for benefactor in self.benefactors:
            if benefactor.benefactor_id == benefactor_id:
                benefactor.go_offline()
                self.transport.unregister(benefactor.address)
                self._stop_obs_server(benefactor_id)
                return
        raise KeyError(f"unknown benefactor {benefactor_id!r}")

    def recover_benefactor(self, benefactor_id: str) -> None:
        """Bring a killed benefactor back: rebind its socket and re-register.

        The node binds a *fresh* port (desktop machines rarely come back on
        the same ephemeral socket), re-advertises its surviving inventory to
        the manager — absorbing any repair hints waiting for it — and
        rejoins gossip at the new address.
        """
        for benefactor in self.benefactors:
            if benefactor.benefactor_id == benefactor_id:
                benefactor.go_online()
                self.transport.register(benefactor.address, benefactor)
                bound = self.transport.bound_address(benefactor.address)
                benefactor.register_with(self.manager_address,
                                         advertised_address=bound)
                self._start_obs_server(benefactor_id, benefactor)
                return
        raise KeyError(f"unknown benefactor {benefactor_id!r}")

    def client(self, client_id: str = "tcp-client",
               config: Optional[StdchkConfig] = None,
               push_parallelism: Optional[int] = None,
               read_parallelism: Optional[int] = None) -> ClientProxy:
        effective = config if config is not None else self.config
        overrides = {}
        if push_parallelism is not None:
            overrides["push_parallelism"] = push_parallelism
        if read_parallelism is not None:
            overrides["read_parallelism"] = read_parallelism
        if overrides:
            effective = effective.with_overrides(**overrides)
        # Concurrent fetches against one benefactor must not be capped by the
        # socket pool: grow it to the larger of the client's two windows.
        self.transport.ensure_pool_capacity(
            max(effective.effective_inflight_window, effective.effective_read_window)
        )
        proxy = ClientProxy(
            client_id=client_id,
            transport=self.transport,
            manager_address=self.manager_address,
            config=effective,
            standby_addresses=list(self.standby_addresses.values()),
        )
        self._clients.add(proxy)
        return proxy

    def scrape(self) -> Dict[str, object]:
        """Collect metrics from every reachable node over the wire.

        Uses the ``get_metrics`` RPC — the same path an external scraper
        would take — so the result reflects exactly what each node exports.
        Unreachable nodes are skipped rather than failing the scrape.
        """
        nodes: List[Dict[str, object]] = []
        try:
            nodes.append(self.transport.call(self.manager_address, "get_metrics"))
        except StdchkError:
            pass
        for bound in self.standby_addresses.values():
            try:
                nodes.append(self.transport.call(bound, "get_metrics"))
            except StdchkError:
                continue
        for benefactor in self.benefactors:
            if not benefactor.online:
                continue
            try:
                bound = self.transport.bound_address(benefactor.address)
                nodes.append(self.transport.call(bound, "get_metrics"))
            except StdchkError:
                continue
        return {"nodes": nodes, "aggregate": merge_snapshots(nodes)}

    # -- live observability plane -------------------------------------------
    def start_obs_http(self, host: str = "127.0.0.1") -> Dict[str, str]:
        """Serve every node's telemetry over HTTP (ephemeral local ports).

        Idempotent; the kill/recover/promote helpers keep the server set in
        step with the node set.  Returns :meth:`obs_endpoints`.
        """
        self._obs_http_host = host
        self._start_obs_server(self.manager.manager_id, self.manager)
        for standby_id, standby in self.standbys.items():
            self._start_obs_server(standby_id, standby)
        for benefactor in self.benefactors:
            if benefactor.online:
                self._start_obs_server(benefactor.benefactor_id, benefactor)
        return self.obs_endpoints()

    def _start_obs_server(self, node_id: str, node) -> None:
        if self._obs_http_host is None or node_id in self._obs_servers:
            return
        server = ObsHttpServer(
            node.obs, health_provider=node.health, host=self._obs_http_host
        )
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

    def health_monitor(self, registry=None, on_transition=None,
                       event_log=None) -> ClusterHealthMonitor:
        """A failure detector over every node, knobs from the config.

        Probes ``/health`` over HTTP when :meth:`start_obs_http` ran, the
        ``health`` RPC over TCP otherwise.  The caller drives it
        (``probe_once`` or ``start``) and owns its lifecycle.
        """
        monitor = ClusterHealthMonitor(
            probe_interval=self.config.health_probe_interval,
            suspect_after=self.config.health_suspect_after,
            dead_after=self.config.health_dead_after,
            on_transition=on_transition,
            event_log=event_log,
            registry=registry,
        )
        endpoints = self.obs_endpoints()

        def enroll(node_id: str, kind: str, address: str) -> None:
            if node_id in endpoints:
                probe = http_health_probe(endpoints[node_id])
            else:
                probe = rpc_health_probe(self.transport, address)
            monitor.add_node(node_id, probe, kind=kind)

        enroll(self.manager.manager_id, "manager", self.manager_address)
        for standby_id, bound in self.standby_addresses.items():
            enroll(standby_id, "manager", bound)
        for benefactor in self.benefactors:
            if not benefactor.online:
                continue
            enroll(benefactor.benefactor_id, "benefactor",
                   self.transport.bound_address(benefactor.address))
        return monitor

    def close(self) -> None:
        self.stop_obs_http()
        for client in list(self._clients):
            client.close()
        self.transport.close()

    def __enter__(self) -> "TcpDeployment":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
