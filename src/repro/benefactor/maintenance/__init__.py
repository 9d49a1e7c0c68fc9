"""Replica maintenance services for benefactor nodes.

The manager alone judges what is under-replicated; three tick-driven services
make the benefactors the ones that report, spread the word and copy:

* :class:`HeartbeatService` — digest-carrying heartbeats; the full chunk
  inventory travels only when the Merkle-style digest diverges from what
  the manager last reconciled.
* :class:`GossipService` — epidemic exchange of membership and liveness
  between benefactors.
* :class:`AntiEntropyService` — executes the repairs the manager's reconcile
  answer handed this node (re-attaching orphaned-but-present copies instead
  of re-copying them) and compares checksums with a random peer to find
  corrupt replicas.

:class:`BenefactorMaintenance` bundles the three per node in the order a
maintenance round should run them (learn → spread → heal).
"""

from __future__ import annotations

from typing import Optional

from repro.benefactor.maintenance.anti_entropy import (
    AntiEntropyReport,
    AntiEntropyService,
)
from repro.benefactor.maintenance.digest import (
    DEFAULT_BUCKETS,
    InventoryDigest,
    bucket_index,
    compute_inventory_digest,
)
from repro.benefactor.maintenance.gossip import GossipRound, GossipService
from repro.benefactor.maintenance.heartbeat import HeartbeatService
from repro.benefactor.maintenance.peers import PeerDirectory, PeerInfo, RepairTask


class BenefactorMaintenance:
    """The per-benefactor maintenance stack, run as one unit per tick."""

    def __init__(self, benefactor, manager_address: str,
                 gossip_fanout: int = 2, max_repairs: int = 32,
                 seed: Optional[int] = None) -> None:
        self.benefactor = benefactor
        self.heartbeat = HeartbeatService(benefactor, manager_address)
        self.gossip = GossipService(benefactor, fanout=gossip_fanout, seed=seed)
        self.anti_entropy = AntiEntropyService(
            benefactor,
            manager_address=manager_address,
            max_repairs=max_repairs,
            seed=None if seed is None else seed + 1,
        )
        obs = getattr(benefactor, "obs", None)
        if obs is not None:
            tick = obs.histogram(
                "maintenance_tick_seconds",
                "Duration of one maintenance-service tick.",
                labelnames=("service",),
            )
            self._tick_timers = {
                "heartbeat": tick.labels(service="heartbeat"),
                "gossip": tick.labels(service="gossip"),
                "anti_entropy": tick.labels(service="anti_entropy"),
            }
            self._repairs_counter = obs.counter(
                "maintenance_repairs_total",
                "Replicas healed (copied or re-attached) by maintenance rounds.",
            )
        else:
            self._tick_timers = None
            self._repairs_counter = None

    @property
    def manager_address(self) -> str:
        return self.heartbeat.manager_address

    @manager_address.setter
    def manager_address(self, address: str) -> None:
        # A restarted TCP manager binds a fresh port; re-point both services.
        self.heartbeat.manager_address = address
        self.anti_entropy.manager_address = address

    def run_once(self) -> AntiEntropyReport:
        """One maintenance round: heartbeat, then gossip, then anti-entropy."""
        if self._tick_timers is None:
            self.heartbeat.run_once()
            self.gossip.run_once()
            return self.anti_entropy.run_once()
        with self._tick_timers["heartbeat"].time():
            self.heartbeat.run_once()
        with self._tick_timers["gossip"].time():
            self.gossip.run_once()
        with self._tick_timers["anti_entropy"].time():
            report = self.anti_entropy.run_once()
        healed = report.repaired + report.reattached
        if healed:
            self._repairs_counter.inc(healed)
        return report


__all__ = [
    "AntiEntropyReport",
    "AntiEntropyService",
    "BenefactorMaintenance",
    "DEFAULT_BUCKETS",
    "GossipRound",
    "GossipService",
    "HeartbeatService",
    "InventoryDigest",
    "PeerDirectory",
    "PeerInfo",
    "RepairTask",
    "bucket_index",
    "compute_inventory_digest",
]
