"""Replica maintenance services for benefactor nodes.

The manager alone judges what is under-replicated and alone says who is a
member; two tick-driven services make the benefactors the ones that report
and copy:

* :class:`HeartbeatService` — digest-carrying heartbeats; the full chunk
  inventory travels only when the inventory digest diverges from what
  the manager last reconciled, and the answer's peer list replaces the
  node's peer directory.
* :class:`AntiEntropyService` — executes the repairs the manager's reconcile
  answer handed this node (re-attaching orphaned-but-present copies instead
  of re-copying them) and compares checksums with a random peer to find
  corrupt replicas.

:class:`BenefactorMaintenance` bundles the two per node in the order a
maintenance round should run them (learn → heal).
"""

from __future__ import annotations

from typing import Optional

from repro.benefactor.maintenance.anti_entropy import (
    AntiEntropyReport,
    AntiEntropyService,
)
from repro.benefactor.maintenance.digest import compute_inventory_digest
from repro.benefactor.maintenance.heartbeat import HeartbeatService
from repro.benefactor.maintenance.peers import PeerDirectory, PeerInfo, RepairTask


class BenefactorMaintenance:
    """The per-benefactor maintenance stack, run as one unit per tick."""

    def __init__(self, benefactor, manager_address: str,
                 max_repairs: int = 32, seed: Optional[int] = None) -> None:
        self.benefactor = benefactor
        self.heartbeat = HeartbeatService(benefactor, manager_address)
        self.anti_entropy = AntiEntropyService(
            benefactor,
            manager_address=manager_address,
            max_repairs=max_repairs,
            seed=seed,
        )
        tick = benefactor.obs.histogram(
            "maintenance_tick_seconds",
            "Duration of one maintenance-service tick.",
            labelnames=("service",),
        )
        self._heartbeat_timer = tick.labels(service="heartbeat")
        self._anti_entropy_timer = tick.labels(service="anti_entropy")
        self._repairs_counter = benefactor.obs.counter(
            "maintenance_repairs_total",
            "Replicas healed (copied or re-attached) by maintenance rounds.",
        )

    @property
    def manager_address(self) -> str:
        return self.heartbeat.manager_address

    @manager_address.setter
    def manager_address(self, address: str) -> None:
        # A restarted TCP manager binds a fresh port; re-point both services.
        self.heartbeat.manager_address = address
        self.anti_entropy.manager_address = address

    def run_once(self) -> AntiEntropyReport:
        """One maintenance round: heartbeat, then anti-entropy."""
        with self._heartbeat_timer.time():
            self.heartbeat.run_once()
        with self._anti_entropy_timer.time():
            report = self.anti_entropy.run_once()
        healed = report.repaired + report.reattached
        if healed:
            self._repairs_counter.inc(healed)
        return report


__all__ = [
    "AntiEntropyReport",
    "AntiEntropyService",
    "BenefactorMaintenance",
    "HeartbeatService",
    "PeerDirectory",
    "PeerInfo",
    "RepairTask",
    "compute_inventory_digest",
]
