"""Digest-carrying heartbeats: the benefactor half of soft-state liveness.

Each beat carries the node's inventory digest, and the
manager's acknowledgement says whether the digest still matches the
inventory it reconciled last — only then does the benefactor send the full
id list again.  A manager restart (which forgets the soft registration) is
healed transparently: the beat fails with ``UnknownBenefactorError`` and the
service falls back to a full registration + reconciliation.

The answer is also the node's only source of membership: its ``peers`` list
(every benefactor the manager has online) replaces the peer directory the
anti-entropy pass picks copy targets from.  The reconcile answer is the
manager's repair handoff: the under-replicated chunks this node is the
designated source of become its repair queue, and chunks the corruption
ledger attributes to this node are purged locally.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.exceptions import (
    EndpointUnreachableError,
    ManagerRecoveringError,
    ManagerUnavailableError,
    NotPrimaryError,
    UnknownBenefactorError,
)
from repro.obs import component_logger

#: Manager states worth skipping a beat over (soft state heals itself): the
#: endpoint is gone, deliberately failed, replaying its journal, or a standby
#: that has not been promoted yet.  ``UnknownBenefactorError`` is handled
#: separately — it means the manager *answers* but forgot us.
_TRANSIENT_MANAGER_ERRORS = (
    EndpointUnreachableError,
    ManagerRecoveringError,
    ManagerUnavailableError,
    NotPrimaryError,
)


class HeartbeatService:
    """Periodically announce one benefactor's liveness, space and digest.

    Tick-driven like the manager-side services: the deployment helpers call
    :meth:`run_once` per maintenance round, so tests stay deterministic.
    """

    def __init__(self, benefactor, manager_address: str) -> None:
        self.benefactor = benefactor
        self.manager_address = manager_address
        self.beats = 0
        self.reconciles = 0
        self.reregistrations = 0
        #: Primary epoch carried by the last acknowledged heartbeat.  A bump
        #: means a different manager incarnation answered (failover landed
        #: *between* beats on the same address, or the directory re-pointed
        #: us) — its soft state may predate this node, so re-register.
        self.last_epoch: Optional[int] = None
        self._log = component_logger("heartbeat", benefactor.benefactor_id)
        self._beat_counter = benefactor.obs.counter(
            "maintenance_heartbeats_total",
            "Heartbeats acknowledged by the manager.",
        )

    def run_once(self) -> Optional[Dict[str, object]]:
        """One heartbeat (plus reconciliation when the manager asks for it).

        Returns the manager's answer, or ``None`` when the benefactor is
        offline or the manager is unreachable (soft state: a missed beat
        just means the registry expires us a little sooner).
        """
        benefactor = self.benefactor
        if not benefactor.online:
            return None
        try:
            answer = benefactor.transport.call(
                self.manager_address,
                "heartbeat",
                benefactor_id=benefactor.benefactor_id,
                free_space=benefactor.free_space,
                used_space=benefactor.used_space,
                chunk_count=benefactor.store.chunk_count,
                inventory_digest=benefactor.inventory_digest(),
            )
        except UnknownBenefactorError:
            # Manager amnesia, in either form: a restarted manager lost the
            # soft registration, or a *promoted standby* never saw this node
            # at all (it registered after the last shipped record).  Both
            # answer but don't know us — re-register, which re-advertises
            # the full inventory, absorbs repair hints and lists the peers.
            self._log.info(
                "manager at %s forgot us; re-registering with full inventory",
                self.manager_address,
            )
            benefactor.register_with(self.manager_address,
                                     advertised_address=benefactor.advertised_address)
            self.reregistrations += 1
            self.beats += 1
            # The next acknowledged beat re-learns the answering epoch.
            self.last_epoch = None
            benefactor.last_heartbeat_at = benefactor.clock.now()
            self._beat_counter.inc()
            return {"acknowledged": True, "inventory_requested": False}
        except _TRANSIENT_MANAGER_ERRORS as exc:
            # Soft state: a missed beat just expires us a little sooner.
            self._log.info("manager at %s unreachable, heartbeat skipped: %s",
                           self.manager_address, exc)
            return None
        self.beats += 1
        benefactor.last_heartbeat_at = benefactor.clock.now()
        self._beat_counter.inc()
        benefactor.peers.replace(answer["peers"])
        epoch = answer.get("epoch")
        if epoch is not None:
            if self.last_epoch is not None and int(epoch) != self.last_epoch:
                self._log.info(
                    "manager epoch changed %d -> %s; re-registering with "
                    "full inventory", self.last_epoch, epoch,
                )
                benefactor.register_with(
                    self.manager_address,
                    advertised_address=benefactor.advertised_address,
                )
                self.reregistrations += 1
            self.last_epoch = int(epoch)
        if answer.get("inventory_requested"):
            benefactor.reconcile_with(self.manager_address)
            self.reconciles += 1
        return answer
