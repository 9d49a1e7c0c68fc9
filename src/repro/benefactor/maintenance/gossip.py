"""Peer-to-peer gossip of membership and liveness between benefactors.

Each round, a benefactor picks ``fanout`` random online peers from its
directory and exchanges its view of pool membership: peer records with
addresses, liveness and last-seen timestamps, merged newest-wins.  Like
epidemic membership protocols, a few rounds spread any observation to the
whole pool with high probability, so benefactors keep a usable map of who is
alive even while the manager is down; that map is where the anti-entropy
pass finds the copy targets for the repairs the manager hands it.

A peer that cannot be reached is marked offline in the directory (and that
observation itself then spreads through subsequent rounds).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from repro.exceptions import BenefactorOfflineError, EndpointUnreachableError
from repro.obs import component_logger


@dataclass
class GossipRound:
    """Outcome of one :meth:`GossipService.run_once` tick."""

    exchanged: int = 0
    unreachable: int = 0
    peers_learned: int = 0


class GossipService:
    """Tick-driven gossip for one benefactor."""

    def __init__(self, benefactor, fanout: int = 2,
                 seed: Optional[int] = None) -> None:
        self.benefactor = benefactor
        self.fanout = fanout
        self._rng = random.Random(seed)
        self.rounds = 0
        self._log = component_logger("gossip", benefactor.benefactor_id)
        obs = getattr(benefactor, "obs", None)
        self._unreachable_counter = (
            obs.counter("gossip_unreachable_total",
                        "Gossip targets that could not be reached.")
            if obs is not None else None
        )

    def run_once(self) -> GossipRound:
        report = GossipRound()
        benefactor = self.benefactor
        if not benefactor.online:
            return report
        self.rounds += 1
        directory = benefactor.peers
        targets = directory.random_peers(self._rng, self.fanout)
        if not targets:
            return report
        for peer in targets:
            payload_peers = directory.export_records()
            payload_peers.append(benefactor.self_record())
            try:
                answer = benefactor.transport.call(
                    peer.address,
                    "gossip",
                    sender=benefactor.self_record(),
                    peers=payload_peers,
                )
            except (EndpointUnreachableError, BenefactorOfflineError) as exc:
                # The observation itself spreads via later rounds.
                self._log.info("peer %s at %s unreachable, marked offline: %s",
                               peer.peer_id, peer.address, exc)
                directory.mark_offline(peer.peer_id)
                report.unreachable += 1
                if self._unreachable_counter is not None:
                    self._unreachable_counter.inc()
                continue
            report.exchanged += 1
            report.peers_learned += directory.merge_peer_records(answer["peers"])
        return report
