"""Peer-to-peer gossip of liveness and placement hints between benefactors.

Each round, a benefactor picks ``fanout`` random online peers from its
directory and exchanges (a) its view of pool membership — peer records with
addresses, liveness and last-seen timestamps, merged newest-wins — and (b)
a bounded random sample of placement hints (chunk id → believed holders).
Like epidemic membership protocols, a few rounds spread any observation to
the whole pool with high probability, so benefactors keep a usable map of
who is alive and roughly where replicas live even while the manager is
down; the membership half is where the anti-entropy pass finds the copy
targets for the repairs the manager hands it.

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

    def __init__(self, benefactor, fanout: int = 2, hint_sample: int = 64,
                 seed: Optional[int] = None) -> None:
        self.benefactor = benefactor
        self.fanout = fanout
        self.hint_sample = hint_sample
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
        # Hint some of our own inventory so holders become discoverable even
        # before any manager-derived hints circulate.
        own_chunks = benefactor.store.chunk_ids()
        if own_chunks:
            sample = own_chunks
            if len(sample) > self.hint_sample:
                sample = self._rng.sample(sample, self.hint_sample)
            for chunk_id in sample:
                directory.note_holders(chunk_id, (benefactor.benefactor_id,))
        targets = directory.random_peers(self._rng, self.fanout)
        if not targets:
            return report
        for peer in targets:
            payload_peers = directory.export_records()
            payload_peers.append(benefactor.self_record())
            payload_hints = directory.hint_sample(self._rng, self.hint_sample)
            try:
                answer = benefactor.transport.call(
                    peer.address,
                    "gossip",
                    sender=benefactor.self_record(),
                    peers=payload_peers,
                    placements=payload_hints,
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
            directory.merge_hints(answer["placements"])
        return report
