"""Peer-level soft state a benefactor accumulates about the rest of the pool.

Which benefactors exist and are reachable (liveness).  It is gossiped peer to
peer, merged newest-record-wins, and is advisory only.  The anti-entropy pass
picks its copy targets from it; whether a chunk needs a copy at all is the
manager's call alone, made from its committed chunk-maps.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set


@dataclass
class PeerInfo:
    """One benefactor as seen from another benefactor."""

    peer_id: str
    address: str
    last_seen: float = 0.0
    online: bool = True
    free_space: int = 0
    inventory_digest: str = ""

    def to_record(self) -> Dict[str, object]:
        """Wire form exchanged by the ``gossip`` RPC."""
        return {
            "peer_id": self.peer_id,
            "address": self.address,
            "last_seen": self.last_seen,
            "online": self.online,
            "free_space": self.free_space,
            "inventory_digest": self.inventory_digest,
        }


@dataclass
class RepairTask:
    """One chunk queued for the anti-entropy pass to re-replicate."""

    chunk_id: str
    reason: str = "under_replicated"
    #: How many more replicas the manager wants placed.
    missing: int = 1
    #: Benefactors that already hold a healthy replica (never copy targets).
    holders: Set[str] = field(default_factory=set)
    #: Benefactors that must not be used as copy targets (e.g. holders whose
    #: replica of this chunk is known corrupt).
    exclude: Set[str] = field(default_factory=set)


class PeerDirectory:
    """Thread-safe membership state for one benefactor.

    All mutation paths (heartbeat refresh from the manager's benefactor
    list, incoming and outgoing gossip, anti-entropy discoveries) funnel
    through this class; services and RPC handlers run on different threads.
    """

    def __init__(self, owner_id: str) -> None:
        self.owner_id = owner_id
        self._peers: Dict[str, PeerInfo] = {}
        self._lock = threading.Lock()

    def observe(self, peer_id: str, address: str, now: float,
                free_space: int = 0, inventory_digest: str = "",
                online: bool = True) -> None:
        """Record a first-hand observation of ``peer_id`` (always wins)."""
        if peer_id == self.owner_id:
            return
        with self._lock:
            peer = self._peers.get(peer_id)
            if peer is None:
                peer = PeerInfo(peer_id=peer_id, address=address)
                self._peers[peer_id] = peer
            peer.address = address
            peer.last_seen = max(peer.last_seen, now)
            peer.online = online
            peer.free_space = free_space
            if inventory_digest:
                peer.inventory_digest = inventory_digest

    def merge_peer_records(self, records: Iterable[Dict[str, object]]) -> int:
        """Merge second-hand gossip records; newer ``last_seen`` wins.

        Returns the number of records that taught us something new (a peer
        we did not know, or a fresher observation of one we did).
        """
        learned = 0
        with self._lock:
            for record in records:
                peer_id = str(record["peer_id"])
                if peer_id == self.owner_id:
                    continue
                last_seen = float(record.get("last_seen", 0.0))
                peer = self._peers.get(peer_id)
                if peer is None:
                    self._peers[peer_id] = PeerInfo(
                        peer_id=peer_id,
                        address=str(record["address"]),
                        last_seen=last_seen,
                        online=bool(record.get("online", True)),
                        free_space=int(record.get("free_space", 0)),
                        inventory_digest=str(record.get("inventory_digest", "")),
                    )
                    learned += 1
                    continue
                if last_seen <= peer.last_seen:
                    continue
                peer.address = str(record["address"])
                peer.last_seen = last_seen
                peer.online = bool(record.get("online", True))
                peer.free_space = int(record.get("free_space", 0))
                digest = str(record.get("inventory_digest", ""))
                if digest:
                    peer.inventory_digest = digest
                learned += 1
        return learned

    def mark_offline(self, peer_id: str) -> None:
        with self._lock:
            peer = self._peers.get(peer_id)
            if peer is not None:
                peer.online = False

    def export_records(self) -> List[Dict[str, object]]:
        """Every known peer in wire form (the gossip payload)."""
        with self._lock:
            return [peer.to_record() for peer in self._peers.values()]

    def peers(self, online_only: bool = False) -> List[PeerInfo]:
        with self._lock:
            if online_only:
                return [p for p in self._peers.values() if p.online]
            return list(self._peers.values())

    def get(self, peer_id: str) -> Optional[PeerInfo]:
        with self._lock:
            return self._peers.get(peer_id)

    def random_peers(self, rng: random.Random, count: int,
                     exclude: Sequence[str] = ()) -> List[PeerInfo]:
        """Up to ``count`` distinct online peers, uniformly at random."""
        excluded = set(exclude)
        with self._lock:
            eligible = [
                p for p in self._peers.values()
                if p.online and p.peer_id not in excluded
            ]
        if len(eligible) <= count:
            return eligible
        return rng.sample(eligible, count)

    def __len__(self) -> int:
        with self._lock:
            return len(self._peers)

    def __contains__(self, peer_id: str) -> bool:
        with self._lock:
            return peer_id in self._peers
