"""Peer-level soft state a benefactor keeps about the rest of the pool.

Which benefactors are online, where they listen and how much room they have:
a copy of the manager's membership, the ``peers`` list its registration and
heartbeat answers carry.  Each answer replaces the whole directory, so a node
the manager expired or was told has failed is gone at the next beat; a peer a
call just failed on is dropped until the manager lists it again.  The
directory is advisory only: the anti-entropy pass picks its copy targets from
it, but whether a chunk needs a copy at all is the manager's call alone.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set


@dataclass
class PeerInfo:
    """One benefactor as the manager last listed it to another."""

    peer_id: str
    address: str
    free_space: int = 0


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

    The manager's answers write it (:meth:`replace`), the anti-entropy pass
    reads it and drops peers its calls fail on; the two run on different
    threads from the RPC handlers.
    """

    def __init__(self, owner_id: str) -> None:
        self.owner_id = owner_id
        self._peers: Dict[str, PeerInfo] = {}
        self._lock = threading.Lock()

    def replace(self, records: Iterable[Dict[str, object]]) -> None:
        """Adopt the manager's online list, minus the owner, as the directory."""
        peers = {
            str(record["benefactor_id"]): PeerInfo(
                peer_id=str(record["benefactor_id"]),
                address=str(record["address"]),
                free_space=int(record["free_space"]),
            )
            for record in records
            if record["benefactor_id"] != self.owner_id
        }
        with self._lock:
            self._peers = peers

    def mark_offline(self, peer_id: str) -> None:
        """Drop a peer a call just failed on, until the manager lists it again."""
        with self._lock:
            self._peers.pop(peer_id, None)

    def peers(self) -> List[PeerInfo]:
        with self._lock:
            return list(self._peers.values())

    def get(self, peer_id: str) -> Optional[PeerInfo]:
        with self._lock:
            return self._peers.get(peer_id)

    def random_peers(self, rng: random.Random, count: int) -> List[PeerInfo]:
        """Up to ``count`` distinct peers, uniformly at random."""
        with self._lock:
            eligible = list(self._peers.values())
        if len(eligible) <= count:
            return eligible
        return rng.sample(eligible, count)

    def __len__(self) -> int:
        with self._lock:
            return len(self._peers)

    def __contains__(self, peer_id: str) -> bool:
        with self._lock:
            return peer_id in self._peers
