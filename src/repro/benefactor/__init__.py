"""Benefactor (storage donor) nodes.

Benefactors contribute scavenged disk space.  Their functionality is kept
deliberately minimal (section IV.A): publish status and free space via
soft-state registration, serve chunk store/retrieve requests, copy chunks to
other benefactors for replication, and run garbage collection against the
manager's liveness answers.
"""

from repro.benefactor.chunk_store import ChunkStore, DiskChunkStore, MemoryChunkStore
from repro.benefactor.benefactor import Benefactor
from repro.benefactor.maintenance import (
    AntiEntropyService,
    BenefactorMaintenance,
    HeartbeatService,
    compute_inventory_digest,
)

__all__ = [
    "ChunkStore",
    "DiskChunkStore",
    "MemoryChunkStore",
    "Benefactor",
    "AntiEntropyService",
    "BenefactorMaintenance",
    "HeartbeatService",
    "compute_inventory_digest",
]
