"""Core data model: chunks, chunk-maps, datasets, namespace and policies.

This package contains the storage-system-independent data structures shared
by the functional implementation (``repro.manager`` / ``repro.benefactor`` /
``repro.client``) and the discrete-event simulation (``repro.simulation``).
"""

from repro.core.chunk import Chunk, ChunkId, ChunkRef
from repro.core.chunk_map import ChunkMap, ChunkPlacement
from repro.core.dataset import DatasetMetadata, DatasetVersion, VersionId
from repro.core.namespace import Namespace, FolderEntry, FileEntry
from repro.core.policies import (
    RetentionPolicy,
    NoInterventionPolicy,
    AutomatedReplacePolicy,
    AutomatedPurgePolicy,
    make_retention_policy,
)
from repro.core.striping import RoundRobinStriping, StripeAllocation
from repro.core.reservation import Reservation, ReservationTable

__all__ = [
    "Chunk",
    "ChunkId",
    "ChunkRef",
    "ChunkMap",
    "ChunkPlacement",
    "DatasetMetadata",
    "DatasetVersion",
    "VersionId",
    "Namespace",
    "FolderEntry",
    "FileEntry",
    "RetentionPolicy",
    "NoInterventionPolicy",
    "AutomatedReplacePolicy",
    "AutomatedPurgePolicy",
    "make_retention_policy",
    "RoundRobinStriping",
    "StripeAllocation",
    "Reservation",
    "ReservationTable",
]
