"""The centralized metadata manager and its background services.

The manager maintains the entire system metadata (donor status, chunk
distribution, dataset attributes), allocates stripes for new writes, commits
chunk-maps atomically at ``close()`` (session semantics), judges which chunks
are below their dataset's replication level (the benefactors make the
copies), and drives two background services: garbage collection of orphaned
chunks and retention-policy pruning of checkpoint images.
"""

from repro.manager.registry import BenefactorRecord, BenefactorRegistry
from repro.manager.manager import MetadataManager, WriteSessionRecord
from repro.manager.garbage_collector import GarbageCollector
from repro.manager.pruner import RetentionPruner

__all__ = [
    "BenefactorRecord",
    "BenefactorRegistry",
    "MetadataManager",
    "WriteSessionRecord",
    "GarbageCollector",
    "RetentionPruner",
]
