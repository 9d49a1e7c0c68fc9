"""Garbage collection of orphaned chunks.

Deletion happens only at the manager (section IV.A): removing a file drops
its metadata but leaves its chunks on benefactors as *orphans*.  To reclaim
space, benefactors periodically send the manager the list of chunks they
store and the manager replies with the subset that can be deleted.  The
manager applies a "seen twice" rule so chunks belonging to in-flight
(uncommitted) write sessions are never collected.

This module provides the driver that runs the exchange for a whole pool; the
decision logic itself lives in :meth:`MetadataManager.gc_report`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.exceptions import EndpointUnreachableError, StdchkError
from repro.manager.manager import MetadataManager
from repro.transport.base import Transport


@dataclass
class GcRoundReport:
    """Outcome of one garbage-collection round across the pool."""

    benefactors_contacted: int = 0
    benefactors_unreachable: int = 0
    chunks_reported: int = 0
    chunks_collected: int = 0
    per_benefactor: Dict[str, int] = field(default_factory=dict)


class GarbageCollector:
    """Runs the benefactor/manager garbage-collection exchange.

    In a real deployment each benefactor initiates its own exchange on a
    timer; for determinism the reproduction drives all exchanges from this
    single object, one :meth:`run_once` per GC period.
    """

    def __init__(self, manager: MetadataManager, transport: Transport) -> None:
        self.manager = manager
        self.transport = transport
        #: Chunks deleted over every round so far.
        self.total_collected = 0

    def run_once(self) -> GcRoundReport:
        """One full exchange with every online benefactor."""
        report = GcRoundReport()
        if not self.manager.online:
            return report
        for record in self.manager.registry.online():
            report.benefactors_contacted += 1
            try:
                chunk_ids = self.transport.call(record.address, "list_chunks")
            except (EndpointUnreachableError, StdchkError):
                report.benefactors_unreachable += 1
                self.manager.report_benefactor_failure(record.benefactor_id)
                continue
            report.chunks_reported += len(chunk_ids)
            answer = self.manager.gc_report(record.benefactor_id, chunk_ids)
            collectible = answer["collectible"]
            if not collectible:
                continue
            try:
                removed = self.transport.call(
                    record.address, "delete_chunks", chunk_ids=collectible
                )
            except (EndpointUnreachableError, StdchkError):
                report.benefactors_unreachable += 1
                self.manager.report_benefactor_failure(record.benefactor_id)
                continue
            report.chunks_collected += removed
            report.per_benefactor[record.benefactor_id] = removed
        self.total_collected += report.chunks_collected
        return report

    def run_rounds(self, count: int) -> List[GcRoundReport]:
        """Run several consecutive rounds (the seen-twice rule needs ≥2)."""
        return [self.run_once() for _ in range(count)]

    def collect_expired_reservations(self) -> int:
        """Delete reservations whose lease lapsed; returns how many."""
        return len(self.manager.reservations.collect_expired(self.manager.clock.now()))
