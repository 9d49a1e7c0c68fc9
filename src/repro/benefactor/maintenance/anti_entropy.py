"""Background anti-entropy: benefactors execute the repairs the manager judged.

Who is under-replicated is the manager's decision alone
(``MetadataManager.reconcile_inventory``); this pass is the executor.  Each
tick a benefactor does two things:

1. **Drain its repair queue.**  A task is one entry of the manager's
   reconcile answer: a chunk this node is the designated source of, how
   many replicas are ``missing``, who holds one already and which corrupt
   holders to avoid.  For each missing replica the node picks a peer from
   its directory (the manager's last list of online benefactors) that is
   neither — but *probes with* ``has_chunk`` *first*:
   an orphaned-but-present copy (e.g. a recovered node the manager dropped)
   is re-attached by telling the manager about it, never re-copied.
   Otherwise the chunk is pushed with ``replicate_to`` and the new
   placement reported via ``record_replicas``.

2. **Compare checksums with one random peer.**  The peer returns its
   ``chunk_id → payload digest`` map.  Content-addressed chunks are
   self-verifying (the id embeds the expected digest), so a mismatch
   pinpoints *which* side is corrupt: a corrupt local copy is deleted and
   self-reported; a corrupt remote copy is reported to the manager's
   corruption ledger, which flags the holders so the next reconcile hands
   out the replacement copy.  Only when the report could not be delivered
   (manager down) does the node queue that one replacement itself, from
   its own good copy, so the data survives.  Position-addressed chunks
   cannot be attributed and are only counted.

Reporting to the manager is best-effort: a copy whose ``record_replicas``
was lost is re-attached later through the holder's own reconciliation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.benefactor.maintenance.peers import PeerInfo, RepairTask
from repro.core.chunk import is_content_addressed
from repro.exceptions import (
    BenefactorOfflineError,
    EndpointUnreachableError,
    StdchkError,
)
from repro.obs import component_logger

#: ``sha1:<hex>`` ids embed their expected payload digest.
_CONTENT_PREFIX = "sha1:"


@dataclass
class AntiEntropyReport:
    """Outcome of one :meth:`AntiEntropyService.run_once` tick."""

    repaired: int = 0
    reattached: int = 0
    corrupt_local: int = 0
    corrupt_remote: int = 0
    divergent_unattributed: int = 0
    peers_compared: int = 0
    repair_failures: int = 0
    queued: int = 0
    #: chunk ids this tick copied or re-attached (for tests/benchmarks).
    healed_chunks: List[str] = field(default_factory=list)


class AntiEntropyService:
    """Tick-driven repair executor and checksum comparison for one benefactor."""

    def __init__(
        self,
        benefactor,
        manager_address: Optional[str] = None,
        max_repairs: int = 32,
        candidate_attempts: int = 3,
        seed: Optional[int] = None,
    ) -> None:
        self.benefactor = benefactor
        self.manager_address = manager_address
        #: Queued tasks taken up per tick.
        self.max_repairs = max_repairs
        #: How many copy targets may fail before giving up on a task for
        #: this tick (what is still missing is re-queued for the next one).
        self.candidate_attempts = candidate_attempts
        self._rng = random.Random(seed)
        self.rounds = 0
        self._log = component_logger("anti-entropy", benefactor.benefactor_id)
        repairs = benefactor.obs.counter(
            "anti_entropy_repairs_total",
            "Replicas healed by the anti-entropy pass, by kind.",
            labelnames=("kind",),
        )
        self._repaired_counter = repairs.labels(kind="copied")
        self._reattached_counter = repairs.labels(kind="reattached")
        corrupt = benefactor.obs.counter(
            "anti_entropy_corrupt_total",
            "Provably corrupt replicas detected, by side.",
            labelnames=("side",),
        )
        self._corrupt_local_counter = corrupt.labels(side="local")
        self._corrupt_remote_counter = corrupt.labels(side="remote")

    # ------------------------------------------------------------------ tick
    def run_once(self) -> AntiEntropyReport:
        report = AntiEntropyReport()
        benefactor = self.benefactor
        if not benefactor.online:
            return report
        self.rounds += 1
        self._drain_repairs(report)
        self._compare_with_random_peer(report)
        # Work the comparison queued is drained immediately so a single tick
        # makes forward progress on its own findings.
        self._drain_repairs(report)
        return report

    # ---------------------------------------------------------- repair queue
    def _drain_repairs(self, report: AntiEntropyReport) -> None:
        benefactor = self.benefactor
        budget = self.max_repairs - (report.repaired + report.reattached)
        for task in benefactor.drain_repairs(budget):
            if not benefactor.store.contains(task.chunk_id):
                # We no longer hold a source copy; the manager names another
                # holder the source at that holder's next reconcile.
                continue
            self._repair_chunk(task, report)
            if task.missing:
                report.repair_failures += 1
                # Keep trying on later ticks (peers may come back online).
                benefactor.enqueue_repair(
                    task.chunk_id, reason=task.reason, exclude=task.exclude,
                    missing=task.missing, holders=task.holders,
                )

    def _repair_chunk(self, task: RepairTask, report: AntiEntropyReport) -> None:
        """Place ``task.missing`` more replicas; the task keeps what is left."""
        benefactor = self.benefactor
        directory = benefactor.peers
        avoid = task.holders | task.exclude
        candidates = [
            peer for peer in directory.peers() if peer.peer_id not in avoid
        ]
        # Prefer space, break ties randomly so repairs spread across peers.
        self._rng.shuffle(candidates)
        candidates.sort(key=lambda peer: -peer.free_space)
        failures = 0
        for peer in candidates:
            if not task.missing or failures >= self.candidate_attempts:
                return
            if self._place_replica(task.chunk_id, peer, report):
                task.missing -= 1
                task.holders.add(peer.peer_id)
            else:
                failures += 1

    def _place_replica(self, chunk_id: str, peer: PeerInfo,
                       report: AntiEntropyReport) -> bool:
        """One more replica of ``chunk_id`` on ``peer``, found or copied."""
        benefactor = self.benefactor
        directory = benefactor.peers
        try:
            found = benefactor.transport.call(peer.address, "has_chunk",
                                              chunk_id=chunk_id)
        except (EndpointUnreachableError, BenefactorOfflineError) as exc:
            self._log.info(
                "repair target %s at %s unreachable for chunk %s: %s",
                peer.peer_id, peer.address, chunk_id, exc,
            )
            directory.mark_offline(peer.peer_id)
            return False
        if found:
            # Orphaned-but-present copy: re-attach, don't re-copy.
            report.reattached += 1
            counter = self._reattached_counter
        elif chunk_id in benefactor.replicate_to([chunk_id], peer.address)["copied"]:
            report.repaired += 1
            counter = self._repaired_counter
        else:
            return False
        counter.inc()
        self._record_with_manager(peer.peer_id, [chunk_id])
        report.healed_chunks.append(chunk_id)
        return True

    def _record_with_manager(self, holder_id: str, chunk_ids: List[str]) -> None:
        """Tell the manager about a replica we created or found (best effort)."""
        if self.manager_address is None:
            return
        try:
            self.benefactor.transport.call(
                self.manager_address,
                "record_replicas",
                benefactor_id=holder_id,
                chunk_ids=chunk_ids,
            )
        except StdchkError as exc:
            # Manager down or recovering: the holder's own soft-state
            # reconciliation will re-attach the placement later.
            self._log.info(
                "could not record replicas %s on %s with manager: %s",
                chunk_ids, holder_id, exc,
            )

    def _report_corruption(self, chunk_id: str, holder_id: str) -> bool:
        """Tell the manager's corruption ledger; True when it was recorded."""
        if self.manager_address is None:
            return False
        try:
            self.benefactor.transport.call(
                self.manager_address,
                "report_corrupt_chunk",
                chunk_id=chunk_id,
                benefactor_id=holder_id,
                reporter=self.benefactor.benefactor_id,
            )
        except StdchkError as exc:
            self._log.info(
                "could not report corrupt chunk %s on %s to manager: %s",
                chunk_id, holder_id, exc,
            )
            return False
        return True

    # ------------------------------------------------------- peer comparison
    def _compare_with_random_peer(self, report: AntiEntropyReport) -> None:
        benefactor = self.benefactor
        directory = benefactor.peers
        peers = directory.random_peers(self._rng, 1)
        if not peers:
            return
        peer = peers[0]
        try:
            remote: Dict[str, str] = benefactor.transport.call(
                peer.address, "checksum_inventory"
            )
        except (EndpointUnreachableError, BenefactorOfflineError):
            directory.mark_offline(peer.peer_id)
            return
        report.peers_compared += 1
        local = benefactor.store.checksums()
        for chunk_id, remote_sum in remote.items():
            self._judge_pair(chunk_id, local.get(chunk_id), remote_sum,
                             peer.peer_id, report)

    def _judge_pair(self, chunk_id: str, local_sum: Optional[str],
                    remote_sum: str, peer_id: str,
                    report: AntiEntropyReport) -> None:
        benefactor = self.benefactor
        if is_content_addressed(chunk_id) and chunk_id.startswith(_CONTENT_PREFIX):
            expected = chunk_id[len(_CONTENT_PREFIX):]
            if remote_sum != expected:
                # The peer's copy is provably corrupt.
                self._log.warning("peer %s holds corrupt copy of chunk %s",
                                  peer_id, chunk_id)
                report.corrupt_remote += 1
                self._corrupt_remote_counter.inc()
                reported = self._report_corruption(chunk_id, peer_id)
                if not reported and local_sum == expected:
                    # The judge cannot be told, and we hold a good copy:
                    # replace the one provably lost replica ourselves.
                    benefactor.enqueue_repair(
                        chunk_id, reason="corrupt_peer", exclude={peer_id}
                    )
                    report.queued += 1
            if local_sum is not None and local_sum != expected:
                # Our own copy is provably corrupt: drop and self-report.
                self._log.warning("local copy of chunk %s is corrupt; dropping",
                                  chunk_id)
                report.corrupt_local += 1
                self._corrupt_local_counter.inc()
                benefactor.store.delete(chunk_id)
                self._report_corruption(chunk_id, benefactor.benefactor_id)
            return
        # Position-addressed chunks carry no ground truth; divergence can
        # only be surfaced, not attributed to a side.
        if local_sum is not None and local_sum != remote_sum:
            report.divergent_unattributed += 1
