"""Standby metadata managers: apply shipped records, promote on demand.

A :class:`StandbyManager` is a full :class:`MetadataManager` that starts in
the ``"standby"`` role: it runs ``apply_record`` — the same function the
primary's handlers commit through and crash recovery replays with — on every
shipped record, but refuses every normal client/benefactor RPC with
:class:`NotPrimaryError`, so a client that dials the wrong node re-resolves
instead of mutating a stale replica.  Applying never journals or ships.

:meth:`promote` flips the role to ``"primary"`` at the last applied LSN,
commits the epoch bump like any other record, and optionally attaches a
fresh journal of its own, seeded with a snapshot so the promoted manager is
immediately crash-durable again.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from repro.exceptions import ManagerError, StaleEpochError
from repro.manager.manager import MetadataManager
from repro.manager.persistence import (
    ManagerPersistence,
    apply_record,
    encode_manager_state,
    restore_manager_state,
)
from repro.transport.base import control


class StandbyManager(MetadataManager):
    """A hot standby replica of the primary metadata manager."""

    def __init__(self, transport, config=None, clock=None,
                 manager_id: str = "standby", **kwargs) -> None:
        if config is not None and config.journal_dir is not None:
            # The standby must not replay or append the *primary's* journal;
            # it gets a journal of its own at promotion time.
            config = config.with_overrides(journal_dir=None)
        super().__init__(transport, config=config, clock=clock,
                         manager_id=manager_id, **kwargs)
        self.role = "standby"
        #: Highest primary LSN whose record has been applied here.
        self.applied_lsn = 0
        self._applied_counter = self.obs.counter(
            "standby_records_applied_total",
            "Shipped journal records applied by this standby.",
        )
        self._snapshot_counter = self.obs.counter(
            "standby_snapshots_installed_total",
            "Full snapshot transfers installed by this standby.",
        )
        self._promotion_histogram = self.obs.histogram(
            "manager_promotion_seconds",
            "Time to flip this standby into a serving primary.",
        )

    @control
    def manager_status(self) -> Dict[str, object]:
        status = super().manager_status()
        status["applied_lsn"] = self.applied_lsn
        # A standby's replication position is its best LSN claim; a promoted
        # standby keeps it until its own journal overtakes.
        status["last_lsn"] = max(int(status["last_lsn"]), self.applied_lsn)
        return status

    def _check_replication_epoch(self, epoch: int) -> None:
        """Fence replication RPCs from deposed primaries (call under lock).

        A caller behind this node's epoch is rejected with
        :class:`StaleEpochError` so it self-demotes, and a caller ahead of
        it moves this node's epoch forward.
        """
        if int(epoch) < self.epoch:
            hint = self.address if self.role == "primary" else None
            raise StaleEpochError(
                f"manager {self.manager_id} is at epoch {self.epoch}; "
                f"rejecting replication from stale epoch {epoch}",
                epoch=self.epoch, primary_address=hint,
            )
        self.epoch = max(self.epoch, int(epoch))

    # ------------------------------------------------------------- replication
    @control
    def replicate_records(self, records: List[Dict[str, object]],
                          from_lsn: int,
                          epoch: int) -> Dict[str, object]:
        """Apply a batch of shipped redo records (primary-facing RPC).

        Records already applied (``lsn <= applied_lsn``) are skipped, so the
        primary may re-send overlapping suffixes safely; a gap (``from_lsn``
        ahead of the next expected record) asks for a snapshot resync
        instead of applying out of order.
        """
        with self._meta_lock:
            self._check_replication_epoch(epoch)
            if self.role != "standby":
                raise ManagerError(
                    f"manager {self.manager_id} was promoted; "
                    "no longer accepting shipped records"
                )
            if from_lsn > self.applied_lsn + 1:
                return {"applied_lsn": self.applied_lsn, "resync": True}
            lsn = int(from_lsn)
            for record in records:
                if lsn > self.applied_lsn:
                    apply_record(self, record)
                    self.applied_lsn = lsn
                    self._applied_counter.inc()
                lsn += 1
            return {"applied_lsn": self.applied_lsn, "resync": False}

    @control
    def install_snapshot(self, state: Dict[str, object],
                         lsn: int,
                         epoch: int) -> Dict[str, object]:
        """Replace this standby's state with a full snapshot at ``lsn``."""
        with self._meta_lock:
            self._check_replication_epoch(epoch)
            if self.role != "standby":
                raise ManagerError(
                    f"manager {self.manager_id} was promoted; "
                    "refusing snapshot install"
                )
            self._reset_state()
            restore_manager_state(self, state)
            self.applied_lsn = int(lsn)
            self._snapshot_counter.inc()
            return {"applied_lsn": self.applied_lsn}

    # --------------------------------------------------------------- promotion
    @control
    def promote(self, journal_dir: Optional[str] = None) -> Dict[str, object]:
        """Take over the primary role at the last applied LSN.

        Benefactor liveness is soft state — the snapshot/stream carries
        membership, and heartbeats against the new primary refresh liveness
        within one interval.  With ``journal_dir`` (a fresh directory) the
        promoted manager seeds a new journal with a snapshot of its current
        state, so it is immediately crash-durable again.
        """
        start = time.perf_counter()
        with self._meta_lock:
            if self.role == "primary":
                return {
                    "promoted": False,
                    "applied_lsn": self.applied_lsn,
                    "epoch": self.epoch,
                }
            self.role = "primary"
            self.online = True
            self.recovering = False
            # Take over under a strictly newer epoch: replication RPCs the
            # deposed primary still sends now carry a stale epoch and bounce
            # with StaleEpochError, which self-demotes it.  The bump is a
            # record like any other; the journal attached below starts from
            # a seed snapshot that already holds it.
            self._commit("epoch", {"epoch": self.epoch + 1}, durable=True)
            if journal_dir is not None and self._persistence is None:
                persistence = ManagerPersistence(
                    journal_dir,
                    fsync_policy=self.config.journal_fsync_policy,
                    snapshot_every_n_records=self.config.snapshot_every_n_records,
                )
                persistence.attach_metrics(self.obs)
                persistence.take_snapshot(encode_manager_state(self))
                self._persistence = persistence
                self._recovered = True
        duration = time.perf_counter() - start
        self._promotion_histogram.observe(duration)
        return {
            "promoted": True,
            "applied_lsn": self.applied_lsn,
            "epoch": self.epoch,
            "duration": duration,
        }
