"""Manager durability: write-ahead journal, snapshots and crash recovery.

The metadata manager keeps the pool's only copy of the namespace, version
chains and chunk-maps in memory; this package makes that state survive a
manager crash.  Three pieces cooperate:

* :mod:`journal` — an append-only, CRC-framed record log with a configurable
  fsync policy.  Every mutating manager operation appends one record.
* :mod:`snapshot` — full-state snapshots that compact the journal: the codec
  turns a live manager into a plain dict and back.
* :mod:`recovery` — replays journal records onto a restored snapshot,
  tolerating a torn tail record (the crash may have interrupted an append).

:class:`ManagerPersistence` owns the on-disk layout (``snapshot-<lsn>.json``
plus ``journal-<lsn>.wal`` segments) and is the only object the manager talks
to.  Chunk *data* is never journaled — placements lost between the last
commit record and the crash are rebuilt by soft-state reconciliation when
benefactors re-advertise their inventory (see
:meth:`MetadataManager.reconcile_inventory`).
"""

from repro.manager.persistence.journal import (
    FSYNC_ALWAYS,
    FSYNC_COMMIT,
    FSYNC_NEVER,
    JournalWriter,
    read_journal_records,
)
from repro.manager.persistence.recovery import RecoveryReport, apply_record
from repro.manager.persistence.snapshot import (
    encode_manager_state,
    restore_manager_state,
)
from repro.manager.persistence.store import (
    JournalScan,
    ManagerPersistence,
    scan_journal_dir,
)

__all__ = [
    "FSYNC_ALWAYS",
    "FSYNC_COMMIT",
    "FSYNC_NEVER",
    "JournalScan",
    "JournalWriter",
    "ManagerPersistence",
    "RecoveryReport",
    "apply_record",
    "encode_manager_state",
    "read_journal_records",
    "restore_manager_state",
    "scan_journal_dir",
]
