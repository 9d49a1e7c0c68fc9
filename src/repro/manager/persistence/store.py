"""On-disk layout and lifecycle of the manager's durable state.

One directory holds everything::

    journal_dir/
      snapshot-<lsn>.json   # full state through record <lsn> (at most one kept)
      journal-<lsn>.wal     # records <lsn>+1, <lsn>+2, ... (the active segment)

``lsn`` is the global ordinal of journal records (1-based).  Taking a
snapshot writes ``snapshot-<L>.json`` atomically (tmp + fsync + rename),
rotates the journal to a fresh ``journal-<L>.wal`` segment and deletes the
compacted predecessors — the journal never grows without bound.

Loading scans segments in base order, skips records a snapshot already
covers, truncates a torn tail (a crash mid-append) and leaves the writer
positioned at the tail so appends resume with consistent LSNs.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.exceptions import JournalClosedError
from repro.manager.persistence.journal import (
    FSYNC_COMMIT,
    FSYNC_NEVER,
    JournalWriter,
    read_journal_records,
    truncate_torn_tail,
)

_SNAPSHOT_RE = re.compile(r"^snapshot-(\d+)\.json$")
_JOURNAL_RE = re.compile(r"^journal-(\d+)\.wal$")


@dataclass
class JournalScan:
    """What a journal directory holds, read without changing anything."""

    #: The newest readable snapshot (None without one) and the LSN it covers.
    state: Optional[Dict[str, object]]
    snapshot_lsn: int
    #: ``(lsn, record)`` of every record after the snapshot, in order.
    records: List[Tuple[int, Dict[str, object]]]
    #: The highest LSN any segment reaches.
    last_lsn: int
    #: The segment with a torn tail, if one has; nothing after it is read.
    torn: Optional[str]


def _list(journal_dir: str, pattern: re.Pattern) -> List[Tuple[int, str]]:
    entries = []
    for name in os.listdir(journal_dir):
        match = pattern.match(name)
        if match is not None:
            entries.append((int(match.group(1)), os.path.join(journal_dir, name)))
    entries.sort()
    return entries


def scan_journal_dir(journal_dir: str) -> JournalScan:
    """Read ``journal_dir``'s newest snapshot and the records after it.

    A half-written snapshot from a crash is skipped for the one before it;
    segments are read in base order and a torn one ends the scan.
    """
    state: Optional[Dict[str, object]] = None
    snapshot_lsn = 0
    for lsn, path in reversed(_list(journal_dir, _SNAPSHOT_RE)):
        try:
            with open(path, "r", encoding="utf-8") as handle:
                state = json.load(handle)
            snapshot_lsn = lsn
            break
        except (OSError, json.JSONDecodeError):
            continue  # half-written snapshot from a crash; older one wins
    replay: List[Tuple[int, Dict[str, object]]] = []
    last_lsn = snapshot_lsn
    for base, path in _list(journal_dir, _JOURNAL_RE):
        records, _valid, torn = read_journal_records(path)
        lsn = base
        for record in records:
            lsn += 1
            if lsn > snapshot_lsn:
                replay.append((lsn, record))
        last_lsn = max(last_lsn, lsn)
        if torn:
            return JournalScan(state, snapshot_lsn, replay, last_lsn, path)
    return JournalScan(state, snapshot_lsn, replay, last_lsn, None)


class ManagerPersistence:
    """Owns the journal directory: appends, snapshots, compaction, loading."""

    def __init__(self, journal_dir: str, fsync_policy: str = FSYNC_COMMIT,
                 snapshot_every_n_records: int = 4096) -> None:
        if snapshot_every_n_records <= 0:
            raise ValueError("snapshot_every_n_records must be positive")
        self.journal_dir = journal_dir
        self.fsync_policy = fsync_policy
        self.snapshot_every_n_records = snapshot_every_n_records
        os.makedirs(journal_dir, exist_ok=True)
        self._writer: Optional[JournalWriter] = None
        self._closed = False
        self._lock = threading.RLock()
        #: Ordinal of the last record appended or observed at load time.
        self.last_lsn = 0
        #: Ordinal covered by the most recent snapshot (0 = none).
        self.snapshot_lsn = 0
        self.snapshots_taken = 0
        # Latency histograms wired by attach_metrics (owned by the manager's
        # registry); None until a registry is attached.
        self._append_timer = None
        self._fsync_timer = None
        self._snapshot_timer = None

    def attach_metrics(self, registry) -> None:
        """Record append/fsync/snapshot latency into ``registry``'s histograms."""
        self._append_timer = registry.histogram(
            "journal_append_seconds", "Write-ahead journal append latency."
        )
        self._fsync_timer = registry.histogram(
            "journal_fsync_seconds", "Journal fsync latency."
        )
        self._snapshot_timer = registry.histogram(
            "journal_snapshot_seconds",
            "Snapshot write + journal compaction latency.",
        )
        with self._lock:
            if self._writer is not None:
                self._writer.fsync_timer = self._fsync_timer

    def _wire_writer(self, writer: JournalWriter) -> JournalWriter:
        writer.fsync_timer = self._fsync_timer
        return writer

    # ------------------------------------------------------------- file layout
    def _snapshot_path(self, lsn: int) -> str:
        return os.path.join(self.journal_dir, f"snapshot-{lsn:012d}.json")

    def _journal_path(self, base: int) -> str:
        return os.path.join(self.journal_dir, f"journal-{base:012d}.wal")

    def _fsync_dir(self) -> None:
        if self.fsync_policy == FSYNC_NEVER:
            return
        try:
            fd = os.open(self.journal_dir, os.O_RDONLY)
        except OSError:  # pragma: no cover - platform without dir fds
            return
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    # ---------------------------------------------------------------- loading
    def has_prior_state(self) -> bool:
        """True when the directory holds a snapshot or a non-empty journal."""
        with self._lock:
            if _list(self.journal_dir, _SNAPSHOT_RE):
                return True
            return any(
                os.path.getsize(path) > 0 for _base, path in _list(self.journal_dir, _JOURNAL_RE)
            )

    def load(self) -> Tuple[Optional[Dict[str, object]], List[Dict[str, object]], int]:
        """Scan the directory and position the writer at the journal tail.

        Returns ``(snapshot_state, records_to_replay, torn_bytes_dropped)``.
        The torn tail (if any) is truncated so subsequent appends extend a
        clean log.
        """
        with self._lock:
            self._require_open_store()
            self._close_writer()
            # A crash between writing snapshot-<lsn>.json.tmp and renaming it
            # strands the .tmp; nothing else ever deletes it.
            for name in os.listdir(self.journal_dir):
                if name.endswith(".tmp"):
                    os.remove(os.path.join(self.journal_dir, name))
            scan = scan_journal_dir(self.journal_dir)
            torn_total = 0 if scan.torn is None else truncate_torn_tail(scan.torn)
            self.snapshot_lsn = scan.snapshot_lsn
            self.last_lsn = scan.last_lsn
            self._open_writer_at_tail()
            return scan.state, [record for _lsn, record in scan.records], torn_total

    def _open_writer_at_tail(self) -> None:
        journals = _list(self.journal_dir, _JOURNAL_RE)
        if journals:
            _base, path = journals[-1]
        else:
            path = self._journal_path(self.snapshot_lsn)
        self._writer = self._wire_writer(JournalWriter(path, self.fsync_policy))

    def _require_open_store(self) -> None:
        if self._closed:
            raise JournalClosedError(
                f"persistence for {self.journal_dir} was closed; a successor "
                "manager owns the journal now"
            )

    def _ensure_open(self) -> None:
        self._require_open_store()
        if self._writer is None:
            self.load()

    def _close_writer(self) -> None:
        if self._writer is not None:
            self._writer.close()
            self._writer = None

    # --------------------------------------------------------------- appending
    def append(self, op: str, payload: Dict[str, object], durable: bool = False) -> int:
        """Append one record; returns its LSN."""
        with self._lock:
            self._ensure_open()
            if self._append_timer is not None:
                with self._append_timer.time():
                    self._writer.append({"op": op, "data": payload}, durable=durable)
            else:
                self._writer.append({"op": op, "data": payload}, durable=durable)
            self.last_lsn += 1
            return self.last_lsn

    def should_snapshot(self) -> bool:
        with self._lock:
            return self.last_lsn - self.snapshot_lsn >= self.snapshot_every_n_records

    def take_snapshot(self, state: Dict[str, object]) -> int:
        """Write ``state`` as the new snapshot and compact the journal.

        The snapshot is durable on disk *before* the journal it compacts is
        deleted, so a crash at any point leaves either the old (snapshot,
        journal) pair or the new one.
        """
        started = time.perf_counter()
        with self._lock:
            self._ensure_open()
            lsn = self.last_lsn
            path = self._snapshot_path(lsn)
            temporary = path + ".tmp"
            with open(temporary, "w", encoding="utf-8") as handle:
                # ``dumps`` runs the C encoder in one go; ``json.dump`` would
                # iterate the pure-Python one (three times the time, under the
                # manager's meta lock) to write the very same bytes.
                handle.write(json.dumps(state, separators=(",", ":")))
                handle.flush()
                if self.fsync_policy != FSYNC_NEVER:
                    os.fsync(handle.fileno())
            os.replace(temporary, path)
            self._fsync_dir()

            self._close_writer()
            self._writer = self._wire_writer(
                JournalWriter(self._journal_path(lsn), self.fsync_policy)
            )
            self.snapshot_lsn = lsn
            self.snapshots_taken += 1
            for old_lsn, old_path in _list(self.journal_dir, _SNAPSHOT_RE):
                if old_lsn < lsn:
                    os.remove(old_path)
            for base, old_path in _list(self.journal_dir, _JOURNAL_RE):
                if base < lsn:
                    os.remove(old_path)
            self._fsync_dir()
            if self._snapshot_timer is not None:
                self._snapshot_timer.observe(time.perf_counter() - started)
            return lsn

    # ------------------------------------------------------------------ stats
    def stats(self) -> Dict[str, object]:
        with self._lock:
            return {
                "last_lsn": self.last_lsn,
                "snapshot_lsn": self.snapshot_lsn,
                "records_since_snapshot": self.last_lsn - self.snapshot_lsn,
                "snapshots_taken": self.snapshots_taken,
                "fsyncs": self._writer.fsyncs if self._writer is not None else 0,
            }

    def journal_bytes(self) -> int:
        """Size of the active journal segment (benchmarks)."""
        with self._lock:
            self._ensure_open()
            return self._writer.tell()

    def close(self) -> None:
        with self._lock:
            self._close_writer()
