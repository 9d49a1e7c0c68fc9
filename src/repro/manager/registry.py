"""Soft-state registry of benefactor nodes.

Benefactors publish their status (online/offline, free space) through
periodic heartbeats.  The registry expires nodes whose heartbeats stop — no
explicit deregistration is required, which is exactly what makes scavenged
storage practical on volatile desktops.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set

from repro.core.striping import BenefactorView
from repro.exceptions import UnknownBenefactorError


@dataclass
class BenefactorRecord:
    """Manager-side view of one registered benefactor."""

    benefactor_id: str
    address: str
    free_space: int = 0
    used_space: int = 0
    chunk_count: int = 0
    last_heartbeat: float = 0.0
    registered_at: float = 0.0
    online: bool = True
    #: Heartbeats received; useful to assert soft-state behaviour in tests.
    heartbeats: int = 0
    #: Digest of the inventory this benefactor last reconciled in full;
    #: a heartbeat whose digest differs triggers re-advertisement.
    reconciled_digest: str = ""
    #: Set when the manager may have repair work for this benefactor that
    #: its inventory digest cannot reveal (a corruption report, a departed
    #: or dropped peer, work withheld or still outstanding); the next
    #: heartbeat is asked to reconcile so the work is handed off.
    repair_pending: bool = False
    #: Committed chunks placed on this benefactor that its last reconciled
    #: inventory lacked; a chunk missing from the next one too is detached.
    missing: FrozenSet[str] = frozenset()

    def view(self) -> BenefactorView:
        """Snapshot consumed by the striping policy."""
        return BenefactorView(
            benefactor_id=self.benefactor_id,
            free_space=self.free_space,
            online=self.online,
        )


class BenefactorRegistry:
    """Tracks every benefactor that ever registered, with liveness state.

    All accessors take an internal lock: heartbeats, client failure reports
    and stripe allocations arrive concurrently once the data path pushes
    chunks in parallel.
    """

    def __init__(self, heartbeat_timeout: float = 30.0) -> None:
        self.heartbeat_timeout = heartbeat_timeout
        self._records: Dict[str, BenefactorRecord] = {}
        self._lock = threading.RLock()

    # -- registration ---------------------------------------------------------
    def register(self, benefactor_id: str, address: str, free_space: int,
                 used_space: int, chunk_count: int, now: float) -> BenefactorRecord:
        """Create or refresh a benefactor record (registration is idempotent)."""
        with self._lock:
            record = self._records.get(benefactor_id)
            if record is None:
                record = BenefactorRecord(
                    benefactor_id=benefactor_id,
                    address=address,
                    registered_at=now,
                )
                self._records[benefactor_id] = record
            record.address = address
            record.free_space = free_space
            record.used_space = used_space
            record.chunk_count = chunk_count
            record.last_heartbeat = now
            record.online = True
            record.heartbeats += 1
            return record

    def heartbeat(self, benefactor_id: str, free_space: int, used_space: int,
                  chunk_count: int, now: float) -> BenefactorRecord:
        """Refresh liveness and space for an already-registered benefactor."""
        with self._lock:
            record = self.get(benefactor_id)
            record.free_space = free_space
            record.used_space = used_space
            record.chunk_count = chunk_count
            record.last_heartbeat = now
            record.online = True
            record.heartbeats += 1
            return record

    def note_reconciled(self, benefactor_id: str, digest: str) -> None:
        """Record that ``benefactor_id`` reconciled an inventory with ``digest``.

        The digest is computed by the *manager* from the reported inventory,
        so the registry never trusts a benefactor's self-reported summary to
        match the ids it actually sent.  Clears ``repair_pending``: the
        reconcile answer carried whatever repair work was waiting.
        """
        with self._lock:
            record = self._records.get(benefactor_id)
            if record is not None:
                record.reconciled_digest = digest
                record.repair_pending = False

    def note_missing(self, benefactor_id: str, missing: Set[str]) -> FrozenSet[str]:
        """Remember what this inventory lacked; return what the last one did."""
        with self._lock:
            record = self._records.get(benefactor_id)
            if record is None:
                return frozenset()
            previous, record.missing = record.missing, frozenset(missing)
            return previous

    def set_repair_pending(self, benefactor_id: str) -> None:
        with self._lock:
            record = self._records.get(benefactor_id)
            if record is not None:
                record.repair_pending = True

    def needs_reconcile(self, benefactor_id: str, inventory_digest: str) -> bool:
        """Should this benefactor re-advertise its full inventory?"""
        with self._lock:
            record = self._records.get(benefactor_id)
            if record is None:
                return True
            if record.repair_pending:
                return True
            return inventory_digest != record.reconciled_digest

    def restore(self, benefactor_id: str, address: str,
                registered_at: float = 0.0) -> BenefactorRecord:
        """Recreate a benefactor record from durable state (recovery path).

        Liveness is soft state, so the restored node starts *offline*: it
        becomes eligible for stripes again only once it re-registers or
        heartbeats, but its address is immediately resolvable for reads.
        """
        with self._lock:
            record = self._records.get(benefactor_id)
            if record is None:
                record = BenefactorRecord(
                    benefactor_id=benefactor_id,
                    address=address,
                    registered_at=registered_at,
                    online=False,
                )
                self._records[benefactor_id] = record
            else:
                # A later journal record may carry a newer address.
                record.address = address
            return record

    def known_address(self, benefactor_id: str) -> Optional[str]:
        """Address of ``benefactor_id`` if it ever registered, else ``None``."""
        with self._lock:
            record = self._records.get(benefactor_id)
            return record.address if record is not None else None

    def mark_offline(self, benefactor_id: str) -> bool:
        """Explicitly mark a benefactor offline (e.g. a failed data call).

        True when this call changed its state (it was known and online).
        """
        with self._lock:
            record = self._records.get(benefactor_id)
            if record is None or not record.online:
                return False
            record.online = False
            return True

    def expire(self, now: float) -> List[str]:
        """Mark benefactors with stale heartbeats offline; return their ids."""
        expired: List[str] = []
        with self._lock:
            for record in self._records.values():
                if record.online and (now - record.last_heartbeat) >= self.heartbeat_timeout:
                    record.online = False
                    expired.append(record.benefactor_id)
        return expired

    # -- queries -------------------------------------------------------------------
    def get(self, benefactor_id: str) -> BenefactorRecord:
        with self._lock:
            try:
                return self._records[benefactor_id]
            except KeyError:
                raise UnknownBenefactorError(
                    f"benefactor never registered: {benefactor_id}"
                ) from None

    def address_of(self, benefactor_id: str) -> str:
        return self.get(benefactor_id).address

    def known(self) -> List[BenefactorRecord]:
        with self._lock:
            return list(self._records.values())

    def online(self) -> List[BenefactorRecord]:
        with self._lock:
            return [r for r in self._records.values() if r.online]

    def online_views(self) -> List[BenefactorView]:
        return [r.view() for r in self.online()]

    def is_online(self, benefactor_id: str) -> bool:
        with self._lock:
            record = self._records.get(benefactor_id)
            return record is not None and record.online

    def total_free_space(self) -> int:
        return sum(r.free_space for r in self.online())

    def total_contributed_space(self) -> int:
        return sum(r.free_space + r.used_space for r in self.online())

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def __contains__(self, benefactor_id: str) -> bool:
        with self._lock:
            return benefactor_id in self._records
