"""Space reservations.

stdchk cannot predict a new file's size, so clients *eagerly reserve* space
with the manager ahead of their writes; unused reservations are
asynchronously garbage collected once their lease expires (section IV.A).
A reservation exists exactly while it is outstanding: release and lease
expiry delete it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional


@dataclass
class Reservation:
    """One client's reservation of space on a set of benefactors."""

    reservation_id: str
    client_id: str
    dataset_id: str
    amount: int
    benefactors: List[str]
    created_at: float
    lease: float

    def expired(self, now: float) -> bool:
        """A reservation expires when its lease elapses."""
        return (now - self.created_at) >= self.lease


class ReservationTable:
    """Manager-side registry of outstanding space reservations."""

    def __init__(self, default_lease: float = 300.0) -> None:
        self._default_lease = default_lease
        self._reservations: Dict[str, Reservation] = {}
        self._seq = 0

    @property
    def next_id(self) -> str:
        """The id the next reservation will get (a peek; :meth:`restore`
        with that id is what consumes it)."""
        return f"rsv-{self._seq + 1}"

    def restore(self, reservation_id: str, client_id: str, dataset_id: str,
                amount: int, benefactors: List[str], created_at: float,
                lease: Optional[float] = None) -> Reservation:
        """Create a reservation from a record or a snapshot entry.

        The id counter is fast-forwarded past the restored id so freshly
        created reservations never collide with replayed ones.
        """
        reservation = Reservation(
            reservation_id=reservation_id,
            client_id=client_id,
            dataset_id=dataset_id,
            amount=amount,
            benefactors=list(benefactors),
            created_at=created_at,
            lease=self._default_lease if lease is None else lease,
        )
        self._reservations[reservation_id] = reservation
        suffix = reservation_id.rsplit("-", 1)[-1]
        if suffix.isdigit():
            self._seq = max(self._seq, int(suffix))
        return reservation

    def release(self, reservation_id: str) -> Optional[Reservation]:
        """Delete a reservation; None if its lease was collected already."""
        return self._reservations.pop(reservation_id, None)

    def outstanding(self) -> List[Reservation]:
        """Every reservation still holding space."""
        return list(self._reservations.values())

    def collect_expired(self, now: float) -> List[Reservation]:
        """Delete and return every reservation whose lease expired."""
        expired = [r for r in self._reservations.values() if r.expired(now)]
        for reservation in expired:
            del self._reservations[reservation.reservation_id]
        return expired

    def __contains__(self, reservation_id: object) -> bool:
        """Whether ``reservation_id`` is still outstanding."""
        return reservation_id in self._reservations

    def __len__(self) -> int:
        return len(self._reservations)
