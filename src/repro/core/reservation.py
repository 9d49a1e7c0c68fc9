"""Space reservations.

stdchk cannot predict a new file's size, so clients *eagerly reserve* space
with the manager ahead of their writes; unused reservations are
asynchronously garbage collected once their lease expires (section IV.A).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.exceptions import ReservationError


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
    #: Bytes the client has actually consumed against the reservation.
    consumed: int = 0
    released: bool = False

    @property
    def remaining(self) -> int:
        return max(self.amount - self.consumed, 0)

    def expired(self, now: float) -> bool:
        """A reservation expires when its lease elapses without release."""
        return not self.released and (now - self.created_at) >= self.lease

    def consume(self, amount: int) -> None:
        if amount < 0:
            raise ReservationError("cannot consume a negative amount")
        self.consumed += amount

    def release(self) -> None:
        self.released = True


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

    def _next_id(self) -> str:
        self._seq += 1
        return f"rsv-{self._seq}"

    def restore(self, reservation_id: str, client_id: str, dataset_id: str,
                amount: int, benefactors: List[str], created_at: float,
                lease: Optional[float] = None, consumed: int = 0) -> Reservation:
        """Recreate a reservation from durable state (manager recovery).

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
            consumed=consumed,
        )
        self._reservations[reservation_id] = reservation
        suffix = reservation_id.rsplit("-", 1)[-1]
        if suffix.isdigit():
            self._seq = max(self._seq, int(suffix))
        return reservation

    def reserve(
        self,
        client_id: str,
        dataset_id: str,
        amount: int,
        benefactors: List[str],
        now: float,
        lease: Optional[float] = None,
    ) -> Reservation:
        """Create a reservation and return it."""
        if amount < 0:
            raise ReservationError("reservation amount must be non-negative")
        reservation = Reservation(
            reservation_id=self._next_id(),
            client_id=client_id,
            dataset_id=dataset_id,
            amount=amount,
            benefactors=list(benefactors),
            created_at=now,
            lease=self._default_lease if lease is None else lease,
        )
        self._reservations[reservation.reservation_id] = reservation
        return reservation

    def get(self, reservation_id: str) -> Reservation:
        try:
            return self._reservations[reservation_id]
        except KeyError:
            raise ReservationError(f"unknown reservation: {reservation_id}") from None

    def consume(self, reservation_id: str, amount: int) -> Reservation:
        reservation = self.get(reservation_id)
        if reservation.released:
            raise ReservationError(f"reservation already released: {reservation_id}")
        reservation.consume(amount)
        return reservation

    def release(self, reservation_id: str) -> Reservation:
        reservation = self.get(reservation_id)
        reservation.release()
        return reservation

    def outstanding(self) -> List[Reservation]:
        """Reservations still holding space (not yet released)."""
        return [r for r in self._reservations.values() if not r.released]

    def reserved_on(self, benefactor_id: str) -> int:
        """Total unconsumed bytes currently reserved on ``benefactor_id``."""
        total = 0
        for reservation in self.outstanding():
            if benefactor_id in reservation.benefactors and reservation.benefactors:
                total += reservation.remaining // len(reservation.benefactors)
        return total

    def collect_expired(self, now: float) -> List[Reservation]:
        """Release and return every reservation whose lease expired."""
        expired = [r for r in self._reservations.values() if r.expired(now)]
        for reservation in expired:
            reservation.release()
        return expired

    def drop_released(self) -> int:
        """Forget released reservations; returns how many were dropped."""
        released = [rid for rid, r in self._reservations.items() if r.released]
        for rid in released:
            del self._reservations[rid]
        return len(released)

    def __len__(self) -> int:
        return len(self._reservations)
