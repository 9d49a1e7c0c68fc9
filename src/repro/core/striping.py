"""Striping: how chunks are spread over benefactors.

The paper uses round-robin striping over a configurable *stripe width* of
benefactors, inherited from the FreeLoader work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Set

from repro.exceptions import NoBenefactorsAvailableError

BenefactorId = str


@dataclass
class BenefactorView:
    """The allocator's view of one candidate benefactor."""

    benefactor_id: BenefactorId
    free_space: int
    online: bool = True


@dataclass
class StripeAllocation:
    """Result of selecting a stripe width of benefactors for a write."""

    benefactors: List[BenefactorId]

    @property
    def width(self) -> int:
        return len(self.benefactors)

    def target_for(self, chunk_index: int) -> BenefactorId:
        """Round-robin assignment of chunk ``chunk_index`` to a benefactor."""
        if not self.benefactors:
            raise NoBenefactorsAvailableError("empty stripe allocation")
        return self.benefactors[chunk_index % len(self.benefactors)]

    def __iter__(self):
        return iter(self.benefactors)

    def __len__(self) -> int:
        return len(self.benefactors)


def _eligible(
    candidates: Sequence[BenefactorView],
    exclude: Optional[Set[BenefactorId]],
    required_space: int,
    stripe_width: int,
) -> List[BenefactorView]:
    excluded = exclude or set()
    per_node_space = required_space // max(stripe_width, 1)
    eligible = [
        c for c in candidates
        if c.online and c.benefactor_id not in excluded and c.free_space >= per_node_space
    ]
    if not eligible:
        raise NoBenefactorsAvailableError(
            "no online benefactor satisfies the stripe allocation request"
        )
    return eligible


class RoundRobinStriping:
    """The paper's policy: rotate through benefactors in a fixed order.

    Successive allocations start from where the previous one left off so the
    load spreads across the whole pool even when every write uses a stripe
    narrower than the pool size.
    """

    def __init__(self) -> None:
        self._cursor = 0

    def select(
        self,
        candidates: Sequence[BenefactorView],
        stripe_width: int,
        exclude: Optional[Set[BenefactorId]] = None,
        required_space: int = 0,
    ) -> StripeAllocation:
        """Pick up to ``stripe_width`` benefactors from ``candidates``.

        ``exclude`` removes benefactors that must not be selected (e.g. the
        nodes already holding the primary copy when picking replica targets).
        ``required_space`` filters out benefactors that could not hold an even
        share of the data.  Raises
        :class:`~repro.exceptions.NoBenefactorsAvailableError` when no
        eligible candidate remains.
        """
        eligible = _eligible(candidates, exclude, required_space, stripe_width)
        ordered = sorted(eligible, key=lambda c: c.benefactor_id)
        width = min(stripe_width, len(ordered))
        start = self._cursor % len(ordered)
        selected = [ordered[(start + i) % len(ordered)].benefactor_id for i in range(width)]
        self._cursor = (start + width) % len(ordered)
        return StripeAllocation(benefactors=selected)
