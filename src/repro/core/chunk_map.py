"""Chunk-maps: where every chunk of a dataset version lives.

The chunk-map is the central metadata object of stdchk.  The client builds it
while writing, and commits it atomically to the manager at ``close()`` time
(session semantics).  Replicas created afterwards (section IV.A, "Data
replication") are folded in placement by placement as the copying benefactors
report them.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional, Sequence, Set

from repro.core.chunk import ChunkId, ChunkRef

#: Identifier of a benefactor node in placement lists.
BenefactorId = str


@dataclass
class ChunkPlacement:
    """A chunk reference plus the benefactors currently holding it."""

    ref: ChunkRef
    benefactors: List[BenefactorId] = field(default_factory=list)

    @property
    def chunk_id(self) -> ChunkId:
        return self.ref.chunk_id

    @property
    def replica_count(self) -> int:
        return len(self.benefactors)

    def add_replica(self, benefactor: BenefactorId) -> None:
        """Record a replica location, ignoring duplicates."""
        if benefactor not in self.benefactors:
            self.benefactors.append(benefactor)

    def remove_replica(self, benefactor: BenefactorId) -> None:
        """Drop a replica location if present (benefactor left the pool)."""
        if benefactor in self.benefactors:
            self.benefactors.remove(benefactor)

    def copy(self) -> "ChunkPlacement":
        return ChunkPlacement(ref=self.ref, benefactors=list(self.benefactors))


class ChunkMap:
    """Ordered placement of every chunk of one dataset version.

    Chunks are kept sorted by file offset, covering the file contiguously.
    The map supports the copy-on-write versioning the paper describes: a new
    version's map may reference chunks already present in the previous
    version (identified by content address), so only new chunks need to be
    pushed to benefactors.
    """

    def __init__(self, placements: Optional[Iterable[ChunkPlacement]] = None) -> None:
        self._placements: List[ChunkPlacement] = list(placements or [])
        self._sort()

    def _sort(self) -> None:
        self._placements.sort(key=lambda p: p.ref.offset)
        self._starts = [p.ref.offset for p in self._placements]

    # -- construction -----------------------------------------------------
    def append(self, ref: ChunkRef, benefactors: Sequence[BenefactorId] = ()) -> ChunkPlacement:
        """Append a chunk placement (keeps offset ordering)."""
        placement = ChunkPlacement(ref=ref, benefactors=list(benefactors))
        self._placements.append(placement)
        self._sort()
        return placement

    def extend(self, placements: Iterable[ChunkPlacement]) -> None:
        self._placements.extend(placements)
        self._sort()

    # -- queries -----------------------------------------------------------
    def __len__(self) -> int:
        return len(self._placements)

    def __iter__(self) -> Iterator[ChunkPlacement]:
        return iter(self._placements)

    def __bool__(self) -> bool:
        return bool(self._placements)

    @property
    def placements(self) -> List[ChunkPlacement]:
        return list(self._placements)

    @property
    def chunk_ids(self) -> List[ChunkId]:
        return [p.ref.chunk_id for p in self._placements]

    @property
    def total_size(self) -> int:
        """Logical file size covered by the map."""
        return sum(p.ref.length for p in self._placements)

    @property
    def stored_benefactors(self) -> Set[BenefactorId]:
        """Every benefactor referenced by at least one placement."""
        nodes: Set[BenefactorId] = set()
        for placement in self._placements:
            nodes.update(placement.benefactors)
        return nodes

    def placement_for(self, chunk_id: ChunkId) -> Optional[ChunkPlacement]:
        """First placement whose chunk id matches (content-addressed maps may
        legitimately contain the same chunk id at several offsets)."""
        for placement in self._placements:
            if placement.ref.chunk_id == chunk_id:
                return placement
        return None

    def placements_for(self, chunk_id: ChunkId) -> List[ChunkPlacement]:
        return [p for p in self._placements if p.ref.chunk_id == chunk_id]

    def covering_indices(self, offset: int, length: int) -> List[int]:
        """Indices (iteration order) of placements overlapping
        ``[offset, offset+length)``; O(log n + k) on offset-sorted maps."""
        if length <= 0 or not self._placements:
            return []
        end = offset + length
        first = bisect_right(self._starts, offset)
        # Step back over placements straddling ``offset`` (one, for a map
        # that tiles the file contiguously).
        while first > 0 and self._placements[first - 1].ref.end > offset:
            first -= 1
        indices: List[int] = []
        for index in range(first, len(self._placements)):
            ref = self._placements[index].ref
            if ref.offset >= end:
                break
            if ref.end > offset:
                indices.append(index)
        return indices

    def covering(self, offset: int, length: int) -> List[ChunkPlacement]:
        """Placements overlapping the byte range ``[offset, offset+length)``."""
        return [self._placements[i] for i in self.covering_indices(offset, length)]

    def is_contiguous(self) -> bool:
        """True when placements tile the file with no gaps or overlaps."""
        expected = 0
        for placement in self._placements:
            if placement.ref.offset != expected:
                return False
            expected = placement.ref.end
        return True

    def min_replication(self) -> int:
        """The smallest replica count across all placements (0 if empty)."""
        if not self._placements:
            return 0
        return min(p.replica_count for p in self._placements)

    def under_replicated(self, target: int) -> List[ChunkPlacement]:
        """Placements that have fewer than ``target`` replicas."""
        return [p for p in self._placements if p.replica_count < target]

    # -- mutation ----------------------------------------------------------
    def drop_benefactor(self, benefactor: BenefactorId) -> int:
        """Remove a departed benefactor from every placement.

        Returns the number of placements that lost a replica.
        """
        affected = 0
        for placement in self._placements:
            if benefactor in placement.benefactors:
                placement.remove_replica(benefactor)
                affected += 1
        return affected

    def copy(self) -> "ChunkMap":
        return ChunkMap(p.copy() for p in self._placements)

    # -- serialization -----------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-dict form used by the TCP transport and persistence."""
        return {
            "placements": [
                {
                    "chunk_id": p.ref.chunk_id,
                    "offset": p.ref.offset,
                    "length": p.ref.length,
                    "benefactors": list(p.benefactors),
                }
                for p in self._placements
            ]
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ChunkMap":
        placements = [
            ChunkPlacement(
                ref=ChunkRef(
                    chunk_id=entry["chunk_id"],
                    offset=entry["offset"],
                    length=entry["length"],
                ),
                benefactors=list(entry.get("benefactors", [])),
            )
            for entry in payload.get("placements", [])
        ]
        return cls(placements)
