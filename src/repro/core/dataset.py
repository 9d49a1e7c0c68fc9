"""Dataset (file) metadata and version history.

A *dataset* is one logical file in the stdchk namespace.  Checkpoint images
from the same application are organized as successive *versions* of a
dataset, which is what enables copy-on-write sharing of identical chunks
across versions (incremental checkpointing) and the retention policies of
section IV.D.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.chunk_map import ChunkMap

#: Monotonically increasing version number within a dataset.
VersionId = int


@dataclass
class DatasetVersion:
    """One committed version of a dataset."""

    version: VersionId
    chunk_map: ChunkMap
    size: int
    created_at: float
    #: Name of the node/process that produced this version (``Ni`` in A.Ni.Tj).
    producer: str = ""
    #: Application timestep this version corresponds to (``Tj`` in A.Ni.Tj).
    timestep: Optional[int] = None
    #: Free-form user metadata attached at commit time.
    attributes: Dict[str, str] = field(default_factory=dict)
    #: Versions flagged obsolete are retained until pruned.
    obsolete: bool = False
    #: The write session that committed this version; a retried commit of
    #: that session is answered from here once the session is gone.
    session_id: str = ""

    @property
    def chunk_count(self) -> int:
        return len(self.chunk_map)


class DatasetMetadata:
    """Metadata the manager keeps for one dataset: its version chain."""

    def __init__(self, dataset_id: str, name: str, folder: str = "/") -> None:
        self.dataset_id = dataset_id
        self.name = name
        self.folder = folder
        self._versions: Dict[VersionId, DatasetVersion] = {}
        self._next_version = 1

    # -- version management -------------------------------------------------
    @property
    def next_version(self) -> VersionId:
        """The number the next allocated version will get (a peek)."""
        return self._next_version

    def allocate_version(self) -> VersionId:
        """Reserve the next version number for an in-flight write session."""
        version = self._next_version
        self._next_version += 1
        return version

    def note_version_allocated(self, version: VersionId) -> None:
        """Fast-forward the version counter past a replayed allocation, so a
        recovered dataset never re-issues a version number (manager recovery)."""
        self._next_version = max(self._next_version, version + 1)

    def commit_version(self, version: DatasetVersion) -> None:
        """Record a committed version.  Re-commits of the same number are
        rejected by the manager before reaching this point."""
        if version.version in self._versions:
            raise ValueError(
                f"version {version.version} of dataset {self.name} already committed"
            )
        self._versions[version.version] = version

    def remove_version(self, version: VersionId) -> DatasetVersion:
        """Forget a version (pruning); returns the removed record."""
        return self._versions.pop(version)

    # -- queries --------------------------------------------------------------
    @property
    def versions(self) -> List[DatasetVersion]:
        """All committed versions, oldest first."""
        return [self._versions[v] for v in sorted(self._versions)]

    @property
    def version_numbers(self) -> List[VersionId]:
        return sorted(self._versions)

    @property
    def latest(self) -> Optional[DatasetVersion]:
        """Most recently committed version, or None for an empty dataset."""
        if not self._versions:
            return None
        return self._versions[max(self._versions)]

    def get_version(self, version: Optional[VersionId] = None) -> DatasetVersion:
        """Fetch a specific version (default: the latest)."""
        if version is None:
            latest = self.latest
            if latest is None:
                raise KeyError(f"dataset {self.name} has no committed versions")
            return latest
        try:
            return self._versions[version]
        except KeyError:
            raise KeyError(
                f"dataset {self.name} has no version {version}"
            ) from None

    def has_version(self, version: VersionId) -> bool:
        return version in self._versions

    @property
    def size(self) -> int:
        """Size of the latest version (0 when empty)."""
        latest = self.latest
        return latest.size if latest is not None else 0

    @property
    def total_stored_size(self) -> int:
        """Sum of the logical sizes of every retained version."""
        return sum(v.size for v in self._versions.values())

    def live_chunk_ids(self) -> set:
        """Chunk ids referenced by any retained version (GC liveness set)."""
        live = set()
        for version in self._versions.values():
            live.update(version.chunk_map.chunk_ids)
        return live

    def __len__(self) -> int:
        return len(self._versions)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DatasetMetadata(name={self.name!r}, folder={self.folder!r}, "
            f"versions={sorted(self._versions)})"
        )
