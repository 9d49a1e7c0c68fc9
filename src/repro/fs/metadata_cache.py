"""Metadata cache for the FS facade.

The paper's user-space file system "caches metadata information so that most
system readdir and getattr system calls can be answered without contacting
the manager" (section IV.E).  This is a small TTL cache keyed by path and
call kind, invalidated on writes that change the namespace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.util.clock import Clock, SystemClock


@dataclass
class _CacheEntry:
    value: Any
    cached_at: float


class MetadataCache:
    """TTL cache for ``stat``/``listdir`` answers.

    The FS facade keeps the default ``ttl``: no deployment has needed
    another, so it is not a ``StdchkConfig`` option.
    """

    def __init__(self, ttl: float = 2.0, clock: Optional[Clock] = None) -> None:
        if ttl < 0:
            raise ValueError("ttl must be non-negative")
        self.ttl = ttl
        self.clock = clock if clock is not None else SystemClock()
        self._entries: Dict[Tuple[str, str], _CacheEntry] = {}
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def get(self, kind: str, path: str) -> Tuple[bool, Any]:
        """Return ``(hit, value)`` for the cached answer of ``kind`` at ``path``."""
        if self.ttl == 0:
            self.misses += 1
            return False, None
        entry = self._entries.get((kind, path))
        if entry is None:
            self.misses += 1
            return False, None
        if (self.clock.now() - entry.cached_at) > self.ttl:
            del self._entries[(kind, path)]
            self.misses += 1
            return False, None
        self.hits += 1
        return True, entry.value

    def put(self, kind: str, path: str, value: Any) -> None:
        if self.ttl == 0:
            return
        self._entries[(kind, path)] = _CacheEntry(value=value, cached_at=self.clock.now())

    def invalidate(self, path: Optional[str] = None) -> None:
        """Drop cached answers for ``path`` (and its parent), or everything."""
        if path is None:
            self._entries.clear()
            self.invalidations += 1
            return
        parent = path.rsplit("/", 1)[0] or "/"
        stale = [
            key for key in self._entries
            if key[1] == path or key[1] == parent
        ]
        for key in stale:
            del self._entries[key]
        self.invalidations += 1

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        if total == 0:
            return 0.0
        return self.hits / total

    def __len__(self) -> int:
        return len(self._entries)
