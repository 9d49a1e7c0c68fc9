"""Chunk stores: where a benefactor keeps the chunks it hosts.

Two backends are provided.  The memory store is used by tests, examples and
benchmarks; the disk store maps each chunk to one file under the contributed
directory and is what a real deployment on scavenged desktop space would use.
Both enforce the contributed-space limit and expose the same interface.
"""

from __future__ import annotations

import os
import threading
import time
from abc import ABC, abstractmethod
from typing import Dict, List
from urllib.parse import quote, unquote

from repro.core.chunk import Chunk, ChunkId
from repro.exceptions import ChunkNotFoundError, StoreFullError
from repro.util.hashing import chunk_digest


class ChunkStore(ABC):
    """Abstract chunk container with a space budget."""

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._lock = threading.RLock()
        #: Monotonic count of successful puts/deletes.  The benefactor's
        #: inventory digest is cached against this counter, so heartbeats on
        #: an unchanged store never re-hash the full inventory.
        self._mutations = 0
        #: Bytes currently stored, kept by ``put``/``delete`` so that space
        #: accounting never walks the inventory.
        self._used_bytes = 0

    # -- interface ---------------------------------------------------------
    @abstractmethod
    def _read(self, chunk_id: ChunkId) -> bytes:
        """Return the payload of ``chunk_id`` (raises KeyError if missing)."""

    @abstractmethod
    def _write(self, chunk_id: ChunkId, data: bytes) -> None:
        """Persist ``data`` under ``chunk_id``."""

    @abstractmethod
    def _delete(self, chunk_id: ChunkId) -> int:
        """Remove ``chunk_id`` and return its size (raises KeyError if missing)."""

    @abstractmethod
    def _contains(self, chunk_id: ChunkId) -> bool:
        """True when ``chunk_id`` is stored."""

    @abstractmethod
    def _chunk_ids(self) -> List[ChunkId]:
        """Every stored chunk id."""

    # -- public API -----------------------------------------------------------
    def put(self, chunk: Chunk) -> None:
        """Store a chunk; storing an already-present chunk id is a no-op.

        Idempotence matters for content-addressed chunks: several versions of
        a checkpoint may legitimately push the same chunk id.
        """
        with self._lock:
            if self._contains(chunk.chunk_id):
                return
            if self._used_bytes + chunk.size > self.capacity:
                raise StoreFullError(
                    f"store over capacity: used={self._used_bytes}, "
                    f"incoming={chunk.size}, capacity={self.capacity}"
                )
            self._write(chunk.chunk_id, chunk.data)
            self._used_bytes += chunk.size
            self._mutations += 1

    def _read_stored(self, chunk_id: ChunkId) -> bytes:
        """Payload of a stored chunk, read *outside* the store lock.

        Only the membership check holds the lock: a disk read (or a hash of
        what it returns) under it would park every other ``put``/``get`` on
        this benefactor for its duration.  A chunk deleted between the check
        and the read is simply not stored here any more.
        """
        with self._lock:
            present = self._contains(chunk_id)
        if present:
            try:
                return self._read(chunk_id)
            except (KeyError, FileNotFoundError):
                pass
        raise ChunkNotFoundError(f"chunk not stored here: {chunk_id}")

    def get(self, chunk_id: ChunkId) -> Chunk:
        return Chunk(chunk_id=chunk_id, data=self._read_stored(chunk_id))

    def delete(self, chunk_id: ChunkId) -> bool:
        """Delete a chunk; returns False when it was not present."""
        with self._lock:
            if not self._contains(chunk_id):
                return False
            self._used_bytes -= self._delete(chunk_id)
            self._mutations += 1
            return True

    def contains(self, chunk_id: ChunkId) -> bool:
        with self._lock:
            return self._contains(chunk_id)

    def chunk_ids(self) -> List[ChunkId]:
        with self._lock:
            return list(self._chunk_ids())

    @property
    def used_space(self) -> int:
        return self._used_bytes

    @property
    def free_space(self) -> int:
        return max(self.capacity - self._used_bytes, 0)

    @property
    def chunk_count(self) -> int:
        with self._lock:
            return len(self._chunk_ids())

    @property
    def mutation_count(self) -> int:
        """Successful puts + deletes since construction (digest-cache key)."""
        with self._lock:
            return self._mutations

    def checksum(self, chunk_id: ChunkId) -> str:
        """Hex payload digest of one stored chunk (anti-entropy probe)."""
        return chunk_digest(self._read_stored(chunk_id))

    def checksums(self) -> Dict[ChunkId, str]:
        """``chunk_id -> hex payload digest`` for the whole inventory.

        This is what a benefactor ships to a peer during an anti-entropy
        comparison: for content-addressed chunks the digest doubles as an
        integrity proof (the id embeds the expected value), for
        position-addressed chunks it at least detects divergence.  The ids
        are a snapshot; a chunk deleted while the round is hashing is left
        out, as if the snapshot had been taken a moment later.
        """
        digests: Dict[ChunkId, str] = {}
        for chunk_id in self.chunk_ids():
            try:
                digests[chunk_id] = self.checksum(chunk_id)
            except ChunkNotFoundError:
                continue
        return digests


class MemoryChunkStore(ChunkStore):
    """Chunks held in a dictionary; fast and hermetic for tests."""

    def __init__(self, capacity: int) -> None:
        super().__init__(capacity)
        self._chunks: Dict[ChunkId, bytes] = {}

    def _read(self, chunk_id: ChunkId) -> bytes:
        return self._chunks[chunk_id]

    def _write(self, chunk_id: ChunkId, data: bytes) -> None:
        # The store owns what it keeps: a view handed over by the in-process
        # transport would pin the writer's whole image.  No-op for ``bytes``.
        self._chunks[chunk_id] = bytes(data)

    def _delete(self, chunk_id: ChunkId) -> int:
        return len(self._chunks.pop(chunk_id))

    def _contains(self, chunk_id: ChunkId) -> bool:
        return chunk_id in self._chunks

    def _chunk_ids(self) -> List[ChunkId]:
        return list(self._chunks)


class DelayedChunkStore(MemoryChunkStore):
    """A memory store with a fixed per-operation service delay.

    Models the device time of a real scavenged disk (or a WAN hop) so that
    throughput tests and the parallel-push benchmarks see realistic latency
    on an otherwise hermetic in-memory deployment.  The delay is served
    *outside* the store lock: a real disk services independent requests
    concurrently, and holding the lock would serialize the parallel data
    path this store exists to exercise.
    """

    def __init__(self, capacity: int, put_delay: float = 0.0,
                 get_delay: float = 0.0) -> None:
        super().__init__(capacity)
        self.put_delay = put_delay
        self.get_delay = get_delay

    def put(self, chunk: Chunk) -> None:
        if self.put_delay > 0:
            time.sleep(self.put_delay)
        super().put(chunk)

    def get(self, chunk_id: ChunkId) -> Chunk:
        if self.get_delay > 0:
            time.sleep(self.get_delay)
        return super().get(chunk_id)


class DiskChunkStore(ChunkStore):
    """Chunks stored as individual files under a contributed directory.

    Chunk ids are percent-encoded into file names so the mapping is
    *reversible*: a restarted store rebuilds its exact chunk inventory from
    the contributed directory alone, which is what lets benefactors
    re-advertise their holdings after a crash.  Content-addressed ids
    (``sha1:<hex>``) and position-addressed ids (``ds-1:v2:c3``) both
    round-trip.  A small index of sizes avoids stat-ing every file to answer
    space queries.
    """

    def __init__(self, root: str, capacity: int) -> None:
        super().__init__(capacity)
        self.root = root
        os.makedirs(root, exist_ok=True)
        self._sizes: Dict[ChunkId, int] = {}
        self._load_existing()

    def _path(self, chunk_id: ChunkId) -> str:
        # ``_`` is escaped on top of percent-encoding so the encoder never
        # emits it: any ``_`` in an on-disk name therefore marks a legacy
        # (pre-reversible-encoding) file, which keeps decoding unambiguous
        # even for ids that literally start with ``sha1_`` or contain ``%``.
        # ``.`` is escaped too, so no chunk is named ``.``, ``..`` or like a
        # torn write's ``.tmp``.
        if not chunk_id:
            raise ValueError("empty chunk id")
        encoded = quote(chunk_id, safe="").replace("_", "%5F").replace(".", "%2E")
        return os.path.join(self.root, encoded)

    @staticmethod
    def _decode_name(name: str) -> ChunkId:
        if "_" in name:
            # Legacy layout: the first ``_`` stood for the ``:`` separator of
            # a content-addressed id.
            if name.startswith("sha1_"):
                return name.replace("_", ":", 1)
            return name
        return unquote(name)

    def _load_existing(self) -> None:
        """Rebuild the chunk index from files already on disk (restart path).

        Stale ``.tmp`` files are leftovers of writes torn by a crash and are
        discarded; every other file is a chunk whose id is decoded from its
        file name.
        """
        for name in os.listdir(self.root):
            path = os.path.join(self.root, name)
            if not os.path.isfile(path):
                continue
            if name.endswith(".tmp"):
                os.remove(path)
                continue
            chunk_id = self._decode_name(name)
            encoded = self._path(chunk_id)
            if encoded != path:
                # Migrate a legacy file name to the reversible encoding.
                os.replace(path, encoded)
            self._sizes[chunk_id] = os.path.getsize(encoded)
        self._used_bytes = sum(self._sizes.values())

    def _read(self, chunk_id: ChunkId) -> bytes:
        with open(self._path(chunk_id), "rb") as handle:
            return handle.read()

    def _write(self, chunk_id: ChunkId, data: bytes) -> None:
        path = self._path(chunk_id)
        temporary = path + ".tmp"
        with open(temporary, "wb") as handle:
            handle.write(data)
        os.replace(temporary, path)
        self._sizes[chunk_id] = len(data)

    def _delete(self, chunk_id: ChunkId) -> int:
        os.remove(self._path(chunk_id))
        return self._sizes.pop(chunk_id)

    def _contains(self, chunk_id: ChunkId) -> bool:
        return chunk_id in self._sizes

    def _chunk_ids(self) -> List[ChunkId]:
        return list(self._sizes)
