"""Chunks: the unit of storage, transfer and content addressing.

stdchk fragments datasets into fixed-size chunks (1 MB by default) that are
striped round-robin over benefactors.  With incremental checkpointing
enabled, chunks are *content addressed* — named by a digest of their payload —
so that identical chunks across successive checkpoint images are stored only
once and can be shared copy-on-write between file versions (section IV.C).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.exceptions import ChunkIntegrityError
from repro.util.hashing import chunk_digest

#: A chunk identifier.  For content-addressed chunks this is the hex digest
#: of the payload; for position-addressed chunks it is an opaque unique name
#: assigned by the client proxy.
ChunkId = str


def content_chunk_id(data: bytes) -> ChunkId:
    """Derive the content-addressed identifier of a chunk payload."""
    return "sha1:" + chunk_digest(data)


def opaque_chunk_id(dataset_id: str, version: int, index: int) -> ChunkId:
    """Derive a position-addressed identifier (no dedup intent)."""
    return f"{dataset_id}:v{version}:c{index}"


def is_content_addressed(chunk_id: ChunkId) -> bool:
    """True when ``chunk_id`` was produced by :func:`content_chunk_id`."""
    return chunk_id.startswith("sha1:")


@dataclass(frozen=True)
class ChunkRef:
    """A reference to a chunk inside a chunk-map.

    ``offset`` is the byte offset of the chunk inside the logical file and
    ``length`` its payload length (the final chunk of a file may be shorter
    than the configured chunk size).
    """

    chunk_id: ChunkId
    offset: int
    length: int

    def __post_init__(self) -> None:
        if self.offset < 0:
            raise ValueError("chunk offset must be non-negative")
        if self.length < 0:
            raise ValueError("chunk length must be non-negative")

    @property
    def end(self) -> int:
        """Byte offset one past the last byte covered by this chunk."""
        return self.offset + self.length


@dataclass
class Chunk:
    """A chunk payload together with its identifier.

    The payload is immutable by convention: once a chunk is created its bytes
    must not change, because benefactors and the manager identify it solely by
    ``chunk_id``.  On the write path it may be a read-only ``memoryview`` of
    the application's ``bytes`` (no copy is made to cut a chunk); hashing,
    ``len`` and the transports accept either.
    """

    chunk_id: ChunkId
    data: bytes

    @classmethod
    def from_data(cls, data: bytes, content_addressed: bool = True,
                  fallback_id: Optional[ChunkId] = None) -> "Chunk":
        """Build a chunk from raw bytes.

        When ``content_addressed`` the identifier is derived from the payload;
        otherwise ``fallback_id`` must be supplied by the caller.
        """
        if content_addressed:
            return cls(chunk_id=content_chunk_id(data), data=data)
        if fallback_id is None:
            raise ValueError("fallback_id required for position-addressed chunks")
        return cls(chunk_id=fallback_id, data=data)

    @property
    def size(self) -> int:
        """Payload length in bytes."""
        return len(self.data)

    def verify(self) -> None:
        """Check payload integrity for content-addressed chunks.

        Content addressing doubles as an integrity check: a faulty or
        malicious benefactor returning tampered bytes is detected here.
        Raises :class:`ChunkIntegrityError` on mismatch; position-addressed
        chunks are accepted as-is.
        """
        if is_content_addressed(self.chunk_id):
            expected = content_chunk_id(self.data)
            if expected != self.chunk_id:
                raise ChunkIntegrityError(
                    f"chunk {self.chunk_id} failed integrity check "
                    f"(payload hashes to {expected})"
                )


def split_into_chunks(data: bytes, chunk_size: int,
                      content_addressed: bool = True,
                      dataset_id: str = "", version: int = 0,
                      base_index: int = 0, base_offset: int = 0) -> list[tuple[Chunk, ChunkRef]]:
    """Split ``data`` into ``chunk_size``-byte chunks with their references.

    Returns a list of ``(Chunk, ChunkRef)`` pairs.  ``base_index`` and
    ``base_offset`` let callers split a stream incrementally (e.g. the
    sliding-window protocol flushing one buffer at a time) while keeping
    chunk indices and file offsets consistent.
    """
    if chunk_size <= 0:
        raise ValueError("chunk_size must be positive")
    pairs: list[tuple[Chunk, ChunkRef]] = []
    position = 0
    index = base_index
    while position < len(data):
        payload = data[position:position + chunk_size]
        if content_addressed:
            chunk = Chunk.from_data(payload, content_addressed=True)
        else:
            chunk = Chunk.from_data(
                payload,
                content_addressed=False,
                fallback_id=opaque_chunk_id(dataset_id, version, index),
            )
        ref = ChunkRef(chunk_id=chunk.chunk_id,
                       offset=base_offset + position,
                       length=len(payload))
        pairs.append((chunk, ref))
        position += chunk_size
        index += 1
    return pairs
