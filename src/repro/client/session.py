"""Chunk pushing: the shared data path under every write protocol.

The :class:`ChunkPusher` turns a byte stream into chunks, decides which
benefactor receives each chunk (round-robin over the session's stripe),
enforces the write semantics (pessimistic writes push every replica before
returning, optimistic writes push one copy and leave the rest to background
replication), skips chunks that incremental checkpointing proves are already
stored, handles benefactor failures by refreshing the stripe through the
manager, and accumulates the chunk-map that will be committed at close time.

The chunk is the unit of striping and addressing, not of transfer.  Chunks
are planned into *frames*: the chunks bound for one benefactor, at most
:data:`~repro.transport.tcp.TRANSFER_UNIT` of payload, one ``put_chunks`` RPC
per frame.  Placement is what it is chunk by chunk (chunk *i*, replica *r*
goes to ``stripe[(i + r) % width]``).  A benefactor's open frame outlives the
``feed`` that opened it, so a file frames alike however it is cut into
``write()`` calls.  A frame leaves when it cannot take another whole chunk
within the transfer unit (at once for a chunk that large, so hashing the next
chunk overlaps its push), at ``finish``, at :meth:`ChunkPusher.send_frames`
(an IW spool rotating), or as the fullest open frame when the writer would
exceed its byte budget.  A frame has no failure handling of its own: its
chunks go through the per-chunk path one by one (rotation through the
stripe, failure reports, stripe refresh), each replica a frame of one.

Pipelining (section IV.B): with ``push_parallelism > 1`` frames go to the
worker pool of the :class:`~repro.client.proxy.ClientProxy` that opened the
session, so chunk production (spooling, hashing) overlaps propagation to
several benefactors.  The paper's sliding window is this frame buffer: open,
queued and in-flight frames hold at most ``2 * push_parallelism *
TRANSFER_UNIT`` bytes (plus one partial chunk).  A chunk that would exceed it
sends the fullest open frame while fewer than ``push_parallelism`` frames are
on their way, else waits for one to land.  The pusher owns its futures, never
the pool: it starts, joins and shuts down no thread.  The frames holding the
chunk ``finish`` flushes are pushed by the caller, which would block on them
at once anyway, after the other frames went to the pool.  With
``push_parallelism == 1``, or without an executor, every frame is sent on the
caller, one RPC at a time.

Chunking copies nothing: a complete chunk is a ``memoryview`` slice of the
``bytes`` the application wrote, handed as such to the transport (which sends
it out-of-band, see :mod:`repro.transport.tcp`); only the sub-chunk head and
tail of a ``feed`` pass through a buffer.

Compare, then hash (section IV.C): under FsCH a sliding-window session is
handed the *previous image*, the chunks of the last image its client
committed content addressed, as ``(buffer, offset, length, chunk_id)`` per
chunk index.  Chunk *i* whose bytes equal chunk *i* of that image (one
``bytes.startswith``, a ``memcmp``) takes its id; any other chunk is hashed.
An id is reused only for bytes equal to bytes that hashed to it, so naming is
exact whatever the path, offset or chunk size of that image.  The session
records a chunk in its own image only when it is a view of the application's
``bytes``; a chunk in a buffer the session made (the pending buffer, the copy
of a mutable input) is recorded as ``None``, so no image keeps the client's
own copies alive.  A committed session's image replaces the previous one
(:meth:`ChunkPusher.take_image`).  So between checkpoints a client holds the
application ``bytes`` its last such image was cut from; while a session is
open, also the ``bytes`` written to it so far.  The client's readers verify a
fetched chunk by the same comparison (:func:`same_bytes`) against the last
image's chunk of its id (:mod:`repro.client.read_path`).
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Executor, Future
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.chunk import Chunk, ChunkRef, content_chunk_id, opaque_chunk_id
from repro.core.chunk_map import ChunkMap
from repro.exceptions import (
    BenefactorOfflineError,
    EndpointUnreachableError,
    StdchkError,
    StoreFullError,
    WriteFailedError,
)
from repro.obs import MetricsRegistry, tracing
from repro.transport.base import Transport
from repro.transport.tcp import TRANSFER_UNIT
from repro.util.config import SimilarityHeuristic, StdchkConfig, WriteSemantics

#: One chunk of a content-addressed image: ``buffer[offset:offset + length]``
#: are bytes that hashed to ``chunk_id``; ``buffer`` is the application's
#: immutable ``bytes``.
ImageChunk = Tuple[bytes, int, int, str]
#: An image by chunk index; ``None`` where the chunk is not kept.
Image = Sequence[Optional[ImageChunk]]


def same_bytes(entry: ImageChunk, payload: "bytes | memoryview") -> bool:
    """Whether ``payload`` equals the bytes ``entry`` keeps.

    One ``memcmp`` instead of a SHA-1 (``bytes.startswith``; comparing
    memoryviews with ``==`` goes element by element, slower than hashing).
    """
    buffer, offset, length, _ = entry
    return length == len(payload) and buffer.startswith(payload, offset, offset + length)


@dataclass
class WriteStats:
    """Per-session accounting used by benchmarks (network effort, dedup)."""

    bytes_written: int = 0
    bytes_pushed: int = 0
    bytes_deduplicated: int = 0
    chunks_pushed: int = 0
    chunks_deduplicated: int = 0
    push_failures: int = 0
    stripe_refreshes: int = 0
    ack_batches: int = 0

    @property
    def network_effort(self) -> int:
        """Bytes actually sent to benefactors (replicas included)."""
        return self.bytes_pushed

    @property
    def dedup_ratio(self) -> float:
        """Fraction of written bytes that never had to be pushed."""
        if self.bytes_written == 0:
            return 0.0
        return self.bytes_deduplicated / self.bytes_written


@dataclass
class _PendingChunk:
    """One chunk of a frame plan on its way to its replicas."""

    chunk: Chunk
    index: int
    ref: ChunkRef
    #: Benefactor per replica: its planned target until that replica is
    #: stored, then whoever took it.  The per-chunk path skips the other
    #: replicas' entries, so two replicas never land on one node even while
    #: their frames are in flight on different workers.
    holders: List[str]
    #: Replicas not stored yet; the chunk is placed when it reaches zero.
    missing: int
    #: Later slots with the same content, planned before this one was
    #: placed: referenced, not pushed.
    duplicates: List[Tuple[int, ChunkRef]] = field(default_factory=list)


@dataclass
class _Frame:
    """The replicas one RPC carries to one benefactor."""

    entry: Dict[str, str]
    items: List[Tuple[_PendingChunk, int]] = field(default_factory=list)
    size: int = 0


class ChunkPusher:
    """Pushes chunks of one write session to its stripe of benefactors.

    Its frames hold at most ``2 * push_parallelism * TRANSFER_UNIT`` bytes.
    Handed a ``previous_image`` under FsCH, it also keeps, until the
    client's next content-addressed commit, the application ``bytes`` that
    whole chunks were cut from; the client keeps the previous image too
    until then (see the module docstring).
    """

    def __init__(
        self,
        transport: Transport,
        manager_address: str,
        session_info: Dict[str, object],
        config: StdchkConfig,
        existing_chunks: Optional[Dict[str, List[str]]] = None,
        max_stripe_refreshes: int = 3,
        metrics: Optional[MetricsRegistry] = None,
        executor: Optional[Executor] = None,
        previous_image: Optional[Image] = None,
    ) -> None:
        self.transport = transport
        self.manager_address = manager_address
        self.session_id: str = session_info["session_id"]  # type: ignore[assignment]
        self.dataset_id: str = session_info["dataset_id"]  # type: ignore[assignment]
        self.version: int = session_info["version"]  # type: ignore[assignment]
        self.chunk_size: int = session_info.get("chunk_size", config.chunk_size)  # type: ignore[assignment]
        self.replication_level: int = session_info.get(  # type: ignore[assignment]
            "replication_level", config.replication_level
        )
        self.config = config
        self.max_stripe_refreshes = max_stripe_refreshes
        #: Replicas pushed before a chunk counts as placed; the rest, under
        #: optimistic semantics, is the healer's.
        self._copies_at_write_time = (
            self.replication_level
            if config.write_semantics is WriteSemantics.PESSIMISTIC else 1
        )

        self._stripe: List[Dict[str, str]] = list(session_info["stripe"])  # type: ignore[arg-type]
        self._stripe_generation = 0
        self._content_addressed = config.similarity_heuristic is not SimilarityHeuristic.NONE
        #: chunk id -> benefactors known to hold it (previous version + this session).
        self._known_chunks: Dict[str, List[str]] = dict(existing_chunks or {})
        #: The client's last committed image, compared chunk by chunk until
        #: ``finish``, and this session's own; a session handed none (FsCH
        #: off, or a spooling protocol) keeps and compares nothing.
        keeps_image = self._content_addressed and previous_image is not None
        self._previous: Image = previous_image if keeps_image else ()
        self._image: Optional[List[Optional[ImageChunk]]] = [] if keeps_image else None
        self.chunk_map = ChunkMap()
        self.stats = WriteStats()
        self._next_chunk_index = 0
        self._next_offset = 0
        self._pending = bytearray()

        #: Guards stripe, stats, known chunks, results and the ack buffer.
        self._lock = threading.Lock()
        #: Serializes stripe refreshes so concurrent workers that observed
        #: the same dead stripe trigger exactly one extend_stripe RPC.
        self._refresh_lock = threading.Lock()
        #: index -> (ref, holders); the chunk-map is assembled at finish time
        #: so out-of-order parallel completions cannot scramble it.
        self._results: Dict[int, Tuple[ChunkRef, List[str]]] = {}
        self._failure: Optional[BaseException] = None
        self._ack_buffer: List[Dict[str, object]] = []

        #: Trace context active when the session opened; push workers do not
        #: inherit thread-local state, so they re-activate it explicitly and
        #: their RPC spans stay inside the write's trace.
        self._trace_ctx = tracing.current_context()
        if metrics is not None:
            self._push_timer = metrics.histogram(
                "client_push_chunk_seconds",
                "Latency of one push frame (one benefactor's chunks) incl. retries.",
                window=True,
            )
        else:
            self._push_timer = None

        self.parallelism = max(1, config.push_parallelism)
        #: The client's shared worker pool, or None for the synchronous path.
        #: Borrowed: the pusher tracks the futures it submitted and nothing
        #: else of the pool.
        self._executor: Optional[Executor] = executor if self.parallelism > 1 else None
        self._futures: List[Future] = []
        #: benefactor id -> its frame still taking chunks (writer thread only).
        self._open: Dict[str, _Frame] = {}
        #: chunk id -> its first occurrence, from planning until it is placed.
        self._planned: Dict[str, _PendingChunk] = {}
        #: Bytes of open, queued and in-flight frames, within ``_budget``, and
        #: how many frames are queued or in flight; ``_landed`` is told when
        #: one settles.
        self._budget = 2 * self.parallelism * TRANSFER_UNIT
        self._held = 0
        self._sending = 0
        self._landed = threading.Condition(self._lock)

    # -- public stream interface ---------------------------------------------
    @property
    def bytes_buffered(self) -> int:
        return len(self._pending)

    @property
    def total_size(self) -> int:
        """Logical bytes accepted so far (buffered + pushed)."""
        return self.stats.bytes_written

    def feed(self, data: bytes) -> None:
        """Accept application bytes; plan every complete chunk into frames.

        Complete chunks are cut as views of ``data``, never copied; only
        a sub-chunk head (topping up a partial chunk left by the previous
        call) and tail pass through the pending buffer.  Frames outlive the
        call, so pushes are still pending when this returns, and under FsCH
        the session's image keeps referencing ``data`` until the client's
        next content-addressed commit replaces it.  So a view is taken of
        immutable ``bytes`` only, and any other buffer (``bytearray``,
        ``mmap``, a writable view) is copied once up front, which also leaves
        the caller free to mutate or resize it; that copy is the session's
        own, and no image keeps it.
        """
        kept = type(data) is bytes
        if not kept:
            data = bytes(data)
        size = len(data)
        self.stats.bytes_written += size
        view = memoryview(data)
        position = 0
        if self._pending:
            position = min(self.chunk_size - len(self._pending), size)
            self._pending += view[:position]
            if len(self._pending) == self.chunk_size:
                self._add_chunk(self._take_pending())
        while size - position >= self.chunk_size:
            self._add_chunk(view[position:position + self.chunk_size],
                            data if kept else None, position)
            position += self.chunk_size
        if position < size:
            self._pending += view[position:]

    def _take_pending(self) -> bytes:
        payload = bytes(self._pending)
        self._pending.clear()
        return payload

    def send_frames(self) -> None:
        """Send every open frame, in the order their first chunks came."""
        frames, self._open = list(self._open.values()), {}
        for frame in frames:
            self._dispatch(frame)

    def finish(self) -> ChunkMap:
        """Flush the trailing chunk, send the open frames, wait for all
        pushes, and return the completed chunk-map (ordered by file offset).

        The frames holding the flushed chunk are pushed on the calling
        thread, after the others went to the pool: the next thing this
        method does is wait for them, so handing them to a worker could only
        add the hand-off to their latency.
        """
        last = []
        if self._pending:
            last = [self._open.pop(name) for name in self._plan(self._take_pending())]
        self._previous = ()
        self.send_frames()
        for frame in last:
            self._dispatch(frame, on_caller=True)
        self._drain()
        self._flush_acks()
        self._raise_if_failed()
        self.chunk_map = ChunkMap()
        for index in sorted(self._results):
            ref, holders = self._results[index]
            self.chunk_map.append(ref, benefactors=holders)
        return self.chunk_map

    def take_image(self) -> Optional[List[Optional[ImageChunk]]]:
        """This session's image, once (``None`` if it keeps none or was taken).

        The client takes it when the session's commit succeeds, to hand to
        its next content-addressed session as ``previous_image``.
        """
        image, self._image = self._image, None
        return image

    def cancel(self) -> None:
        """Abandon this session: its open frames and queued pushes are dropped.

        Pushes already running are left to finish on their own; no other
        session's work on the shared pool is touched.
        """
        self._previous = ()
        self._image = None
        self._open.clear()
        for future in self._futures:
            future.cancel()
        self._futures.clear()

    # -- frame planning ------------------------------------------------------
    def _add_chunk(self, payload: "bytes | memoryview",
                   buffer: Optional[bytes] = None, offset: int = 0) -> None:
        """Plan a complete chunk; a frame it fills leaves at once."""
        for benefactor_id in self._plan(payload, buffer, offset):
            if self._open[benefactor_id].size + self.chunk_size > TRANSFER_UNIT:
                self._dispatch(self._open.pop(benefactor_id))

    def _plan(self, payload: "bytes | memoryview",
              buffer: Optional[bytes] = None, offset: int = 0) -> List[str]:
        """Name one chunk; unless it is known, add its replicas to open frames.

        ``payload`` is ``buffer[offset:offset + len(payload)]`` when it is a
        view of the application's ``buffer``, which the image may keep; with
        no ``buffer`` the image records ``None``.  Chunk *i*,
        replica *r* goes to ``stripe[(i + r) % width]``: pessimistic writes
        place ``replication_level`` replicas (a narrow stripe cannot hold
        more distinct replicas than nodes), optimistic writes one.  Returns
        the benefactors whose frames took it.
        """
        index = self._next_chunk_index
        size = len(payload)
        if self._content_addressed:
            chunk_id = self._recall(index, payload) or content_chunk_id(payload)
            if self._image is not None:
                self._image.append(
                    None if buffer is None else (buffer, offset, size, chunk_id))
        else:
            chunk_id = opaque_chunk_id(self.dataset_id, self.version, index)
        ref = ChunkRef(chunk_id=chunk_id, offset=self._next_offset, length=size)
        self._next_chunk_index += 1
        self._next_offset += size
        if self._content_addressed:
            # Under the lock that placing a chunk takes: the first
            # occurrence is either placed (known) or will see this slot.
            with self._lock:
                known = self._known_chunks.get(chunk_id)
                if known:
                    # Incremental checkpointing: the chunk content already
                    # lives in the pool; reference it copy-on-write instead
                    # of pushing again.
                    self._record_duplicate(index, ref, known)
                    return []
                first = self._planned.get(chunk_id)
                if first is not None:
                    first.duplicates.append((index, ref))
                    return []
        stripe, generation = self._stripe_snapshot()
        if not stripe:
            self._refresh_stripe(generation)
            stripe, _ = self._stripe_snapshot()
        width = len(stripe)
        copies = max(1, min(self._copies_at_write_time, width))
        targets = [stripe[(index + replica) % width] for replica in range(copies)]
        names = [entry["benefactor_id"] for entry in targets]
        pending = _PendingChunk(Chunk(chunk_id=chunk_id, data=payload), index, ref,
                                holders=list(names), missing=copies)
        if self._content_addressed:
            with self._lock:
                self._planned[chunk_id] = pending
        self._make_room(size * copies)
        for replica, (name, entry) in enumerate(zip(names, targets)):
            frame = self._open.get(name)
            if frame is None:
                frame = self._open[name] = _Frame(entry)
            frame.items.append((pending, replica))
            frame.size += size
        return names

    def _recall(self, index: int, payload: "bytes | memoryview") -> Optional[str]:
        """Chunk ``index``'s id in the previous image, if it had these bytes."""
        entry = self._previous[index] if index < len(self._previous) else None
        if entry is not None and same_bytes(entry, payload):
            return entry[3]
        return None

    def _make_room(self, size: int) -> None:
        """Hold ``size`` more bytes of frames, within the budget.

        Over budget, the fullest open frame leaves while fewer than
        ``push_parallelism`` frames are on their way; otherwise the writer
        waits for one to land.  A writer that holds nothing takes any chunk,
        however large.
        """
        while True:
            with self._lock:
                if not self._held or self._held + size <= self._budget:
                    self._held += size
                    return
                if self._sending >= self.parallelism or not self._open:
                    self._landed.wait()
                    continue
            fullest = max(self._open, key=lambda name: self._open[name].size)
            self._dispatch(self._open.pop(fullest))

    def _record_duplicate(self, index: int, ref: ChunkRef, holders: Sequence[str]) -> None:
        """A slot whose content is stored already (call with ``_lock`` held)."""
        self._results[index] = (ref, list(holders))
        self.stats.bytes_deduplicated += ref.length
        self.stats.chunks_deduplicated += 1

    def _dispatch(self, frame: _Frame, on_caller: bool = False) -> None:
        """Send ``frame`` now, or hand it to the pool."""
        self._raise_if_failed()
        with self._lock:
            self._sending += 1
        if on_caller or self._executor is None:
            self._send(frame)
            self._raise_if_failed()
        else:
            self._futures.append(self._executor.submit(self._send, frame))

    def _send(self, frame: _Frame) -> None:
        """Send one frame and record its placements (worker entry point).

        Only issues RPCs: a task on the shared pool must never submit to the
        pool and wait, the pool may be one thread wide.
        """
        started = time.perf_counter()
        try:
            with tracing.use_context(self._trace_ctx):
                self._deliver(frame)
        except BaseException as exc:  # noqa: BLE001 - surfaced via _raise_if_failed
            with self._lock:
                if self._failure is None:
                    self._failure = exc
        finally:
            if self._push_timer is not None:
                self._push_timer.observe(time.perf_counter() - started)
            with self._lock:
                self._held -= frame.size
                self._sending -= 1
                self._landed.notify()

    def _deliver(self, frame: _Frame) -> None:
        """One ``put_chunks`` for the frame, else the per-chunk path for each."""
        try:
            self.transport.call(
                frame.entry["address"],
                "put_chunks",
                chunk_ids=[pending.chunk.chunk_id for pending, _ in frame.items],
                data=[pending.chunk.data for pending, _ in frame.items],
            )
            stored = True
        except Exception:  # noqa: BLE001 - the per-chunk path finds out what and where
            stored = False
        for pending, replica in frame.items:
            if not stored:
                self._push_replica(pending, replica)
            self._note_stored(pending)

    def _note_stored(self, pending: _PendingChunk) -> None:
        """Account for one stored replica; the last one places the chunk."""
        with self._lock:
            self.stats.bytes_pushed += pending.chunk.size
            self.stats.chunks_pushed += 1
            pending.missing -= 1
            if pending.missing:
                return
            holders = pending.holders
            self._results[pending.index] = (pending.ref, holders)
            if self._content_addressed:
                self._known_chunks.setdefault(pending.chunk.chunk_id, list(holders))
                del self._planned[pending.chunk.chunk_id]
            for index, ref in pending.duplicates:
                self._record_duplicate(index, ref, holders)
        self._queue_ack(pending.ref, holders)

    def _drain(self) -> None:
        """Wait for every push this session submitted to settle."""
        for future in self._futures:
            try:
                future.result()
            except BaseException as exc:  # noqa: BLE001 - cancelled futures
                with self._lock:
                    if self._failure is None:
                        self._failure = exc
        self._futures.clear()

    def _raise_if_failed(self) -> None:
        with self._lock:
            failure = self._failure
        if failure is not None:
            raise failure

    # -- manager ack batching -----------------------------------------------
    def _queue_ack(self, ref: ChunkRef, holders: Sequence[str]) -> None:
        """Batch successful placements into ``put_chunks_ack`` transactions.

        Per-chunk acknowledgements would add one manager transaction per
        chunk; batching keeps the transaction count at ``chunks / batch``.
        Disabled (the default) the data path generates no manager traffic at
        all, preserving the paper's four-transactions-per-write profile.
        """
        if self.config.ack_batch_size <= 0:
            return
        with self._lock:
            self._ack_buffer.append(
                {
                    "chunk_id": ref.chunk_id,
                    "offset": ref.offset,
                    "length": ref.length,
                    "benefactors": list(holders),
                }
            )
            if len(self._ack_buffer) < self.config.ack_batch_size:
                return
            batch, self._ack_buffer = self._ack_buffer, []
        self._send_ack(batch)

    def _flush_acks(self) -> None:
        with self._lock:
            batch, self._ack_buffer = self._ack_buffer, []
        if batch:
            self._send_ack(batch)

    def _send_ack(self, batch: List[Dict[str, object]]) -> None:
        try:
            self.transport.call(
                self.manager_address,
                "put_chunks_ack",
                session_id=self.session_id,
                placements=batch,
            )
        except StdchkError:
            # Acks are advisory (early GC protection / failure recovery);
            # the commit at close time remains the source of truth.
            return
        with self._lock:
            self.stats.ack_batches += 1

    # -- pushing & failure handling ----------------------------------------------
    def _refresh_stripe(self, seen_generation: int) -> None:
        """Fetch a fresh stripe from the manager, once per failed generation.

        Concurrent workers that observed the same dead stripe coordinate via
        the generation counter: only the first one performs the refresh RPC,
        the rest simply retry against the already-refreshed stripe.
        """
        with self._refresh_lock:
            # Late workers queue behind the refresh in flight; by the time
            # they get here the generation has advanced and they just retry
            # against the already-refreshed stripe.
            with self._lock:
                if self._stripe_generation != seen_generation:
                    return
                if self.stats.stripe_refreshes >= self.max_stripe_refreshes:
                    raise WriteFailedError(
                        f"write session {self.session_id} exhausted stripe refreshes"
                    )
                self.stats.stripe_refreshes += 1
            answer = self.transport.call(
                self.manager_address, "extend_stripe", session_id=self.session_id
            )
            stripe = list(answer["stripe"])
            if not stripe:
                raise WriteFailedError("manager returned an empty stripe")
            with self._lock:
                self._stripe = stripe
                self._stripe_generation += 1

    def _report_failure(self, benefactor_id: str) -> None:
        try:
            self.transport.call(
                self.manager_address,
                "report_benefactor_failure",
                benefactor_id=benefactor_id,
            )
        except StdchkError:
            pass

    def _stripe_snapshot(self) -> Tuple[List[Dict[str, str]], int]:
        with self._lock:
            return list(self._stripe), self._stripe_generation

    def _push_once(self, chunk: Chunk, start_slot: int,
                   skip: Sequence[str]) -> Tuple[Optional[Dict[str, str]], int]:
        """Try pushing ``chunk`` to one benefactor, rotating through the stripe.

        Returns the stripe entry that accepted the chunk (or None when every
        candidate failed — the caller then refreshes the stripe) together
        with the stripe generation the attempt ran against.
        """
        stripe, generation = self._stripe_snapshot()
        for probe in range(len(stripe)):
            entry = stripe[(start_slot + probe) % len(stripe)]
            if entry["benefactor_id"] in skip:
                continue
            try:
                self.transport.call(
                    entry["address"],
                    "put_chunks",
                    chunk_ids=[chunk.chunk_id],
                    data=[chunk.data],
                )
                return entry, generation
            except (EndpointUnreachableError, BenefactorOfflineError, StoreFullError):
                with self._lock:
                    self.stats.push_failures += 1
                self._report_failure(entry["benefactor_id"])
                continue
        return None, generation

    def _push_replica(self, pending: _PendingChunk, replica: int) -> None:
        """Store one replica of one chunk: the per-chunk path.

        Starts at the replica's own slot of the stripe, skips the nodes the
        chunk's other replicas are on (or bound for) and refreshes the stripe
        whenever every candidate failed.
        """
        while True:
            with self._lock:
                skip = pending.holders[:replica] + pending.holders[replica + 1:]
            entry, generation = self._push_once(
                pending.chunk, pending.index + replica, skip
            )
            if entry is not None:
                with self._lock:
                    pending.holders[replica] = entry["benefactor_id"]
                return
            self._refresh_stripe(generation)
