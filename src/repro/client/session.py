"""Chunk pushing: the shared data path under every write protocol.

The :class:`ChunkPusher` turns a byte stream into chunks, decides which
benefactor receives each chunk (round-robin over the session's stripe),
enforces the write semantics (pessimistic writes push every replica before
returning, optimistic writes push one copy and leave the rest to background
replication), skips chunks that incremental checkpointing proves are already
stored, handles benefactor failures by refreshing the stripe through the
manager, and accumulates the chunk-map that will be committed at close time.

Pipelining (section IV.B): with ``push_parallelism > 1`` the pusher submits
chunk pushes, through a bounded in-flight window, to the worker pool of the
:class:`~repro.client.proxy.ClientProxy` that opened the session, so chunk
production (spooling, hashing) overlaps propagation to benefactors and several
benefactors of the stripe receive data concurrently.  ``feed`` blocks only
when the window is full, which bounds client memory at ``max_inflight_chunks``
chunk payloads.  The pusher owns its futures, never the pool: it starts, joins
and shuts down no thread.  The chunk ``finish`` flushes (the trailing partial
chunk; for a file smaller than one chunk, the only one) is pushed by the
caller, which would block on it at once anyway, while the chunks already in
flight keep overlapping with it.  With the default ``push_parallelism == 1``,
or without an executor, the data path is fully synchronous, one RPC at a time.

Chunking copies nothing: a complete chunk is a ``memoryview`` slice of the
``bytes`` the application wrote, handed as such to the transport (which sends
it out-of-band, see :mod:`repro.transport.tcp`); only the sub-chunk head and
tail of a ``feed`` pass through a buffer.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Executor, Future
from dataclasses import dataclass
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
from repro.util.config import SimilarityHeuristic, StdchkConfig, WriteSemantics


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


class ChunkPusher:
    """Pushes chunks of one write session to its stripe of benefactors."""

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

        self._stripe: List[Dict[str, str]] = list(session_info["stripe"])  # type: ignore[arg-type]
        self._stripe_generation = 0
        self._content_addressed = config.similarity_heuristic is not SimilarityHeuristic.NONE
        #: chunk id -> benefactors known to hold it (previous version + this session).
        self._known_chunks: Dict[str, List[str]] = dict(existing_chunks or {})
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
                "Latency of one chunk push incl. replication and retries.",
            )
            self._push_window = metrics.windowed_histogram(
                "client_push_chunk_seconds_window",
                "Recent (sliding-window) chunk push latency.",
            )
        else:
            self._push_timer = None
            self._push_window = None

        self.parallelism = max(1, config.push_parallelism)
        #: The client's shared worker pool, or None for the synchronous path.
        #: Borrowed: the pusher tracks the futures it submitted and nothing
        #: else of the pool.
        self._executor: Optional[Executor] = executor if self.parallelism > 1 else None
        self._window: Optional[threading.BoundedSemaphore] = None
        self._futures: List[Future] = []
        if self._executor is not None:
            self._window = threading.BoundedSemaphore(config.effective_inflight_window)

    # -- public stream interface ---------------------------------------------
    @property
    def bytes_buffered(self) -> int:
        return len(self._pending)

    @property
    def total_size(self) -> int:
        """Logical bytes accepted so far (buffered + pushed)."""
        return self.stats.bytes_written

    def feed(self, data: bytes, flush: bool = False) -> None:
        """Accept application bytes; push every complete chunk immediately.

        Complete chunks are emitted as views of ``data``, never copied; only
        a sub-chunk head (topping up a partial chunk left by the previous
        call) and tail pass through the pending buffer.  With
        ``push_parallelism > 1`` pushes are still in flight when this
        returns, so a view is taken of immutable ``bytes`` only: any other
        buffer (``bytearray``, ``mmap``, a writable view) is copied once up
        front, which also leaves the caller free to mutate or resize it.

        ``flush`` forces the trailing partial chunk out as well (used at
        close time and when a protocol rotates its temporary file).
        """
        if type(data) is not bytes:
            data = bytes(data)
        size = len(data)
        self.stats.bytes_written += size
        view = memoryview(data)
        position = 0
        if self._pending:
            position = min(self.chunk_size - len(self._pending), size)
            self._pending += view[:position]
            if len(self._pending) == self.chunk_size:
                self._emit_pending()
        while size - position >= self.chunk_size:
            self._emit(view[position:position + self.chunk_size])
            position += self.chunk_size
        if position < size:
            self._pending += view[position:]
        if flush and self._pending:
            self._emit_pending()

    def _emit_pending(self, on_caller: bool = False) -> None:
        payload = bytes(self._pending)
        self._pending.clear()
        self._emit(payload, on_caller)

    def finish(self) -> ChunkMap:
        """Flush the trailing chunk, wait for all in-flight pushes, and
        return the completed chunk-map (ordered by file offset).

        The flushed chunk is pushed on the calling thread: the next thing
        this method does is wait for it, so handing it to a worker could
        only add the hand-off to its latency.
        """
        if self._pending:
            self._emit_pending(on_caller=True)
        self._drain()
        self._flush_acks()
        self._raise_if_failed()
        self.chunk_map = ChunkMap()
        for index in sorted(self._results):
            ref, holders = self._results[index]
            self.chunk_map.append(ref, benefactors=holders)
        return self.chunk_map

    def cancel(self) -> None:
        """Abandon this session's queued pushes (session abort path).

        Pushes already running are left to finish on their own; no other
        session's work on the shared pool is touched.
        """
        for future in self._futures:
            future.cancel()
        self._futures.clear()

    # -- chunk emission ------------------------------------------------------
    def _emit(self, payload: "bytes | memoryview", on_caller: bool = False) -> None:
        if self._content_addressed:
            chunk = Chunk(chunk_id=content_chunk_id(payload), data=payload)
        else:
            chunk = Chunk(
                chunk_id=opaque_chunk_id(self.dataset_id, self.version, self._next_chunk_index),
                data=payload,
            )
        index = self._next_chunk_index
        ref = ChunkRef(
            chunk_id=chunk.chunk_id, offset=self._next_offset, length=len(payload)
        )
        self._next_chunk_index += 1
        self._next_offset += len(payload)

        if self._content_addressed:
            with self._lock:
                known = self._known_chunks.get(chunk.chunk_id)
                if known:
                    # Incremental checkpointing: the chunk content already
                    # lives in the pool; reference it copy-on-write instead
                    # of pushing again.
                    self._results[index] = (ref, list(known))
                    self.stats.bytes_deduplicated += len(payload)
                    self.stats.chunks_deduplicated += 1
                    return

        self._raise_if_failed()
        if on_caller or self._executor is None:
            self._push_task(chunk, ref, index)
            self._raise_if_failed()
            return

        assert self._window is not None
        self._window.acquire()
        with self._lock:
            failed = self._failure is not None
        if failed:
            self._window.release()
            self._raise_if_failed()
        self._futures.append(self._executor.submit(self._guarded_push, chunk, ref, index))

    def _guarded_push(self, chunk: Chunk, ref: ChunkRef, index: int) -> None:
        try:
            self._push_task(chunk, ref, index)
        finally:
            assert self._window is not None
            self._window.release()

    def _push_task(self, chunk: Chunk, ref: ChunkRef, index: int) -> None:
        """Push one chunk and record its placement (worker entry point).

        Only issues RPCs: a task on the shared pool must never submit to the
        pool and wait, the pool may be one thread wide.
        """
        with tracing.use_context(self._trace_ctx):
            if self._push_timer is None:
                self._run_push(chunk, ref, index)
                return
            started = time.perf_counter()
            try:
                self._run_push(chunk, ref, index)
            finally:
                elapsed = time.perf_counter() - started
                self._push_timer.observe(elapsed)
                self._push_window.observe(elapsed)

    def _run_push(self, chunk: Chunk, ref: ChunkRef, index: int) -> None:
        try:
            holders = self._push_with_replication(chunk, index)
        except BaseException as exc:  # noqa: BLE001 - surfaced via _raise_if_failed
            with self._lock:
                if self._failure is None:
                    self._failure = exc
            return
        with self._lock:
            self._results[index] = (ref, holders)
            if self._content_addressed:
                self._known_chunks.setdefault(chunk.chunk_id, list(holders))
        self._queue_ack(ref, holders)

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
                    "put_chunk",
                    chunk_id=chunk.chunk_id,
                    data=chunk.data,
                )
                return entry, generation
            except (EndpointUnreachableError, BenefactorOfflineError, StoreFullError):
                with self._lock:
                    self.stats.push_failures += 1
                self._report_failure(entry["benefactor_id"])
                continue
        return None, generation

    def _push_with_replication(self, chunk: Chunk, index: int) -> List[str]:
        """Push ``chunk`` according to the configured write semantics."""
        copies_needed = (
            self.replication_level
            if self.config.write_semantics is WriteSemantics.PESSIMISTIC
            else 1
        )
        holders: List[str] = []
        start_slot = index  # round-robin by chunk index
        while len(holders) < copies_needed:
            entry, generation = self._push_once(
                chunk, start_slot + len(holders), skip=holders
            )
            if entry is None:
                self._refresh_stripe(generation)
                continue
            holders.append(entry["benefactor_id"])
            with self._lock:
                self.stats.bytes_pushed += chunk.size
                self.stats.chunks_pushed += 1
                stripe_width = len(self._stripe)
            if len(set(holders)) >= stripe_width and len(holders) < copies_needed:
                # Narrow pools cannot hold more distinct replicas than nodes.
                break
        if not holders:
            raise WriteFailedError(
                f"chunk {chunk.chunk_id} could not be stored on any benefactor"
            )
        return holders
