"""Read path: reassemble a dataset version from its chunks.

Restart latency after a failure is read-bound (design goal "reasonable read
performance", section III.B): the client must pull a whole checkpoint image
back from the benefactors it was striped across.  The reader mirrors the
write path's pipelined architecture: with ``read_parallelism > 1`` chunk
fetches for distinct benefactors are submitted, through a bounded in-flight
window, to the worker pool of the :class:`~repro.client.proxy.ClientProxy`
that opened the reader, integrity verification (SHA-1 recomputation) runs
inside the worker threads so it overlaps network transfer, and the image is
reassembled in chunk-map order as futures complete.  The reader owns its
futures, never the pool: it starts, joins and shuts down no thread.  With the
default ``read_parallelism == 1``, or without an executor, the data path is
fully synchronous, one RPC at a time.

A whole-image read (:meth:`StripedReader.read_all`, what a restart does) has
no reassembly step at all: the image is allocated once and every chunk is
received, verified and — if its replica turns out bad — overwritten at its
final position inside it.  It also moves more than a chunk per RPC: each
chunk's replica is chosen up front and the chunks chosen from one benefactor
travel as *frames* of at most :data:`~repro.transport.tcp.TRANSFER_UNIT`, one
``get_chunks`` each, every chunk landing in its own window of the image.  The
plan opens about one frame per fetcher — the calling thread and
``read_parallelism - 1`` pool tasks — rather than one per holder, since a
frame nobody is free to fetch only adds a round trip.  A frame of one chunk
is the per-chunk fetch (``get_chunk``), so images of transfer-unit-sized
chunks are read exactly as before; and a frame has no failure handling of
its own — a chunk it did not deliver, or delivered corrupt, is fetched again
by the per-chunk path below, same replica first.

Replica selection is delegated to a :class:`ReplicaScheduler` shared across
every reader of a client session: instead of always hammering the first
benefactor in placement order, the scheduler rotates across a chunk's
replicas and prefers the replica with the fewest outstanding requests, and
benefactors discovered dead (or serving corrupt data) by one reader are
deprioritized for the next.

Corrupt replicas are handled like unreachable ones: a chunk whose digest or
length does not match its reference is discarded, the replica is marked
failed and the next replica is tried; the read only fails when every replica
of a chunk is exhausted.

Readers are not thread-safe: one thread consumes a reader (the pool's worker
threads are an implementation detail).  Chunks fetched for a byte-range read
are retained in a small bounded cache so sequential range reads (the FS
facade) fetch every chunk exactly once; :meth:`read_iter` streams whole
images chunk-by-chunk without retaining them, so restart-sized images never
need to be buffered whole.
"""

from __future__ import annotations

import io
import threading
import time
from collections import deque
from concurrent.futures import Executor, Future, wait
from dataclasses import dataclass, field
from typing import (
    Any, Callable, Deque, Dict, Iterator, List, Mapping, Optional, Sequence, Set, Tuple,
)

from repro.core.chunk import Chunk, is_content_addressed
from repro.core.chunk_map import ChunkMap, ChunkPlacement
from repro.exceptions import (
    BenefactorOfflineError,
    ChunkIntegrityError,
    ChunkNotFoundError,
    EndpointUnreachableError,
    ReadFailedError,
)
from repro.obs import LabelChildren, MetricsRegistry, tracing
from repro.transport.base import Transport
from repro.transport.tcp import TRANSFER_UNIT


class ReplicaScheduler:
    """Replica-selection state shared by every reader of one client.

    Tracks two things per benefactor: how many fetches are currently
    outstanding against it (so concurrent readers spread load instead of all
    dialling the first replica in placement order) and whether it recently
    failed (so one reader's discovery benefits the next).  Failed benefactors
    are only retried as a last resort — and un-marked when such a retry
    succeeds, so a recovered node rejoins the rotation.

    With a ``metrics`` registry the per-benefactor outstanding counts and
    the failed-set size are exported as gauges, making replica skew visible
    before it shows up as a bench regression.  ``note_load_hints`` absorbs
    the manager's cluster-wide read-routing counts (returned by
    ``get_chunk_map``); ``order`` uses them as a secondary tie-break after
    the client-local outstanding counts.
    """

    def __init__(self, metrics: Optional[MetricsRegistry] = None) -> None:
        self._lock = threading.Lock()
        self._failed: Set[str] = set()
        self._outstanding: Dict[str, int] = {}
        self._rotation = 0
        #: Manager-provided cluster-wide load proxy (higher = busier).
        #: Floats: the manager's tallies decay with ``read_load_halflife``.
        self._load_hints: Dict[str, float] = {}
        if metrics is not None:
            self._outstanding_gauge = LabelChildren(metrics.gauge(
                "replica_outstanding_requests",
                "Chunk fetches currently outstanding, per benefactor.",
                labelnames=("benefactor",),
            ), "benefactor")
            self._failed_gauge = metrics.gauge(
                "replica_failed_benefactors",
                "Benefactors currently marked failed by the read path.",
            )
        else:
            self._outstanding_gauge = None
            self._failed_gauge = None

    @property
    def failed_benefactors(self) -> Set[str]:
        with self._lock:
            return set(self._failed)

    def order(self, benefactors: Sequence[str], demote: Sequence[str] = (),
              planned: Optional[Mapping[str, int]] = None) -> List[str]:
        """Candidate replicas, best first.

        Healthy replicas are rotated (so ties do not always land on the same
        node) and stably sorted by outstanding request count; failed replicas
        — and any the caller asks to ``demote`` (e.g. a reader's own
        chunk-miss discoveries) — are appended last so a chunk whose every
        holder was marked failed is still attempted rather than abandoned.
        ``planned`` counts fetches the caller has decided on but not started
        (a reader choosing replicas for a whole image); they weigh like
        outstanding ones.
        """
        if not benefactors:
            return []
        demoted = set(demote)
        planned = planned or {}
        with self._lock:
            healthy = [
                b for b in benefactors
                if b not in self._failed and b not in demoted
            ]
            pool = healthy if healthy else list(benefactors)
            offset = self._rotation % len(pool)
            self._rotation += 1
            rotated = pool[offset:] + pool[:offset]
            # Primary key: client-local outstanding fetches.  Secondary key:
            # the manager's cluster-wide read-routing count, so full ties
            # (the common case on an idle client) land on the benefactor the
            # rest of the cluster is using least.  The sort is stable, so the
            # rotation still breaks exact ties.
            rotated.sort(
                key=lambda b: (
                    self._outstanding.get(b, 0) + planned.get(b, 0),
                    self._load_hints.get(b, 0),
                )
            )
            if healthy:
                rotated += [b for b in benefactors if b not in healthy]
            return rotated

    def note_load_hints(self, hints: Optional[Mapping[str, float]]) -> None:
        """Absorb the manager's per-benefactor read-routing counts.

        Later hints overwrite earlier ones per benefactor; counts for nodes
        not mentioned are retained (a hint batch only covers the benefactors
        relevant to one chunk map).
        """
        if not hints:
            return
        with self._lock:
            for benefactor_id, count in hints.items():
                # Float, not int: decayed manager tallies lose their
                # ordering if truncated (0.7 vs 0.2 must not both become 0).
                self._load_hints[str(benefactor_id)] = float(count)

    def begin(self, benefactor_id: str) -> None:
        with self._lock:
            count = self._outstanding.get(benefactor_id, 0) + 1
            self._outstanding[benefactor_id] = count
            if self._outstanding_gauge is not None:
                self._outstanding_gauge[benefactor_id].set(count)

    def end(self, benefactor_id: str) -> None:
        with self._lock:
            remaining = self._outstanding.get(benefactor_id, 0) - 1
            if remaining > 0:
                self._outstanding[benefactor_id] = remaining
            else:
                remaining = 0
                self._outstanding.pop(benefactor_id, None)
            if self._outstanding_gauge is not None:
                self._outstanding_gauge[benefactor_id].set(remaining)

    def mark_failed(self, benefactor_id: str) -> None:
        with self._lock:
            self._failed.add(benefactor_id)
            if self._failed_gauge is not None:
                self._failed_gauge.set(len(self._failed))

    def mark_alive(self, benefactor_id: str) -> None:
        with self._lock:
            self._failed.discard(benefactor_id)
            if self._failed_gauge is not None:
                self._failed_gauge.set(len(self._failed))


@dataclass
class _Frame:
    """The chunks one RPC fetches from one benefactor, each with the replica
    order the plan chose for it (the frame's benefactor first)."""

    benefactor_id: Optional[str]
    items: List[Tuple[ChunkPlacement, List[str]]] = field(default_factory=list)
    size: int = 0


class StripedReader:
    """Reads one committed dataset version from its stripe of benefactors."""

    def __init__(
        self,
        transport: Transport,
        chunk_map: ChunkMap,
        addresses: Dict[str, str],
        size: int,
        verify_integrity: bool = True,
        read_parallelism: int = 1,
        scheduler: Optional[ReplicaScheduler] = None,
        cache_chunks: int = 0,
        corruption_reporter: Optional[Callable[[str, str], None]] = None,
        metrics: Optional[MetricsRegistry] = None,
        executor: Optional[Executor] = None,
    ) -> None:
        self.transport = transport
        self.chunk_map = chunk_map
        self.addresses = dict(addresses)
        self.size = size
        self.verify_integrity = verify_integrity
        self.scheduler = scheduler if scheduler is not None else ReplicaScheduler()
        #: Called with ``(chunk_id, benefactor_id)`` when a replica serves
        #: bytes that fail verification, so the evidence feeds repair
        #: (``report_corrupt_chunk``) instead of being discarded with the
        #: fallback.  Runs on worker threads; must never raise.
        self.corruption_reporter = corruption_reporter
        self.parallelism = max(1, read_parallelism)
        #: Bound on fetches dispatched but not yet consumed (memory bound).
        self._window = 2 * self.parallelism
        #: Chunks retained after range reads so sequential FS scans fetch
        #: each chunk exactly once; bounded, FIFO-evicted.
        self._cache_limit = cache_chunks if cache_chunks > 0 else max(2 * self._window, 8)
        self._placements: List[ChunkPlacement] = list(chunk_map)
        #: Benefactors that answered ``ChunkNotFoundError`` for this version:
        #: reader-local (a node missing one chunk of a stale map is not a
        #: node failure), demoted rather than excluded on later fetches.
        self._missing: Set[str] = set()
        self._cache: Dict[int, bytes] = {}
        self._inflight: Dict[int, "Future[bytes]"] = {}
        #: The client's shared worker pool; None keeps every fetch on the
        #: calling thread.  Borrowed: the reader tracks the futures it
        #: submitted and nothing else of the pool.
        self._executor = executor
        #: Guards cache, in-flight futures and statistics.
        self._lock = threading.Lock()
        #: Simple statistics for benchmarks and tests.
        self.chunks_fetched = 0
        self.bytes_fetched = 0
        self.replica_fallbacks = 0
        self.cache_hits = 0
        self.corruptions_reported = 0
        #: Trace context active when the reader was constructed.  Worker
        #: threads do not inherit thread-local state, so fetches re-activate
        #: it explicitly and their RPC spans stay inside the read's trace.
        self._trace_ctx = tracing.current_context()
        if metrics is not None:
            self._fetch_timer = metrics.histogram(
                "client_fetch_chunk_seconds",
                "End-to-end latency of one fetch: a chunk incl. fallbacks, or a frame.",
                window=True,
            )
            self._chunks_counter = metrics.counter(
                "client_chunks_fetched_total", "Chunks fetched by readers."
            )
            self._read_bytes_counter = metrics.counter(
                "client_read_bytes_total", "Chunk payload bytes fetched."
            )
            self._fallback_counter = metrics.counter(
                "client_replica_fallbacks_total",
                "Fetches that fell back to another replica.",
            )
        else:
            self._fetch_timer = None
            self._chunks_counter = None
            self._read_bytes_counter = None
            self._fallback_counter = None

    # -- chunk fetching -------------------------------------------------------
    def _verify(self, placement: ChunkPlacement, data: bytes) -> None:
        if self.verify_integrity and is_content_addressed(placement.ref.chunk_id):
            Chunk(chunk_id=placement.ref.chunk_id, data=data).verify()
        if len(data) != placement.ref.length:
            raise ChunkIntegrityError(
                f"chunk {placement.ref.chunk_id} has unexpected length "
                f"{len(data)} (expected {placement.ref.length})"
            )

    def _note_fallback(self) -> None:
        with self._lock:
            self.replica_fallbacks += 1
        if self._fallback_counter is not None:
            self._fallback_counter.inc()

    def _in_trace(self, fetch: Callable[..., Any], *args: Any) -> Any:
        """Run ``fetch`` inside the read's trace, timed when there is a registry."""
        with tracing.use_context(self._trace_ctx):
            if self._fetch_timer is None:
                return fetch(*args)
            started = time.perf_counter()
            try:
                return fetch(*args)
            finally:
                self._fetch_timer.observe(time.perf_counter() - started)

    def _fetch_chunk(self, placement: ChunkPlacement,
                     into: Optional[memoryview] = None,
                     candidates: Optional[Sequence[str]] = None) -> bytes:
        """Fetch one chunk from the best replica (worker-thread entry point).

        Only issues RPCs (``corruption_reporter`` included): a task on the
        shared pool must never submit to the pool and wait, the pool may be
        one thread wide.

        Unreachable, chunk-less and *corrupt* replicas all fall back to the
        next candidate; verification runs here so with parallel reads the
        SHA-1 recomputation overlaps other chunks' network transfers.
        ``candidates`` is the replica order to try when the caller has chosen
        one already; by default it is chosen now.

        With ``into`` (exactly the chunk's length) the verified payload ends
        up there, delivered by the transport or copied, and ``into`` itself
        may be what is returned.  A replica that fails leaves garbage in
        ``into`` only, which the next one overwrites in full; when none is
        usable the caller must discard ``into``.
        """
        if candidates is None:
            candidates = self._candidates(placement)
        return self._in_trace(self._fetch_replicas, placement, into, candidates)

    def _candidates(self, placement: ChunkPlacement,
                    planned: Optional[Mapping[str, int]] = None) -> List[str]:
        """The replicas of ``placement`` this reader can dial, best first."""
        holders = placement.benefactors
        if len(holders) == 1:  # nothing to order, whatever the scheduler knows
            return list(holders) if holders[0] in self.addresses else []
        with self._lock:
            missing = set(self._missing)
        return [
            b for b in self.scheduler.order(placement.benefactors, demote=missing,
                                            planned=planned)
            if b in self.addresses
        ]

    def _note_fetched(self, benefactor_id: str, data: bytes) -> None:
        """Account for one chunk that arrived intact from ``benefactor_id``."""
        self.scheduler.mark_alive(benefactor_id)
        with self._lock:
            self.chunks_fetched += 1
            self.bytes_fetched += len(data)
        if self._chunks_counter is not None:
            self._chunks_counter.inc()
            self._read_bytes_counter.inc(len(data))

    def _fetch_replicas(self, placement: ChunkPlacement, into: Optional[memoryview],
                        candidates: Sequence[str]) -> bytes:
        last_error: Optional[Exception] = None
        for position, benefactor_id in enumerate(candidates):
            address = self.addresses[benefactor_id]
            self.scheduler.begin(benefactor_id)
            try:
                data = self.transport.call(
                    address, "get_chunk", into=into,
                    chunk_id=placement.ref.chunk_id,
                )
            except ChunkNotFoundError as exc:
                # The node is healthy, it just lacks this chunk (stale map
                # after GC, lost disk block): demote it for this reader only
                # instead of poisoning the session-shared scheduler.
                last_error = exc
                with self._lock:
                    self._missing.add(benefactor_id)
                if position + 1 < len(candidates):
                    self._note_fallback()
                continue
            except (EndpointUnreachableError, BenefactorOfflineError) as exc:
                last_error = exc
                self.scheduler.mark_failed(benefactor_id)
                if position + 1 < len(candidates):
                    self._note_fallback()
                continue
            finally:
                self.scheduler.end(benefactor_id)
            try:
                self._verify(placement, data)
            except ChunkIntegrityError as exc:
                last_error = exc
                self.scheduler.mark_failed(benefactor_id)
                self._report_corruption(placement.ref.chunk_id, benefactor_id)
                if position + 1 < len(candidates):
                    self._note_fallback()
                continue
            if into is not None and data is not into:
                # The transport ignored the hint or the chunk came in-band.
                into[:] = data
            self._note_fetched(benefactor_id, data)
            return data
        raise ReadFailedError(
            f"no replica of chunk {placement.ref.chunk_id} is usable"
        ) from last_error

    def _report_corruption(self, chunk_id: str, benefactor_id: str) -> None:
        """Hand a verification failure to the repair loop (best effort).

        Reporting must never turn a recoverable read (the fallback replica
        is fine) into a failed one, so every error is swallowed here.
        """
        if self.corruption_reporter is None:
            return
        try:
            self.corruption_reporter(chunk_id, benefactor_id)
            with self._lock:
                self.corruptions_reported += 1
        except Exception:  # noqa: BLE001 - reporting is advisory
            pass

    # -- pipelined dispatch ---------------------------------------------------
    def _store_locked(self, index: int, data: bytes) -> None:
        self._cache[index] = data
        while len(self._cache) > self._cache_limit:
            del self._cache[next(iter(self._cache))]

    def _reap_completed_locked(self) -> None:
        """Move finished prefetches into the cache, freeing window slots.

        Without this, futures whose index is never consumed (the caller
        sought past a prefetched region) would occupy the window forever and
        silently disable all further prefetch.  Failed prefetches are simply
        dropped: the consumer re-fetches on demand and surfaces the error.
        """
        done = [i for i, f in self._inflight.items() if f.done()]
        for index in done:
            future = self._inflight.pop(index)
            try:
                data = future.result()
            except BaseException:  # noqa: BLE001 - deferred to on-demand fetch
                continue
            self._store_locked(index, data)

    def _schedule(self, index: int) -> bool:
        """Dispatch an asynchronous fetch for placement ``index``.

        Returns False when the in-flight window is full or there is no pool
        to dispatch to; an index that is already cached or in flight counts
        as satisfied.
        """
        if self._executor is None:
            return False
        with self._lock:
            if index in self._cache or index in self._inflight:
                return True
            self._reap_completed_locked()
            if len(self._inflight) >= self._window:
                return False
            self._inflight[index] = self._executor.submit(
                self._fetch_chunk, self._placements[index]
            )
            return True

    def _chunk(self, index: int, retain: bool) -> bytes:
        """Bytes of placement ``index``: cache, in-flight future, or sync fetch."""
        with self._lock:
            data = self._cache.get(index)
            if data is not None:
                self.cache_hits += 1
                if not retain:
                    del self._cache[index]
                return data
            future = self._inflight.get(index)
        if future is not None:
            try:
                data = future.result()
            finally:
                with self._lock:
                    self._inflight.pop(index, None)
                    # A concurrent reap may have cached the result already.
                    if not retain:
                        self._cache.pop(index, None)
        else:
            data = self._fetch_chunk(self._placements[index])
        if retain:
            with self._lock:
                self._store_locked(index, data)
        return data

    def _pipeline_ahead(self, indices: Sequence[int], position: int) -> None:
        """Keep the in-flight window full starting at ``indices[position]``."""
        if self.parallelism <= 1:
            return
        for ahead in indices[position:position + self._window]:
            if not self._schedule(ahead):
                break

    def _drain(self) -> None:
        """Cancel this reader's queued fetches; running ones finish unobserved."""
        with self._lock:
            inflight = list(self._inflight.values())
            self._inflight.clear()
        for future in inflight:
            future.cancel()

    def close(self) -> None:
        """Drop outstanding fetches (safe to call repeatedly; reads may follow)."""
        self._drain()

    # -- public reads ------------------------------------------------------------
    def read_iter(self) -> Iterator[bytes]:
        """Stream the file chunk-by-chunk in chunk-map order.

        Memory stays bounded by the in-flight window, so restart-sized images
        never need to be buffered whole.  Raises :class:`ReadFailedError` at
        the end of iteration when the reassembled size does not match the
        version's metadata size.
        """
        indices = list(range(len(self._placements)))
        total = 0
        try:
            for position, index in enumerate(indices):
                self._pipeline_ahead(indices, position)
                data = self._chunk(index, retain=False)
                total += len(data)
                yield data
        finally:
            self._drain()
        if total != self.size:
            raise ReadFailedError(
                f"reassembled size {total} does not match metadata size {self.size}"
            )

    def _fetch_into(self, image: memoryview, placement: ChunkPlacement,
                    candidates: Optional[Sequence[str]] = None) -> None:
        """Fetch one chunk to its place in ``image``.

        Returns nothing and gives its window of the image up before it
        returns: ``BytesIO.getvalue`` copies the whole image instead of
        handing it over while any view of it is still alive.
        """
        with image[placement.ref.offset:placement.ref.end] as into:
            self._fetch_chunk(placement, into, candidates)

    def _plan_frames(self) -> List[_Frame]:
        """Choose every chunk's replica; frames in the order of their first chunk.

        Every choice counts the chunks already planned per benefactor as
        outstanding against it.  Until ``read_parallelism`` benefactors have
        an open frame, a chunk goes to its least-planned healthy replica and
        opens a frame there if it has none; from then on it joins an open
        frame on one of its healthy replicas that still has room, and opens a
        new one only when none has.  There are never more than
        ``read_parallelism`` fetchers (:meth:`_fetch_frames`), so a frame
        beyond that many adds a round trip without adding parallelism; a
        parallelism at least the number of holders still reads from every
        holder.  A frame is closed when the next chunk would take it past
        the transfer unit, so a chunk that large always travels alone.
        """
        planned: Dict[str, int] = {}
        frames: List[_Frame] = []
        taking: Dict[Optional[str], _Frame] = {}
        unhealthy = self.scheduler.failed_benefactors
        with self._lock:
            unhealthy |= self._missing
        for placement in self._placements:
            length = placement.ref.length
            candidates = self._candidates(placement, planned)
            # With no replica to dial the per-chunk path says so, for this chunk.
            chosen = candidates[0] if candidates else None
            if len(taking) >= self.parallelism:
                # A frame per fetcher is open: join one on a healthy replica.
                chosen = next((b for b in candidates if b not in unhealthy and b in taking
                               and taking[b].size + length <= TRANSFER_UNIT), chosen)
                if chosen is not None and chosen != candidates[0]:
                    # A chunk the frame fails to deliver retries its replica first.
                    candidates = [chosen, *(b for b in candidates if b != chosen)]
            frame = taking.get(chosen)
            if frame is None or frame.size + length > TRANSFER_UNIT:
                frame = _Frame(chosen)
                frames.append(frame)
                if chosen is not None:
                    taking[chosen] = frame
            frame.items.append((placement, candidates))
            frame.size += length
            if chosen is not None:
                planned[chosen] = planned.get(chosen, 0) + 1
        return frames

    def _fetch_frame(self, image: memoryview, frame: _Frame) -> None:
        """Fill the frame's windows of ``image`` (what every fetcher runs).

        One ``get_chunks`` for the frame; whatever it did not deliver intact
        — and the one chunk of a one-chunk frame, whose replica is chosen when
        it runs, as ever — is fetched by the per-chunk path.
        """
        if len(frame.items) == 1:
            self._fetch_into(image, frame.items[0][0])
            return
        for placement, candidates in self._in_trace(self._fetch_together, image, frame):
            self._fetch_into(image, placement, candidates)

    def _fetch_together(self, image: memoryview,
                        frame: _Frame) -> List[Tuple[ChunkPlacement, List[str]]]:
        """One ``get_chunks`` into the frame's windows; returns the items it
        left unfilled: all of them on any error, the corrupt ones otherwise."""
        benefactor_id = frame.benefactor_id
        windows = [image[p.ref.offset:p.ref.end] for p, _ in frame.items]
        try:
            self.scheduler.begin(benefactor_id)
            try:
                payloads = self.transport.call(
                    self.addresses[benefactor_id], "get_chunks", into=windows,
                    chunk_ids=[p.ref.chunk_id for p, _ in frame.items],
                )
            except Exception:  # noqa: BLE001 - the per-chunk path finds out what and where
                return frame.items
            finally:
                self.scheduler.end(benefactor_id)
            if type(payloads) is not list or len(payloads) != len(windows):
                return frame.items
            unfilled = []
            for item, window, data in zip(frame.items, windows, payloads):
                try:
                    self._verify(item[0], data)
                except ChunkIntegrityError:
                    unfilled.append(item)
                    continue
                if data is not window:
                    # The transport ignored the hint or the chunk came in-band.
                    window[:] = data
                self._note_fetched(benefactor_id, data)
            return unfilled
        finally:
            for window in windows:
                window.release()

    def read_all(self) -> bytes:
        """Fetch the whole file as one ``bytes``, filled in place.

        The image is allocated once, zero-filled, and each chunk is received
        straight into its final position (``Transport.call(..., into=...)``),
        a frame of chunks per RPC (:meth:`_plan_frames`), so there is no
        receive buffer per chunk and nothing to join.  Because the image
        starts as zeros, a chunk map that does not tile exactly ``size``
        bytes is an error before any fetch, never a run of zeros handed to a
        restarting job.  The frames are fetched by :meth:`_fetch_frames`.
        """
        if not self.chunk_map.is_contiguous() or self.chunk_map.total_size != self.size:
            raise ReadFailedError(
                f"chunk map does not tile the file: it holds "
                f"{self.chunk_map.total_size} bytes, metadata size is {self.size}"
            )
        # ``BytesIO`` owns a calloc'd ``bytes`` (no page touched yet) and, once
        # every view is released, ``getvalue`` returns that very object.
        image = io.BytesIO(bytes(self.size))
        view = image.getbuffer()
        try:
            self._fetch_frames(view, self._plan_frames())
        finally:
            view.release()
        return image.getvalue()

    def _fetch_frames(self, image: memoryview, frames: Sequence[_Frame]) -> None:
        """Run :meth:`_fetch_frame` for every frame.

        The fetchers are the calling thread and at most ``read_parallelism -
        1`` tasks on the client's pool (none without one), all taking frames
        from one queue; at parallelism 1, or for a single frame, the caller
        fetches alone.  A failure empties the queue: helpers that have not
        started are cancelled, and running ones are waited for, since each
        holds windows of ``image``, which ``read_all`` is about to release.
        """
        queue: Deque[_Frame] = deque(frames)

        def take_frames() -> None:
            try:
                while True:
                    try:
                        frame = queue.popleft()
                    except IndexError:
                        return
                    self._fetch_frame(image, frame)
            except BaseException:
                queue.clear()
                raise

        helpers: List["Future[None]"] = []
        if self._executor is not None:
            helpers = [self._executor.submit(take_frames)
                       for _ in range(min(self.parallelism, len(frames)) - 1)]
        try:
            take_frames()
        finally:
            for helper in helpers:
                helper.cancel()
            wait(helpers)
        for helper in helpers:
            if not helper.cancelled():
                helper.result()

    def read_range(self, offset: int, length: int) -> bytes:
        """Fetch an arbitrary byte range (used by the FS facade).

        Chunks are retained in the reader's cache, so a sequential scan in
        sub-chunk granularity fetches every chunk exactly once.
        """
        if offset < 0:
            raise ValueError("offset must be non-negative")
        if length <= 0 or offset >= self.size:
            return b""
        length = min(length, self.size - offset)
        end = offset + length
        indices = self.chunk_map.covering_indices(offset, length)
        parts: List[bytes] = []
        for position, index in enumerate(indices):
            self._pipeline_ahead(indices, position)
            data = self._chunk(index, retain=True)
            ref = self._placements[index].ref
            start = max(offset - ref.offset, 0)
            stop = min(end - ref.offset, ref.length)
            parts.append(data[start:stop])
        return b"".join(parts)

    def prefetch(self, offset: int, length: int) -> None:
        """Asynchronously warm the chunk cache for ``[offset, offset+length)``.

        Backs the FS facade's read-ahead: fetches for upcoming chunks are
        dispatched to the client's worker pool (used even under
        ``read_parallelism=1``, which is why the pool is never narrower than
        one thread) while the caller consumes the current range.  Stops
        silently when the in-flight window is full; never blocks; does
        nothing for a reader without an executor.
        """
        if length <= 0 or offset >= self.size or not self._placements:
            return
        length = min(length, self.size - offset)
        for index in self.chunk_map.covering_indices(offset, length):
            if not self._schedule(index):
                break
