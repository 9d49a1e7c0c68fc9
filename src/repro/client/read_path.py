"""Read path: reassemble a dataset version from its chunks.

Restart latency after a failure is read-bound (design goal "reasonable read
performance", section III.B): the client must pull a whole checkpoint image
back from the benefactors it was striped across.  Every read fetches *spans*:
the chunks of a contiguous run, each chunk's replica chosen up front, the
chunks chosen from one benefactor travelling as *frames* of at most
:data:`~repro.transport.tcp.TRANSFER_UNIT`, one ``get_chunks`` each.  Every
chunk lands in its own window: its place in the image for a whole-file read
(:meth:`StripedReader.read_all`, what a restart does), so nothing is
reassembled; a buffer of its own, handed over as ``bytes``, for a stream, a
byte range or read-ahead.  A plan opens about one frame per fetcher — the
calling thread and up to ``read_parallelism`` tasks on the worker pool of the
:class:`~repro.client.proxy.ClientProxy` that opened the reader — since a
frame nobody is free to fetch only adds a round trip.  A chunk a frame did not
deliver is fetched again by the per-chunk path, same replica first, each
attempt a frame of one; a chunk it delivered corrupt is reported, and the
per-chunk path tries its other replicas.  Verification runs in the
fetchers, by the rule the writer names chunks with (compare, then hash): a
content-addressed chunk whose bytes equal those its client last committed
under that id (one ``memcmp``, :func:`~repro.client.session.same_bytes`) is
accepted as it is, and every other fetched chunk is SHA-1 hashed.  The reader
looks the id up through its client at each check, so it keeps no image
alive.  The reader owns its futures, never the pool.  With the default
``read_parallelism == 1``, or without an executor, a read is synchronous; only
read-ahead uses a worker.

A span's plan picks the benefactors it reads from by greedy cover of its
chunks, then gives each chunk to its least-planned picked replica.  Replica
ranking is delegated to a :class:`ReplicaScheduler` shared by every reader of
a client: it prefers the replica with the fewest outstanding requests, breaks
ties by a rotation seeded from the client's id, and tries benefactors found
dead or corrupt by any reader last.  A corrupt replica is handled like an
unreachable one; a read fails only when every replica of a chunk is exhausted.

Readers are not thread-safe: one thread consumes a reader.  A reader holds at
most two spans, the one being read and the one read ahead, and a byte range
waits only for the frames that hold its own chunks.
"""

from __future__ import annotations

import io
import threading
import time
from bisect import bisect_left, bisect_right
from concurrent.futures import Executor, Future, wait
from dataclasses import dataclass, field
from typing import (
    Any, Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Set, Tuple,
)

from repro.client.session import ImageChunk, same_bytes
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
from repro.util.memory import advise_huge_pages


class ReplicaScheduler:
    """Replica-selection state shared by every reader of one client.

    Tracks two things per benefactor: how many fetches are currently
    outstanding against it (so concurrent readers spread load instead of all
    dialling the first replica in placement order) and whether it recently
    failed (so one reader's discovery benefits the next).  Failed benefactors
    are only retried as a last resort — and un-marked when such a retry
    succeeds, so a recovered node rejoins the rotation.

    Ties between equally loaded replicas are broken by a rotation that
    starts at ``seed``.  A client seeds it with a stable hash of its id, so
    fresh clients restarting from one hot chunk start on different replicas
    with no shared state behind the choice.

    With a ``metrics`` registry the per-benefactor outstanding counts and
    the failed-set size are exported as gauges, making replica skew visible
    before it shows up as a bench regression.
    """

    def __init__(self, metrics: Optional[MetricsRegistry] = None, seed: int = 0) -> None:
        self._lock = threading.Lock()
        self._failed: Set[str] = set()
        self._outstanding: Dict[str, int] = {}
        self._rotation = seed
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

    def next_start(self) -> int:
        """Take the rotation's next offset (a read plan breaks all its ties
        with one)."""
        with self._lock:
            self._rotation += 1
            return self._rotation - 1

    def order(self, benefactors: Sequence[str], demote: Sequence[str] = (),
              planned: Optional[Mapping[str, int]] = None, start: int = 0) -> List[str]:
        """Candidate replicas, best first.

        Healthy replicas are rotated by ``start`` (an offset taken with
        :meth:`next_start`, so ties do not always land on the same node) and
        stably sorted by outstanding request count; failed replicas — and any
        the caller asks to ``demote`` (e.g. a reader's own chunk-miss
        discoveries) — are appended last so a chunk whose every holder was
        marked failed is still attempted rather than abandoned.  ``planned``
        counts fetches the caller has decided on but not started (a reader
        choosing replicas for a whole image); they weigh like outstanding
        ones.
        """
        if len(benefactors) < 2:  # nothing to order, whatever the scheduler knows
            return list(benefactors)
        demoted = set(demote)
        planned = planned or {}
        with self._lock:
            healthy = [
                b for b in benefactors
                if b not in self._failed and b not in demoted
            ]
            pool = healthy if healthy else list(benefactors)
            offset = start % len(pool)
            rotated = pool[offset:] + pool[:offset]
            rotated.sort(key=lambda b: self._outstanding.get(b, 0) + planned.get(b, 0))
            if healthy:
                rotated += [b for b in benefactors if b not in healthy]
            return rotated

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


class _Span:
    """The frames planned for chunks ``[first, stop)``, fetched into ``image``
    or, without one, each chunk into a buffer of its own.  A chunk is
    *settled* once the fetcher of its frame is done with it, and in
    ``filled`` too if it arrived intact; the first failure empties the queue,
    settling what it held, and is kept in ``error``."""

    def __init__(self, first: int, stop: int, frames: Sequence[_Frame],
                 image: Optional[memoryview] = None) -> None:
        self.first, self.stop = first, stop
        self.queue: List[_Frame] = list(frames)
        self.image = image
        # A ``BytesIO`` over a calloc'd ``bytes`` per chunk: once no view of
        # it is left, ``getvalue`` hands that very object over.
        self.buffers: Dict[int, io.BytesIO] = {} if image is not None else {
            p.ref.offset: io.BytesIO(bytes(p.ref.length))
            for frame in frames for p, _ in frame.items}
        self.tasks: List["Future[None]"] = []
        self.filled: Set[int] = set()
        self.settled: Set[int] = set()
        self.error: Optional[BaseException] = None
        #: Guards ``queue`` and ``settled``; notified whenever chunks settle.
        self.settling = threading.Condition()

    def window(self, placement: ChunkPlacement) -> memoryview:
        """A fresh view of where ``placement`` goes; the taker releases it."""
        if self.image is not None:
            return self.image[placement.ref.offset:placement.ref.end]
        return self.buffers[placement.ref.offset].getbuffer()

    def _settle(self, frames: Sequence[_Frame]) -> None:
        with self.settling:
            self.settled.update(p.ref.offset for frame in frames for p, _ in frame.items)
            self.settling.notify_all()

    def take_frames(self, fetch: Callable[["_Span", _Frame], None],
                    wanted: Optional[Set[int]] = None) -> None:
        """``fetch`` queued frames until none is left, or none holding a chunk
        at an offset in ``wanted``; only an interrupt propagates.  ``fetch``
        is passed, not kept: a span its reader holds must not refer back to
        it, or the client's pool lives until the cyclic GC runs."""
        while True:
            with self.settling:
                position = next((i for i, frame in enumerate(self.queue) if wanted is None
                                 or any(p.ref.offset in wanted for p, _ in frame.items)), None)
                if position is None:
                    return
                frame = self.queue.pop(position)
            try:
                fetch(self, frame)
            except BaseException as exc:
                with self.settling:  # set before a chunk settles unfilled
                    self.error = self.error or exc
                    self._settle([frame, *self.queue])
                    self.queue.clear()
                if not isinstance(exc, Exception):
                    raise
                return
            self._settle([frame])

    def drop(self) -> None:
        """Cancel queued frames and tasks not started; running ones finish
        their frame unobserved."""
        with self.settling:
            self.queue.clear()
        for task in self.tasks:
            task.cancel()


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
        corruption_reporter: Optional[Callable[[str, str], None]] = None,
        metrics: Optional[MetricsRegistry] = None,
        executor: Optional[Executor] = None,
        image_chunk: Callable[[str], Optional[ImageChunk]] = lambda chunk_id: None,
    ) -> None:
        self.transport = transport
        self.chunk_map = chunk_map
        self.addresses = dict(addresses)
        self.size = size
        self.verify_integrity = verify_integrity
        #: Called with a chunk id: the chunk of that id in the client's last
        #: committed image, if it has one (bytes that hashed to that id).
        #: A fetched chunk equal to it is not hashed again.  By default no
        #: chunk is in an image, and every content-addressed one is hashed.
        self.image_chunk = image_chunk
        self.scheduler = scheduler if scheduler is not None else ReplicaScheduler()
        #: Called with ``(chunk_id, benefactor_id)`` when a replica serves
        #: bytes that fail verification, so the evidence feeds repair
        #: (``report_corrupt_chunk``) instead of being discarded with the
        #: fallback.  Runs on worker threads; must never raise.
        self.corruption_reporter = corruption_reporter
        self.parallelism = max(1, read_parallelism)
        self._placements: List[ChunkPlacement] = list(chunk_map)
        self._starts = [p.ref.offset for p in self._placements]
        self._tiles = chunk_map.is_contiguous() and chunk_map.total_size == size
        #: Benefactors that answered ``ChunkNotFoundError`` for this version:
        #: reader-local (a node missing one chunk of a stale map is not a
        #: node failure), demoted rather than excluded on later fetches.
        self._missing: Set[str] = set()
        #: Spans held for range reads: the one being read, the one read ahead.
        self._spans: List[_Span] = []
        #: The client's shared worker pool; None keeps every fetch on the
        #: calling thread.  Borrowed: the reader tracks the futures it
        #: submitted and nothing else of the pool.
        self._executor = executor
        #: Guards the missing set and statistics.
        self._lock = threading.Lock()
        #: Simple statistics for benchmarks and tests.
        self.chunks_fetched = 0
        self.bytes_fetched = 0
        self.replica_fallbacks = 0
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
            self._compared_counter = metrics.counter(
                "client_chunks_compared_total",
                "Fetched chunks verified by comparison with the client's "
                "last image instead of SHA-1.",
            )
        else:
            self._fetch_timer = None
            self._chunks_counter = None
            self._read_bytes_counter = None
            self._fallback_counter = None
            self._compared_counter = None

    # -- chunk fetching -------------------------------------------------------
    def _verify(self, placement: ChunkPlacement, data: bytes) -> None:
        """Raise :class:`ChunkIntegrityError` unless ``data`` is the chunk.

        A content-addressed chunk is compared, then hashed: bytes equal to
        the client's image chunk of its id pass after one ``memcmp``; a
        chunk the image lacks, or whose bytes differ, is SHA-1 hashed as
        always, so the decision is the one hashing alone would make.
        """
        chunk_id = placement.ref.chunk_id
        if self.verify_integrity and is_content_addressed(chunk_id):
            entry = self.image_chunk(chunk_id)
            if entry is None or not same_bytes(entry, data):
                Chunk(chunk_id=chunk_id, data=data).verify()
            elif self._compared_counter is not None:
                self._compared_counter.inc()
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

    def _note_fetched(self, benefactor_id: str, data: bytes) -> None:
        """Account for one chunk that arrived intact from ``benefactor_id``."""
        self.scheduler.mark_alive(benefactor_id)
        with self._lock:
            self.chunks_fetched += 1
            self.bytes_fetched += len(data)
        if self._chunks_counter is not None:
            self._chunks_counter.inc()
            self._read_bytes_counter.inc(len(data))

    def _fetch_replicas(self, placement: ChunkPlacement, into: memoryview,
                        candidates: Sequence[str]) -> None:
        last_error: Optional[Exception] = None
        for position, benefactor_id in enumerate(candidates):
            address = self.addresses[benefactor_id]
            self.scheduler.begin(benefactor_id)
            try:
                (data,) = self.transport.call(
                    address, "get_chunks", into=[into],
                    chunk_ids=[placement.ref.chunk_id],
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
            if data is not into:
                # The transport ignored the hint or the chunk came in-band.
                into[:] = data
            self._note_fetched(benefactor_id, data)
            return
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

    def _fetch_into(self, span: _Span, placement: ChunkPlacement,
                    candidates: Sequence[str]) -> None:
        """Fetch one chunk to its window of ``span`` from the best replica, and
        give the window up: ``BytesIO.getvalue`` copies a buffer while any view
        of it is alive.

        Only issues RPCs (``corruption_reporter`` included): a task on the
        shared pool must never submit to the pool and wait, the pool may be
        one thread wide.  Unreachable, chunk-less and *corrupt* replicas all
        fall back to the next of ``candidates``.  A replica that fails leaves
        garbage in the window only, which the next one overwrites in full;
        when none is usable the chunk stays unfilled.
        """
        with span.window(placement) as into:
            self._in_trace(self._fetch_replicas, placement, into, candidates)
        span.filled.add(placement.ref.offset)

    # -- spans: planned frames, fetched by the pool and the caller ---------------
    def _plan_frames(self, first: int = 0, stop: Optional[int] = None) -> List[_Frame]:
        """Choose the replica of chunks ``[first, stop)``; frames in the order
        of their first chunk.

        First the benefactors to read from are picked by cover
        (:meth:`_cover`); then each chunk goes to its least-planned picked
        replica: ``ReplicaScheduler.order`` ranks its replicas, counting
        the chunks already planned per benefactor as outstanding, and the
        first picked one takes the chunk and leads its candidates, so a
        chunk the frame fails to deliver retries it first.  A chunk with no
        healthy replica goes to its best candidate, a failed one as a last
        resort.  There are never more than ``read_parallelism`` fetchers at
        a time (:meth:`_start`), so a frame beyond that many adds a round
        trip without adding parallelism.  A frame is closed when the next
        chunk would take it past the transfer unit, so a chunk that large
        always travels alone.  One offset of the scheduler's rotation breaks
        every tie of the plan: a read's frames depend on its chunk map,
        ``read_parallelism`` and what the client knows of failed and busy
        benefactors, not on how many chunks it read before.
        """
        placements = self._placements[first:stop]
        with self._lock:
            missing = set(self._missing)
        start = self.scheduler.next_start()
        dialable = [[b for b in p.benefactors if b in self.addresses] for p in placements]
        picked = self._cover(dialable, self.scheduler.failed_benefactors | missing, start)
        planned: Dict[str, int] = {}
        frames: List[_Frame] = []
        taking: Dict[Optional[str], _Frame] = {}
        for placement, holders in zip(placements, dialable):
            length = placement.ref.length
            candidates = self.scheduler.order(holders, demote=missing, planned=planned,
                                              start=start)
            # With no replica to dial the per-chunk path says so, for this chunk.
            chosen = next((b for b in candidates if b in picked),
                          candidates[0] if candidates else None)
            if chosen is not None and chosen != candidates[0]:
                candidates = [chosen, *(b for b in candidates if b != chosen)]
            frame = taking.get(chosen)
            if frame is None or frame.size + length > TRANSFER_UNIT:
                frame = taking[chosen] = _Frame(chosen)
                frames.append(frame)
            frame.items.append((placement, candidates))
            frame.size += length
            if chosen is not None:
                planned[chosen] = planned.get(chosen, 0) + 1
        return frames

    def _cover(self, dialable: Sequence[Sequence[str]], unhealthy: Set[str],
               start: int) -> Set[str]:
        """The benefactors a plan reads from, by greedy cover of its chunks
        (``dialable``: each chunk's replicas this reader can dial): the
        healthy holder of the most chunks no pick holds yet, then the holder
        of most of the rest, until every chunk with a healthy replica is
        held and ``read_parallelism`` benefactors are picked.  A parallelism
        at least the number of holders therefore still reads from every
        holder.  Ties go to the holder of more chunks, then to the first in
        ``ReplicaScheduler.order`` at ``start`` (fewest outstanding fetches,
        then the rotation)."""
        holds: Dict[str, Set[int]] = {}
        for index, holders in enumerate(dialable):
            for benefactor_id in holders:
                if benefactor_id not in unhealthy:
                    holds.setdefault(benefactor_id, set()).add(index)
        left = self.scheduler.order(list(holds), start=start)
        rest = set().union(*holds.values())
        picked: Set[str] = set()
        while left and (rest or len(picked) < self.parallelism):
            best = max(left, key=lambda b: (len(holds[b] & rest), len(holds[b])))
            left.remove(best)
            picked.add(best)
            rest.difference_update(holds[best])
        return picked

    def _span(self, first: int, stop: int) -> _Span:
        return _Span(first, stop, self._plan_frames(first, stop))

    def _fetch_frame(self, span: _Span, frame: _Frame) -> None:
        """Fill the frame's windows of ``span`` (what every fetcher runs): one
        ``get_chunks``, then the per-chunk path for whatever it did not deliver
        intact."""
        for placement, candidates in self._in_trace(self._fetch_together, span, frame):
            self._fetch_into(span, placement, candidates)

    def _fetch_together(self, span: _Span,
                        frame: _Frame) -> List[Tuple[ChunkPlacement, List[str]]]:
        """One ``get_chunks`` into the frame's windows; returns the items it
        left unfilled: all of them on any error or without a replica to dial,
        the corrupt ones otherwise, each reported and left with its other
        replicas only."""
        benefactor_id = frame.benefactor_id
        if benefactor_id is None:
            return frame.items
        windows = [span.window(p) for p, _ in frame.items]
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
            for (placement, candidates), window, data in zip(frame.items, windows, payloads):
                try:
                    self._verify(placement, data)
                except ChunkIntegrityError:
                    # Asking the same copy again would return the same bytes.
                    unfilled.append((placement, [b for b in candidates if b != benefactor_id]))
                    continue
                if data is not window:
                    # The transport ignored the hint or the chunk came in-band.
                    window[:] = data
                self._note_fetched(benefactor_id, data)
                span.filled.add(placement.ref.offset)
            for placement, others in unfilled:  # after the intact chunks marked it alive
                self.scheduler.mark_failed(benefactor_id)
                self._report_corruption(placement.ref.chunk_id, benefactor_id)
                if others:
                    self._note_fallback()
            return unfilled
        finally:
            for window in windows:
                window.release()

    def _start(self, span: _Span, caller: bool) -> None:
        """Submit pool tasks taking the span's frames, no wait: a fetcher per
        frame up to ``read_parallelism``, one fewer if the ``caller`` is one
        (at parallelism 1, or for a single frame, it then fetches alone)."""
        if self._executor is not None:
            tasks = min(self.parallelism, len(span.queue)) - caller
            span.tasks = [self._executor.submit(span.take_frames, self._fetch_frame)
                          for _ in range(tasks)]

    def _finish(self, span: _Span) -> None:
        """The caller takes the frames left, then waits for the span's tasks
        (idempotent): tasks that have not started are cancelled and running
        ones waited for, since each holds windows of the span."""
        try:
            span.take_frames(self._fetch_frame)
        finally:
            for task in span.tasks:
                task.cancel()
            wait(span.tasks)
        for task in span.tasks:  # a task raises an interrupt only, like the caller
            if not task.cancelled():
                task.result()

    def _await(self, span: _Span, first: int, stop: int) -> None:
        """Return once chunks ``[first, stop)`` of ``span`` are settled: the
        caller fetches the queued frames holding any of them and waits for
        the fetchers of the rest, while the span's other frames go on."""
        wanted = {p.ref.offset for p in self._placements[first:stop]}
        if wanted <= span.settled:
            return
        span.take_frames(self._fetch_frame, wanted)
        with span.settling:
            span.settling.wait_for(lambda: wanted <= span.settled)

    def close(self) -> None:
        """Drop outstanding fetches (safe to call repeatedly; reads may follow)."""
        for span in self._spans:
            span.drop()
        self._spans = []

    # -- public reads ------------------------------------------------------------
    def _require_tiling(self) -> None:
        """Buffers start as zeros: a map that does not tile exactly ``size``
        bytes fails before any fetch, never hands a restarting job zeros."""
        if not self._tiles:
            raise ReadFailedError(f"chunk map does not tile the file: it holds "
                                  f"{self.chunk_map.total_size} bytes, metadata size is "
                                  f"{self.size}")

    def read_all(self) -> bytes:
        """Fetch the whole file as one ``bytes``: one span whose windows are
        the image's, allocated once, so every chunk is received straight into
        its final position (``Transport.call(..., into=...)``) and nothing is
        joined.  The image's aligned 2 MiB interior is first advised for
        transparent huge pages (:func:`~repro.util.memory.advise_huge_pages`),
        so the kernel faults it in 2 MiB pages rather than 4 KiB ones."""
        self._require_tiling()
        # ``BytesIO`` owns a calloc'd ``bytes`` (no page touched yet) and, once
        # every view is released, ``getvalue`` returns that very object.
        image = io.BytesIO(bytes(self.size))
        view = image.getbuffer()
        try:
            advise_huge_pages(view)
            span = _Span(0, len(self._placements), self._plan_frames(), view)
            self._start(span, caller=True)
            self._finish(span)
        finally:
            view.release()
        if span.error is not None:
            raise span.error
        return image.getvalue()

    def _take(self, span: _Span, index: int, keep: bool = True) -> bytes:
        """Chunk ``index`` of finished ``span`` (``keep=False``: the span gives
        it up).  A chunk the span did not deliver raises the error that
        stopped it, and a held span is let go: a later read fetches afresh."""
        offset = self._placements[index].ref.offset
        if offset not in span.filled:
            if span in self._spans:
                self._spans.remove(span)
            raise span.error
        return (span.buffers[offset] if keep else span.buffers.pop(offset)).getvalue()

    def read_iter(self) -> Iterator[bytes]:
        """Stream the file chunk-by-chunk in chunk-map order, each chunk the
        ``bytes`` it was received into.  Spans are at most ``read_parallelism``
        transfer units (one chunk at least) and the next is started on the
        pool before the current one is yielded: two spans, never the image."""
        self._require_tiling()
        return self._stream()

    def _stream(self) -> Iterator[bytes]:
        limit, starts, taken = self.parallelism * TRANSFER_UNIT, [0], 0
        for index, placement in enumerate(self._placements):
            if index > starts[-1] and taken + placement.ref.length > limit:
                starts.append(index)
                taken = 0
            taken += placement.ref.length
        bounds = zip(starts, starts[1:] + [len(self._placements)])
        held = [self._span(*next(bounds))]  # the span being read, the one read ahead
        try:
            self._start(held[0], caller=True)
            while held:
                current = held[0]
                self._finish(current)
                ahead = next(bounds, None)
                if ahead is not None:
                    held.append(self._span(*ahead))
                    self._start(held[1], caller=False)
                for index in range(current.first, current.stop):
                    yield self._take(current, index, keep=False)
                held.pop(0)
        finally:
            for span in held:
                span.drop()

    def _chunks(self, offset: int, length: int) -> Tuple[int, int]:
        """Chunks ``[first, stop)`` holding bytes ``[offset, offset+length)``
        of a map that tiles the file."""
        return bisect_right(self._starts, offset) - 1, bisect_left(self._starts, offset + length)

    def _gap(self, first: int, stop: int) -> Optional[Tuple[int, int]]:
        """The first run of chunks in ``[first, stop)`` no held span covers."""
        for span in self._spans:  # in chunk order
            if span.first <= first < span.stop:
                first = span.stop
        ahead = [s.first for s in self._spans if s.first > first]
        return (first, min(ahead + [stop])) if first < stop else None

    def _hold(self, first: int, stop: int, caller: bool) -> _Span:
        """The held span holding chunk ``first``, once the first run of chunks
        ``[first, stop)`` no held span covers is planned and started
        (``caller``: the caller fetches it too).  Room is made first: held
        spans outside the range are let go, and both when neither holds
        ``first``; while two held spans are both needed, the run waits."""
        if self._gap(first, stop) is not None:
            held = [s for s in self._spans if s.stop > first and s.first < stop]
            if len(held) == 2 and not any(s.first <= first for s in held):
                held = []  # both further on in the range: fetch afresh
            for span in self._spans:
                if span not in held:
                    span.drop()
            self._spans = held
            if len(held) < 2:
                span = self._span(*self._gap(first, stop))
                self._start(span, caller)
                self._spans = sorted([*held, span], key=lambda s: s.first)
        return next(s for s in self._spans if s.first <= first < s.stop)

    def read_range(self, offset: int, length: int) -> bytes:
        """Fetch an arbitrary byte range (used by the FS facade) from the spans
        held, the one being read and the one read ahead (:meth:`prefetch`),
        or a new one; a sequential scan in sub-chunk reads fetches every chunk
        once, and a read waits only for the frames holding its own chunks."""
        if offset < 0:
            raise ValueError("offset must be non-negative")
        self._require_tiling()
        if length <= 0 or offset >= self.size:
            return b""
        end = min(offset + length, self.size)
        index, stop = self._chunks(offset, end - offset)
        parts: List[bytes] = []
        while index < stop:
            span = self._hold(index, stop, caller=True)
            upto = min(span.stop, stop)
            self._await(span, index, upto)
            for chunk_index in range(index, upto):
                data = self._take(span, chunk_index)
                ref = self._placements[chunk_index].ref
                parts.append(data[max(offset - ref.offset, 0):min(end - ref.offset, ref.length)])
            index = upto
        return b"".join(parts)

    def prefetch(self, offset: int, length: int) -> None:
        """Read ``[offset, offset+length)`` ahead on the client's worker pool
        (the FS facade's read-ahead): :meth:`read_range`'s rule, the span
        fetched by pool tasks alone, one even at ``read_parallelism=1``.  A
        no-op for chunks held or pending, or without an executor; never
        blocks.  A failure surfaces on the read that needs the chunk."""
        self._require_tiling()
        if self._executor is None or length <= 0 or offset >= self.size:
            return
        self._hold(*self._chunks(offset, min(length, self.size - offset)), caller=False)
