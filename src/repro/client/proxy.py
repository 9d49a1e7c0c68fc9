"""The client proxy: application-facing entry point of the stdchk library.

A :class:`ClientProxy` wraps one application's (or one desktop-grid job's)
interaction with the stdchk pool: namespace operations, write sessions under
any of the three write protocols, whole-file and range reads, version
inspection and restart support.  The POSIX-like facade in ``repro.fs`` builds
on this class; applications that prefer an explicit API can use it directly.

The proxy owns the one worker pool of the client data path: every write
session and reader it opens submits its chunk pushes, fetches and prefetches
there, so a warm ``write_file`` or ``read_file`` starts and joins no thread.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import threading
import zlib
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Iterator, List, Optional, Sequence

from repro.client.failover import FailoverTransport, ManagerDirectory
from repro.client.read_path import ReplicaScheduler, StripedReader
from repro.client.session import Image, ImageChunk, WriteStats
from repro.client.write_protocols import WriteSession, make_write_session
from repro.core.chunk_map import ChunkMap
from repro.exceptions import FileNotFoundInStdchkError
from repro.obs import MetricsRegistry, runtime, tracing
from repro.transport.base import Transport
from repro.util.clock import Clock, SystemClock
from repro.util.config import SimilarityHeuristic, StdchkConfig
from repro.util.naming import CheckpointName, parse_checkpoint_name

#: Root operations a client may trace back to back before ``trace_rate``
#: paces it: the depth of its trace budget's token bucket.
TRACE_BURST = 32

#: The ``WriteStats`` fields a client adds up and exports as the
#: ``client_<field>_total`` counters.
_WRITE_STAT_FIELDS = tuple(field.name for field in dataclasses.fields(WriteStats))


class ClientProxy:
    """One client's connection to a stdchk pool."""

    def __init__(
        self,
        client_id: str,
        transport: Transport,
        manager_address: str,
        config: Optional[StdchkConfig] = None,
        clock: Optional[Clock] = None,
        spool_dir: Optional[str] = None,
        standby_addresses: Optional[Sequence[str]] = None,
    ) -> None:
        self.client_id = client_id
        self._base_transport = transport
        self.transport = transport
        self.manager_address = manager_address
        self.config = config if config is not None else StdchkConfig()
        self.clock = clock if clock is not None else SystemClock()
        self.spool_dir = spool_dir
        #: Trace budget: a token bucket on ``clock`` refilled at
        #: ``config.trace_rate`` per second up to ``TRACE_BURST``; a root
        #: operation is traced only if it can take a token.
        self._trace_tokens = float(TRACE_BURST)
        self._trace_refilled = self.clock.now()
        self._trace_lock = threading.Lock()
        #: Manager failover directory; None until the client knows at least
        #: one standby endpoint (config or ``enable_failover``).
        self.directory: Optional[ManagerDirectory] = None
        #: Aggregated statistics across every session this client committed,
        #: added up when each one closes.
        self.lifetime_stats = WriteStats()
        #: The chunks of the last image a content-addressed sliding-window
        #: session of this client committed, handed to the next one to
        #: compare before it hashes (``ChunkPusher``); empty with FsCH off.
        self._last_image: Image = ()
        #: The same chunks by id, which this client's readers compare a
        #: fetched chunk with before they hash it (``StripedReader._verify``).
        self._image_by_id: Dict[str, ImageChunk] = {}
        self._lifetime_lock = threading.Lock()
        #: Per-client metrics registry; every session/reader opened by this
        #: client records into it, and ``StdchkPool.metrics()`` exports it.
        self.obs = MetricsRegistry(component="client", node_id=client_id,
                                   clock=self.clock)
        #: Replica selection state shared by every reader of this client, so
        #: one reader's failed-benefactor discovery benefits the next and
        #: concurrent readers spread load across replicas.  Its ties start at
        #: an offset hashed from the client id (stable across processes,
        #: unlike ``hash``), so a restart storm of fresh clients spreads
        #: over a hot chunk's replicas by itself.
        self.replica_scheduler = ReplicaScheduler(
            metrics=self.obs, seed=zlib.crc32(client_id.encode()))
        #: The only executor of the client data path, built on first use (its
        #: threads start on first submit, so a client that never pushes,
        #: fetches or prefetches in parallel never owns one).
        self._workers: Optional[ThreadPoolExecutor] = None
        self._workers_lock = threading.Lock()
        self._write_seconds = self.obs.histogram(
            "client_write_seconds", "End-to-end write_file latency."
        )
        self._read_seconds = self.obs.histogram(
            "client_read_seconds", "End-to-end read_file latency."
        )
        for field in _WRITE_STAT_FIELDS:
            self.obs.counter(
                f"client_{field}_total",
                f"Lifetime write-session total of the {field!r} statistic.",
            ).set_function(functools.partial(getattr, self.lifetime_stats, field))
        standbys = tuple(self.config.standby_endpoints)
        if standby_addresses:
            standbys += tuple(standby_addresses)
        if standbys or getattr(transport, "supports_failover", False):
            self.enable_failover(standbys)

    # -- manager failover ------------------------------------------------------
    def enable_failover(self, standby_addresses: Sequence[str] = ()) -> None:
        """Route manager RPCs through the retry-and-rediscover layer.

        Idempotent: late-learned standbys (``StdchkPool.add_standby`` on a
        pool with existing clients) merge into the directory.  Sessions and
        readers opened afterwards inherit the wrapped transport.
        """
        if self.directory is not None:
            self.directory.note_candidates(standby_addresses)
            return
        if getattr(self._base_transport, "supports_failover", False):
            # Caller handed us an already-wrapped transport: share its
            # directory instead of stacking a second retry loop.
            self.directory = self._base_transport.directory
            self.directory.note_candidates([self.manager_address])
            self.directory.note_candidates(standby_addresses)
            return
        self.directory = ManagerDirectory(
            [self.manager_address, *standby_addresses]
        )
        self.transport = FailoverTransport(
            self._base_transport, self.directory,
            config=self.config, obs=self.obs, clock=self.clock,
        )

    # -- worker pool -----------------------------------------------------------
    def _worker_pool(self) -> ThreadPoolExecutor:
        """The pool every session and reader of this client submits to.

        ``push_parallelism`` / ``read_parallelism`` size it, so they bound
        the client's concurrent pushes and fetches across all its open
        sessions and readers; the per-operation windows still bound each
        one's memory.  Sessions and readers borrow it: they keep track of
        their own futures and never shut it down.  Nothing that runs on it
        may submit to it and wait — it can be one thread wide — and today
        nothing does: push and fetch tasks only issue RPCs.  It is referenced
        from this proxy alone (no registry, no ``atexit`` hook), so a proxy
        dropped without :meth:`close` takes its idle workers with it.
        """
        with self._workers_lock:
            if self._workers is None:
                # Both knobs are validated positive, so even a 1/1 client
                # gets the one worker its read-ahead needs.
                self._workers = ThreadPoolExecutor(
                    max_workers=max(self.config.push_parallelism,
                                    self.config.read_parallelism),
                    thread_name_prefix=f"stdchk-{self.client_id}",
                )
            return self._workers

    def close(self) -> None:
        """Finish queued work and join the worker threads (idempotent).

        Call it with no operation in flight.  The proxy stays usable: the
        next parallel operation starts a new pool.
        """
        with self._workers_lock:
            workers, self._workers = self._workers, None
        if workers is not None:
            workers.shutdown(wait=True)

    # -- manager sugar -------------------------------------------------------
    def _manager(self, method: str, **payload):
        return self.transport.call(self.manager_address, method, **payload)

    def _take_trace_token(self) -> bool:
        """Whether the trace budget admits one more root operation now."""
        rate = self.config.trace_rate
        if rate == math.inf:
            return True
        if rate <= 0:
            return False
        with self._trace_lock:
            now = self.clock.now()
            tokens = min(float(TRACE_BURST),
                         self._trace_tokens + (now - self._trace_refilled) * rate)
            self._trace_refilled = now
            admitted = tokens >= 1.0
            self._trace_tokens = tokens - 1.0 if admitted else tokens
        return admitted

    def _root_span(self, name: str, **attributes):
        """The span of one client operation, if the trace budget admits it.

        Inside an active trace context this is an ordinary child span, budget
        or not: the budget gates only *roots*, so one decision covers the
        whole RPC tree of an operation.  A refused root records nothing and
        propagates nothing, unless it fails: then one error span remains.
        """
        if not runtime.ENABLED:
            return tracing.NO_SPAN
        if tracing.current_context() is None and not self._take_trace_token():
            return tracing.record_failure(
                name, component="client", node_id=self.client_id,
                attributes=attributes,
            )
        return tracing.start_span(
            name, component="client", node_id=self.client_id,
            attributes=attributes,
        )

    # -- namespace -------------------------------------------------------------
    def mkdir(self, path: str, retention_kind: Optional[str] = None,
              purge_after: float = 3600.0, keep_last: int = 1) -> None:
        """Create an application folder, optionally with a retention policy."""
        self._manager(
            "make_folder",
            path=path,
            retention_kind=retention_kind,
            purge_after=purge_after,
            keep_last=keep_last,
        )

    def set_retention(self, path: str, retention_kind: str,
                      purge_after: float = 3600.0, keep_last: int = 1) -> None:
        self._manager(
            "set_retention",
            path=path,
            retention_kind=retention_kind,
            purge_after=purge_after,
            keep_last=keep_last,
        )

    def listdir(self, path: str) -> List[str]:
        return self._manager("list_dir", path=path)

    def exists(self, path: str) -> bool:
        return self._manager("exists", path=path)

    def stat(self, path: str) -> Dict[str, object]:
        return self._manager("stat", path=path)

    def delete(self, path: str) -> Dict[str, object]:
        return self._manager("delete", path=path)

    def versions(self, path: str) -> List[Dict[str, object]]:
        return self._manager("get_versions", path=path)

    # -- writes ----------------------------------------------------------------------
    def open_write(self, path: str, expected_size: int = 0,
                   producer: str = "", timestep: Optional[int] = None,
                   stripe_width: Optional[int] = None,
                   replication_level: Optional[int] = None) -> WriteSession:
        """Open a write session for ``path`` under the configured protocol.

        When incremental checkpointing (FsCH) is enabled the previous
        version's chunk inventory is fetched so unchanged chunks are never
        re-pushed, and the session is handed this client's last committed
        image so a chunk equal to its counterpart there is not hashed again.
        """
        session_info = self._manager(
            "create_session",
            path=path,
            client_id=self.client_id,
            expected_size=expected_size,
            stripe_width=stripe_width,
            replication_level=replication_level,
        )
        existing_chunks: Dict[str, List[str]] = {}
        previous_image: Optional[Image] = None
        if self.config.similarity_heuristic is not SimilarityHeuristic.NONE:
            answer = self._manager("get_existing_chunks", path=path)
            existing_chunks = dict(answer.get("chunks", {}))
            previous_image = self._last_image
        return make_write_session(
            protocol=self.config.write_protocol,
            transport=self.transport,
            manager_address=self.manager_address,
            session_info=session_info,
            config=self.config,
            existing_chunks=existing_chunks,
            clock=self.clock,
            producer=producer,
            timestep=timestep,
            spool_dir=self.spool_dir,
            metrics=self.obs,
            executor=self._worker_pool(),
            on_close=self._committed,
            previous_image=previous_image,
        )

    def write_file(self, path: str, data: bytes, producer: str = "",
                   timestep: Optional[int] = None,
                   block_size: int = 0) -> WriteSession:
        """Convenience: write ``data`` to ``path`` in one call and close.

        ``block_size`` simulates the application's own write granularity
        (applications usually write in small blocks while remote storage is
        accessed in ~1 MB chunks); 0 writes everything in one call.  Blocks
        are views of ``data``, which the session copies, so no FsCH image
        keeps them (``ChunkPusher.feed``).
        """
        with self._root_span("client.write_file", path=path, bytes=len(data)):
            with self._write_seconds.time():
                session = self.open_write(
                    path, expected_size=len(data), producer=producer,
                    timestep=timestep,
                )
                try:
                    if block_size and block_size > 0:
                        with memoryview(data) as view:
                            for start in range(0, len(data), block_size):
                                session.write(view[start:start + block_size])
                    else:
                        session.write(data)
                    session.close()
                except Exception:
                    session.abort()
                    raise
        return session

    def write_checkpoint(self, name: CheckpointName, data: bytes,
                         folder: Optional[str] = None) -> WriteSession:
        """Write a checkpoint image following the ``A.Ni.Tj`` convention.

        All images of the same application are versions under the same
        application folder; the file name encodes the producing node and the
        timestep.
        """
        base = folder if folder is not None else f"/{name.folder}"
        path = f"{base}/{name.filename}"
        return self.write_file(
            path, data, producer=f"N{name.node}", timestep=name.timestep
        )

    def _committed(self, session: WriteSession) -> None:
        """Add a committed session's statistics to :attr:`lifetime_stats`;
        its image, if content addressed, replaces the last one, and is
        indexed by chunk id once, here, for the readers."""
        stats = session.stats
        image = session.pusher.take_image()
        lifetime = self.lifetime_stats
        with self._lifetime_lock:
            if image is not None:
                self._last_image = image
                self._image_by_id = {entry[3]: entry for entry in image
                                     if entry is not None}
            for field in _WRITE_STAT_FIELDS:
                setattr(lifetime, field,
                        getattr(lifetime, field) + getattr(stats, field))

    # -- reads ------------------------------------------------------------------------
    def open_read(self, path: str, version: Optional[int] = None) -> StripedReader:
        """Build a reader for ``path`` (latest version by default).

        Corrupt replicas discovered by the reader's verification are
        reported to the manager's corruption ledger (``report_corrupt_chunk``)
        so the fallback feeds repair instead of discarding the evidence.
        The reader compares a fetched chunk with this client's last image
        before it hashes it: a chunk whose bytes equal the image's chunk of
        its id is not hashed again, and counts in ``client_chunks_compared_total``
        (its share of ``client_chunks_fetched_total`` is the share of fetched
        chunks that skipped SHA-1).  It asks the client at each check, so a
        reader left open keeps no replaced image alive.
        """
        answer = self._manager("get_chunk_map", path=path, version=version)
        return StripedReader(
            transport=self.transport,
            chunk_map=ChunkMap.from_dict(answer["chunk_map"]),
            addresses=answer["addresses"],
            size=answer["size"],
            read_parallelism=self.config.read_parallelism,
            scheduler=self.replica_scheduler,
            corruption_reporter=self._report_corrupt_chunk,
            metrics=self.obs,
            executor=self._worker_pool(),
            image_chunk=self._image_chunk,
        )

    def _image_chunk(self, chunk_id: str) -> Optional[ImageChunk]:
        # Looked up here at each call: a reader handed the dict itself
        # would keep a replaced image alive.
        return self._image_by_id.get(chunk_id)

    def _report_corrupt_chunk(self, chunk_id: str, benefactor_id: str) -> None:
        self._manager(
            "report_corrupt_chunk",
            chunk_id=chunk_id,
            benefactor_id=benefactor_id,
            reporter=self.client_id,
        )

    def read_file(self, path: str, version: Optional[int] = None) -> bytes:
        """Read a whole file (a checkpoint image for a restart)."""
        with self._root_span("client.read_file", path=path):
            with self._read_seconds.time():
                return self.open_read(path, version=version).read_all()

    def read_file_iter(self, path: str,
                       version: Optional[int] = None) -> Iterator[bytes]:
        """Stream a file chunk-by-chunk without buffering it whole.

        Restart-sized images can be piped straight into the restarting
        process; memory stays bounded by two spans of ``read_parallelism``
        transfer units, the one being yielded and the one read ahead.
        """
        return self.open_read(path, version=version).read_iter()

    def read_range(self, path: str, offset: int, length: int,
                   version: Optional[int] = None) -> bytes:
        reader = self.open_read(path, version=version)
        try:
            return reader.read_range(offset, length)
        finally:
            reader.close()

    def restore_latest_checkpoint(self, application: str,
                                  folder: Optional[str] = None) -> Dict[str, object]:
        """Locate and read the most recent checkpoint image of ``application``.

        Returns a dict with the chosen path, parsed name and image bytes —
        what a restarting (or migrating) process needs to resume.
        """
        base = folder if folder is not None else f"/{application}"
        try:
            entries = self.listdir(base)
        except FileNotFoundInStdchkError:
            raise FileNotFoundInStdchkError(
                f"no checkpoints stored for application {application!r}"
            ) from None
        best: Optional[CheckpointName] = None
        for entry in entries:
            try:
                name = parse_checkpoint_name(entry)
            except Exception:
                continue
            if name.application != application:
                continue
            if best is None or (name.timestep, name.node) > (best.timestep, best.node):
                best = name
        if best is None:
            raise FileNotFoundInStdchkError(
                f"no checkpoints stored for application {application!r}"
            )
        path = f"{base}/{best.filename}"
        return {"path": path, "name": best, "data": self.read_file(path)}
