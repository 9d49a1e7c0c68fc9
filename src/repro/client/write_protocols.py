"""The three write-optimized protocols of section IV.B.

All three present the same streaming interface (``write`` then ``close``) and
share the :class:`~repro.client.session.ChunkPusher` data path; they differ
in *when* data leaves the client and how much node-local buffering they use:

* **Complete local write (CLW)** — spool the entire file locally (a temporary
  file, or memory for small files), push everything to benefactors only after
  the application closes the file.  Simple, but serializes local I/O and
  network transfer and leaves the data exposed to local-node failure.
* **Incremental write (IW)** — spool into bounded temporary files; whenever a
  temporary file reaches its size limit its contents are pushed and the spool
  restarts, overlapping data production with remote propagation.
* **Sliding window (SW)** — no local disk at all: data goes from the write
  memory buffer straight to benefactors.

The *observed application bandwidth* (OAB) and *achieved storage bandwidth*
(ASB) distinction of the paper's evaluation maps onto two timestamps exposed
by every session: ``close()`` returns when the application would regain
control, while ``storage_complete_time`` records when the last chunk reached
stdchk storage (for the functional, in-process implementation the two
coincide except for CLW's deferred push; the discrete-event simulator models
the full asynchrony for the throughput figures).

All three protocols inherit the parallel data path of
:class:`~repro.client.session.ChunkPusher`: with
``StdchkConfig.push_parallelism > 1`` and the opening client's worker pool
(``executor``) the IW and SW sessions overlap spooling with propagation
(``write`` returns as soon as its frames enter the bounded in-flight window),
and ``close``/``finish`` waits for the window to drain before committing the
chunk-map.  A session borrows the pool: ``abort`` cancels its own queued
pushes only.
"""

from __future__ import annotations

import os
import tempfile
from abc import ABC, abstractmethod
from concurrent.futures import Executor
from typing import Callable, Dict, List, Optional

from repro.client.session import ChunkPusher, WriteStats
from repro.exceptions import (
    SessionCommittedError,
    SessionStateError,
    StdchkError,
    UnknownDatasetError,
)
from repro.obs import MetricsRegistry
from repro.transport.base import Transport
from repro.transport.tcp import TRANSFER_UNIT
from repro.util.clock import Clock, SystemClock
from repro.util.config import StdchkConfig, WriteProtocol


class WriteSession(ABC):
    """One open-for-write file: accepts bytes, commits a chunk-map on close."""

    protocol: WriteProtocol

    def __init__(
        self,
        transport: Transport,
        manager_address: str,
        session_info: Dict[str, object],
        config: StdchkConfig,
        existing_chunks: Optional[Dict[str, List[str]]] = None,
        clock: Optional[Clock] = None,
        producer: str = "",
        timestep: Optional[int] = None,
        metrics: Optional[MetricsRegistry] = None,
        executor: Optional[Executor] = None,
        on_close: Optional[Callable[[WriteStats], None]] = None,
    ) -> None:
        self.transport = transport
        self.manager_address = manager_address
        self.session_info = session_info
        self.config = config
        self.clock = clock if clock is not None else SystemClock()
        self.producer = producer
        self.timestep = timestep
        self.pusher = ChunkPusher(
            transport=transport,
            manager_address=manager_address,
            session_info=session_info,
            config=config,
            existing_chunks=existing_chunks,
            metrics=metrics,
            executor=executor,
        )
        self.open_time = self.clock.now()
        self.close_time: Optional[float] = None
        self.storage_complete_time: Optional[float] = None
        self.committed = False
        self.aborted = False
        #: Told the session's statistics once it has committed.
        self._on_close = on_close

    # -- state helpers ------------------------------------------------------
    @property
    def session_id(self) -> str:
        return self.session_info["session_id"]  # type: ignore[return-value]

    @property
    def stats(self) -> WriteStats:
        return self.pusher.stats

    @property
    def size(self) -> int:
        return self.pusher.total_size

    def _require_open(self) -> None:
        if self.committed or self.aborted:
            raise SessionStateError(
                f"session {self.session_id} is no longer open"
            )

    # -- protocol-specific hooks ----------------------------------------------
    @abstractmethod
    def write(self, data: bytes) -> int:
        """Accept application bytes; returns the number of bytes accepted."""

    @abstractmethod
    def _drain(self) -> None:
        """Push any data still held locally (called from close)."""

    def _push_spool(self, spool) -> None:
        """Feed a spool file to the pusher, then close and delete it.

        Each ``feed`` takes a transfer unit of whole chunks (one chunk when
        chunks are larger), so a spooled session frames like a streamed one.
        """
        chunk_size = self.pusher.chunk_size
        block_size = chunk_size * max(1, TRANSFER_UNIT // chunk_size)
        spool.flush()
        spool.seek(0)
        while True:
            block = spool.read(block_size)
            if not block:
                break
            self.pusher.feed(block)
        spool.close()
        os.unlink(spool.name)

    # -- close / abort -----------------------------------------------------------
    def close(self, attributes: Optional[Dict[str, str]] = None) -> Dict[str, object]:
        """Flush, commit the chunk-map to the manager, and end the session."""
        self._require_open()
        self._drain()
        chunk_map = self.pusher.finish()
        self.storage_complete_time = self.clock.now()
        result = self._commit(chunk_map, attributes or {})
        self.committed = True
        self.close_time = self.clock.now()
        if self._on_close is not None:
            self._on_close(self.stats)
        return result

    def _commit(self, chunk_map, attributes: Dict[str, str]) -> Dict[str, object]:
        """Commit the chunk-map, absorbing failover-induced duplication.

        Behind a failover transport a commit may be *retried* against a
        promoted standby after the first attempt's fate became unknowable
        (the old primary died mid-RPC).  Two outcomes need idempotence-aware
        handling, both gated on ``supports_failover`` so single-manager
        clients keep strict semantics:

        * :class:`SessionCommittedError` — the first attempt landed and its
          commit record shipped before the death: the manager found the
          version the session made (every attempt names the ``dataset_id``
          and ``version`` it was given), so synthesize the success answer.
        * ``UnknownDatasetError`` — the session's ``create_session`` record
          never reached the standby (it was buffered, not yet shipped):
          replay the whole session — re-open the same path and commit the
          same chunk-map, whose chunks already sit on the benefactors.
        """
        payload = dict(
            chunk_map=chunk_map.to_dict(),
            size=self.pusher.total_size,
            producer=self.producer,
            timestep=self.timestep,
            attributes=attributes,
        )
        failover = getattr(self.transport, "supports_failover", False)

        def commit() -> Dict[str, object]:
            info = self.session_info
            return self.transport.call(
                self.manager_address, "commit_session",
                session_id=info["session_id"], dataset_id=info["dataset_id"],
                version=info["version"], **payload,
            )

        try:
            return commit()
        except SessionCommittedError:
            if not failover:
                raise
            return {
                "committed": True,
                "dataset_id": self.session_info["dataset_id"],
                "version": self.session_info["version"],
                "size": self.pusher.total_size,
            }
        except UnknownDatasetError:
            if not failover:
                raise
            session_info = self.transport.call(
                self.manager_address, "create_session",
                path=self.session_info["path"],
                client_id=self.session_info["client_id"],
                expected_size=self.pusher.total_size,
            )
            self.session_info = session_info
            return commit()

    def abort(self) -> None:
        """Abandon the session; pushed chunks become orphans for GC."""
        if self.committed or self.aborted:
            return
        self.pusher.cancel()
        try:
            self.transport.call(
                self.manager_address, "abort_session", session_id=self.session_id
            )
        except StdchkError:
            # Abort is best-effort cleanup: behind a failover transport the
            # promoted standby may never have seen this session, and callers
            # abort while propagating the *original* error — masking it with
            # a cleanup failure helps nobody.  The reservation lease expires
            # on its own; orphan chunks fall to GC.
            if not getattr(self.transport, "supports_failover", False):
                raise
        self.aborted = True
        self.close_time = self.clock.now()

    # -- metrics -------------------------------------------------------------------
    @property
    def observed_duration(self) -> float:
        """Seconds between open() and close() as seen by the application."""
        end = self.close_time if self.close_time is not None else self.clock.now()
        return max(end - self.open_time, 0.0)

    @property
    def storage_duration(self) -> float:
        """Seconds between open() and the data being safe in stdchk storage."""
        end = (
            self.storage_complete_time
            if self.storage_complete_time is not None
            else self.clock.now()
        )
        return max(end - self.open_time, 0.0)

    def __enter__(self) -> "WriteSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            if not self.committed and not self.aborted:
                self.close()
        else:
            self.abort()


class SlidingWindowWriteSession(WriteSession):
    """Sliding-window writes: memory buffer straight to the network."""

    protocol = WriteProtocol.SLIDING_WINDOW

    def write(self, data: bytes) -> int:
        self._require_open()
        # The pusher flushes complete chunks eagerly, so memory stays bounded
        # by its in-flight window (``2 * push_parallelism`` frames).
        self.pusher.feed(data)
        return len(data)

    def _drain(self) -> None:
        # Nothing buffered beyond the trailing partial chunk, which
        # ``ChunkPusher.finish`` flushes.
        return


class IncrementalWriteSession(WriteSession):
    """Incremental writes: bounded local temporary files pushed as they fill."""

    protocol = WriteProtocol.INCREMENTAL

    def __init__(self, *args, spool_dir: Optional[str] = None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._spool_dir = spool_dir
        self._spool = tempfile.NamedTemporaryFile(
            prefix="stdchk-iw-", dir=spool_dir, delete=False
        )
        self._spool_size = 0
        self.temporary_files_used = 1

    def write(self, data: bytes) -> int:
        self._require_open()
        self._spool.write(data)
        self._spool_size += len(data)
        if self._spool_size >= self.config.incremental_file_size:
            self._rotate_spool()
        return len(data)

    def _rotate_spool(self) -> None:
        """Push the current temporary file's contents and start a new one."""
        self._push_spool(self._spool)
        self._spool = tempfile.NamedTemporaryFile(
            prefix="stdchk-iw-", dir=self._spool_dir, delete=False
        )
        self._spool_size = 0
        self.temporary_files_used += 1

    def _drain(self) -> None:
        self._push_spool(self._spool)


class CompleteLocalWriteSession(WriteSession):
    """Complete local writes: spool everything, push only after close()."""

    protocol = WriteProtocol.COMPLETE_LOCAL

    def __init__(self, *args, spool_dir: Optional[str] = None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._spool = tempfile.NamedTemporaryFile(
            prefix="stdchk-clw-", dir=spool_dir, delete=False
        )
        self._spool_size = 0

    def write(self, data: bytes) -> int:
        self._require_open()
        self._spool.write(data)
        self._spool_size += len(data)
        return len(data)

    def _drain(self) -> None:
        self._push_spool(self._spool)


_PROTOCOL_CLASSES = {
    WriteProtocol.SLIDING_WINDOW: SlidingWindowWriteSession,
    WriteProtocol.INCREMENTAL: IncrementalWriteSession,
    WriteProtocol.COMPLETE_LOCAL: CompleteLocalWriteSession,
}


def make_write_session(
    protocol: WriteProtocol,
    transport: Transport,
    manager_address: str,
    session_info: Dict[str, object],
    config: StdchkConfig,
    existing_chunks: Optional[Dict[str, List[str]]] = None,
    clock: Optional[Clock] = None,
    producer: str = "",
    timestep: Optional[int] = None,
    spool_dir: Optional[str] = None,
    metrics: Optional[MetricsRegistry] = None,
    executor: Optional[Executor] = None,
    on_close: Optional[Callable[[WriteStats], None]] = None,
) -> WriteSession:
    """Instantiate the session class implementing ``protocol``."""
    cls = _PROTOCOL_CLASSES[protocol]
    kwargs = dict(
        transport=transport,
        manager_address=manager_address,
        session_info=session_info,
        config=config,
        existing_chunks=existing_chunks,
        clock=clock,
        producer=producer,
        timestep=timestep,
        metrics=metrics,
        executor=executor,
        on_close=on_close,
    )
    if cls in (IncrementalWriteSession, CompleteLocalWriteSession):
        kwargs["spool_dir"] = spool_dir
    return cls(**kwargs)
