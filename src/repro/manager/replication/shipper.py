"""Streaming journal log shipping from a primary manager to its standbys.

The shipper sits behind :meth:`MetadataManager._commit`: every logical redo
record the primary applies and appends (or would append — shipping also works
for journal-less in-memory managers) is offered here under the primary's
meta lock, so the shipped stream order always matches the application order.

Per-standby state is an acknowledged LSN.  Records are buffered in a bounded
window; a flush sends each standby the suffix it has not acknowledged yet via
``replicate_records``.  When a standby lags beyond the retained window (or
reports a gap), the shipper falls back to a full snapshot transfer
(``install_snapshot``) — the same codec the on-disk snapshots use.

Failure semantics are asymmetric by design:

* A failure *toward a standby* (unreachable, mid-promotion, …) must not take
  the primary down — the standby is marked unhealthy, a counter ticks, and
  the primary keeps serving.  The standby catches up via snapshot resync when
  it returns.
* A failure *inside the shipper itself* propagates to ``_commit``'s
  fail-stop path, exactly like a journal append error.

Faults are injected from outside, by the transport the shipper calls
(:class:`~repro.transport.faulty.FaultyTransport`): the shipper has no
hook of its own.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.exceptions import (
    NotPrimaryError,
    QuorumNotReachedError,
    StaleEpochError,
    StdchkError,
)
from repro.manager.persistence import encode_manager_state
from repro.obs import LabelChildren, component_logger

#: Records retained for catch-up shipping before a lagging standby is forced
#: into a snapshot resync.
DEFAULT_RETAIN_RECORDS = 1024


class StandbyLink:
    """Shipping state for one standby endpoint."""

    __slots__ = ("address", "acked_lsn", "healthy", "resyncs", "failures")

    def __init__(self, address: str, acked_lsn: int = 0) -> None:
        self.address = address
        self.acked_lsn = acked_lsn
        self.healthy = True
        self.resyncs = 0
        self.failures = 0


class LogShipper:
    """Ship the primary's journal record stream to standby managers."""

    def __init__(self, manager, transport=None,
                 retain_records: int = DEFAULT_RETAIN_RECORDS) -> None:
        self.manager = manager
        self.transport = transport if transport is not None else manager.transport
        self.retain_records = retain_records
        #: ``(lsn, record)`` suffix of the stream, bounded: standbys further
        #: behind than this window resync from a snapshot instead.
        self._window: Deque[Tuple[int, Dict[str, object]]] = deque()
        self._standbys: Dict[str, StandbyLink] = {}
        #: Records buffered since the last flush (batching knob).
        self._pending = 0
        #: Highest LSN offered; mirrors the journal LSN when one exists, and
        #: is self-assigned for journal-less managers.  It starts where the
        #: journal is: a standby attached now is bootstrapped at that LSN,
        #: and the journal's next record must follow it in the window.
        persistence = manager.persistence
        self.last_lsn = persistence.last_lsn if persistence is not None else 0
        self._lock = threading.RLock()
        self._log = component_logger("shipper", manager.manager_id)

        obs = manager.obs
        self._lag_gauge = LabelChildren(obs.gauge(
            "manager_replication_lag_records",
            "Records the primary has shipped but this standby has not acked.",
            labelnames=("standby",),
        ), "standby")
        self._ships = obs.counter(
            "manager_replication_ships_total",
            "replicate_records batches sent to standbys.",
        )
        self._records_shipped = obs.counter(
            "manager_replication_records_total",
            "Journal records acknowledged by standbys.",
        )
        self._resyncs = obs.counter(
            "manager_replication_resyncs_total",
            "Full snapshot transfers to lagging standbys.",
        )
        self._ship_failures = LabelChildren(obs.counter(
            "manager_replication_ship_failures_total",
            "Failed ship attempts, per standby.",
            labelnames=("standby",),
        ), "standby")
        self._ship_timer = LabelChildren(obs.histogram(
            "manager_replication_ship_seconds",
            "Per-standby ship latency.",
            labelnames=("standby",), window=True,
        ), "standby")
        self._quorum_timer = obs.histogram(
            "manager_quorum_ack_seconds",
            "Time to collect the standby-ack quorum per record.",
            window=True,
        )
        self._quorum_degrades = obs.counter(
            "manager_quorum_degrades_total",
            "Records acknowledged without quorum (quorum_degrade=async).",
        )
        self._quorum_failures = obs.counter(
            "manager_quorum_failures_total",
            "Records refused a client ack because quorum was unreachable.",
        )

    # ------------------------------------------------------------- membership
    def standbys(self) -> List[str]:
        with self._lock:
            return list(self._standbys)

    def acked_lsn(self, address: str) -> int:
        with self._lock:
            return self._standbys[address].acked_lsn

    def add_standby(self, address: str) -> None:
        """Enroll ``address`` and bootstrap it with a full snapshot.

        The snapshot is encoded under the primary's meta lock so it is a
        consistent cut at :attr:`last_lsn`; the standby starts exactly there
        and streams forward.
        """
        with self.manager._meta_lock, self._lock:
            if address in self._standbys:
                return
            link = StandbyLink(address)
            self._install_snapshot(link)
            self._standbys[address] = link

    # --------------------------------------------------------------- shipping
    def offer(self, record: Dict[str, object], lsn: Optional[int] = None,
              durable: bool = False) -> int:
        """Buffer one redo record; flush on durability points or a full batch.

        Called by ``MetadataManager._commit`` under the meta lock.  Returns
        the record's LSN.
        """
        with self._lock:
            if lsn is None:
                lsn = self.last_lsn + 1
            self.last_lsn = max(self.last_lsn, lsn)
            self._window.append((lsn, record))
            while len(self._window) > self.retain_records:
                self._window.popleft()
            self._pending += 1
            batch = self.manager.config.ship_batch_records
            quorum = self.manager.config.replication_quorum
            if durable or self._pending >= batch or quorum > 0:
                # Quorum mode ships synchronously: a record cannot collect
                # standby acks while sitting in the batching buffer.
                self.flush()
            if quorum > 0:
                self._await_quorum(lsn, quorum)
            return lsn

    def _acks_for(self, lsn: int) -> int:
        return sum(1 for link in self._standbys.values() if link.acked_lsn >= lsn)

    def _await_quorum(self, lsn: int, quorum: int) -> None:
        """Block until ``quorum`` standbys acked ``lsn`` or the timeout hits.

        Runs under the shipper lock (and the primary's meta lock): shipping
        is synchronous RPC work, so retrying :meth:`flush` here is what makes
        progress — there is no background acker to wait on.  On timeout the
        configured degrade policy decides between refusing the client ack
        (``"fail"``) and falling back to async shipping with a breadcrumb
        (``"async"``).  The deadline and the pauses between flushes are on
        the manager's clock, so a virtual-time deployment waits out
        ``quorum_timeout`` without sleeping.
        """
        config = self.manager.config
        clock = self.manager.clock
        started = time.perf_counter()
        deadline = clock.now() + config.quorum_timeout
        while True:
            acked = self._acks_for(lsn)
            if acked >= quorum:
                self._quorum_timer.observe(time.perf_counter() - started)
                return
            remaining = deadline - clock.now()
            if remaining <= 0:
                break
            clock.sleep(min(0.01, remaining))
            self.flush()
        acked = self._acks_for(lsn)
        if config.quorum_degrade == "async":
            self._quorum_degrades.inc()
            self._log.warning(
                "quorum unreachable for lsn %d (%d/%d acks); "
                "degrading to async shipping", lsn, acked, quorum,
            )
            return
        self._quorum_failures.inc()
        raise QuorumNotReachedError(
            f"lsn {lsn} collected {acked}/{quorum} standby acks "
            f"within {config.quorum_timeout}s",
            acked=acked, required=quorum,
        )

    def flush(self) -> None:
        """Ship every standby the stream suffix it has not acknowledged."""
        with self._lock:
            self._pending = 0
            for link in self._standbys.values():
                started = time.perf_counter()
                try:
                    self._ship_to(link)
                    link.healthy = True
                    self._ship_timer[link.address].observe(
                        time.perf_counter() - started
                    )
                except StaleEpochError as exc:
                    # A standby under a newer primary fenced us: self-demote
                    # instead of split-braining, and surface the hint.
                    self.manager.fence(exc.epoch, exc.primary_address)
                    raise NotPrimaryError(
                        f"manager {self.manager.manager_id} deposed by "
                        f"epoch {exc.epoch}",
                        primary_address=exc.primary_address,
                        epoch=exc.epoch,
                    ) from exc
                except StdchkError:
                    # Standby-side trouble (unreachable, promoted, …) must
                    # not take the primary down; it will resync on return.
                    link.healthy = False
                    link.failures += 1
                    self._ship_failures[link.address].inc()
                self._lag_gauge[link.address].set(
                    max(0, self.last_lsn - link.acked_lsn)
                )

    def _unacked_suffix(self, acked_lsn: int) -> Optional[List[Tuple[int, Dict[str, object]]]]:
        """The window's entries after ``acked_lsn``, or None if it lacks one.

        The window is LSN-ordered and contiguous, so the suffix is its last
        ``last_lsn - acked_lsn`` entries, taken by position: the usual ship
        is one record out of a thousand retained.  A window that is too
        short, or whose suffix does not start right after ``acked_lsn`` (a
        restarted primary's window begins where its journal left off), does
        not hold the standby's next record.
        """
        wanted = self.last_lsn - acked_lsn
        if wanted > len(self._window):
            return None
        suffix = [self._window[position] for position in range(-wanted, 0)]
        if not suffix or suffix[0][0] != acked_lsn + 1:
            return None
        return suffix

    def _ship_to(self, link: StandbyLink) -> None:
        if link.acked_lsn >= self.last_lsn:
            return
        suffix = self._unacked_suffix(link.acked_lsn)
        if suffix is None:
            # The standby is behind the retained window (or the window has a
            # gap from a restart): stream catch-up is impossible, resync.
            self._install_snapshot(link)
            return
        answer = self.transport.call(
            link.address, "replicate_records",
            records=[rec for _lsn, rec in suffix],
            from_lsn=suffix[0][0],
            epoch=self.manager.epoch,
        )
        self._ships.inc()
        if answer.get("resync"):
            self._install_snapshot(link)
            return
        applied = int(answer.get("applied_lsn", link.acked_lsn))
        self._records_shipped.inc(max(0, applied - link.acked_lsn))
        link.acked_lsn = max(link.acked_lsn, applied)

    def _install_snapshot(self, link: StandbyLink) -> None:
        """Full-state transfer: the snapshot codec over the wire."""
        state = encode_manager_state(self.manager)
        self.transport.call(
            link.address, "install_snapshot",
            state=state, lsn=self.last_lsn,
            epoch=self.manager.epoch,
        )
        link.acked_lsn = self.last_lsn
        link.resyncs += 1
        self._resyncs.inc()
