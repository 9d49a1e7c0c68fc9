"""Client-side manager failover: primary re-discovery plus retry-with-backoff.

Two pieces cooperate so an in-flight operation survives a primary death:

* :class:`ManagerDirectory` — the candidate manager endpoints a client knows
  about (the configured primary plus ``standby_endpoints``).  ``rediscover``
  probes every candidate's ``manager_status`` RPC and re-points the active
  address at the serving primary (highest-LSN online primary wins).
* :class:`FailoverTransport` — a :class:`Transport` facade wrapped around
  the real transport by :class:`ClientProxy`.  Calls to benefactors pass
  straight through; calls to a *manager* candidate are re-routed to the
  directory's current primary and retried on retryable manager errors with
  jittered exponential backoff under a total deadline budget.  A successful
  re-discovery retries immediately — the backoff only paces the probes while
  no primary is serving (mid-promotion).  The deadline and the pauses are on
  the client's :class:`~repro.util.clock.Clock`, so a client on a virtual
  clock waits out ``failover_deadline`` without sleeping.

Retries are safe because manager mutations are either idempotent on replay
(``put_chunks_ack`` re-acks, ``extend_stripe`` re-allocates) or detectably
duplicated (``commit_session`` answers ``CommitConflictError: already
committed`` when the first attempt landed — absorbed by the failover-aware
writer, see :mod:`repro.client.write_protocols`).
"""

from __future__ import annotations

import random
import threading
from typing import Iterable, List, Optional, Sequence

from repro.exceptions import (
    EndpointUnreachableError,
    ManagerRecoveringError,
    ManagerUnavailableError,
    NotPrimaryError,
    StdchkError,
)
from repro.transport.base import Endpoint, Transport
from repro.util.clock import Clock, SystemClock
from repro.util.config import StdchkConfig

#: Manager errors worth retrying elsewhere: the endpoint is gone, the node is
#: deliberately failed, it is replaying its journal, or it is a standby.
#: Everything else (unknown dataset, commit conflict, …) is an answer, not an
#: outage, and propagates immediately.
RETRYABLE_ERRORS = (
    EndpointUnreachableError,
    ManagerUnavailableError,
    ManagerRecoveringError,
    NotPrimaryError,
)


class ManagerDirectory:
    """The set of manager endpoints a client may fail over between."""

    def __init__(self, candidates: Sequence[str]) -> None:
        if not candidates:
            raise ValueError("ManagerDirectory needs at least one candidate")
        self._candidates: List[str] = list(dict.fromkeys(candidates))
        self._active = self._candidates[0]
        #: Highest primary epoch observed (status probes, error hints): a
        #: candidate still claiming primaryhood under an older epoch is a
        #: deposed primary that has not learned it yet — never fail over
        #: *backwards* onto it.
        self._epoch = 0
        self._lock = threading.Lock()

    def current(self) -> str:
        with self._lock:
            return self._active

    def known_epoch(self) -> int:
        with self._lock:
            return self._epoch

    def note_epoch(self, epoch: Optional[int]) -> None:
        """Absorb an epoch hint (from status answers or manager errors)."""
        if not epoch:
            return
        with self._lock:
            self._epoch = max(self._epoch, int(epoch))

    def candidates(self) -> List[str]:
        with self._lock:
            return list(self._candidates)

    def covers(self, address: str) -> bool:
        with self._lock:
            return address in self._candidates

    def note_candidates(self, addresses: Iterable[str]) -> None:
        """Merge late-learned endpoints (``add_standby``, error hints)."""
        with self._lock:
            for address in addresses:
                if address and address not in self._candidates:
                    self._candidates.append(address)

    def note_primary(self, address: str) -> None:
        with self._lock:
            if address not in self._candidates:
                self._candidates.append(address)
            self._active = address

    def rediscover(self, transport: Transport,
                   probe_timeout: Optional[float] = None) -> bool:
        """Probe every candidate and re-point at the serving primary.

        Returns True when the active address changed (the caller should
        retry immediately instead of backing off).  Unreachable or erroring
        candidates are skipped; among several claiming the primary role the
        highest ``(epoch, last_lsn)`` wins — the epoch dominating so that a
        deposed-but-unaware primary never steals back the active slot.

        ``probe_timeout`` bounds each per-candidate probe when the transport
        supports it: re-discovery iterates the whole candidate list, so one
        black-holed endpoint must cost at most the timeout, not hang the
        entire failover.
        """
        known = self.known_epoch()
        best: Optional[str] = None
        best_key = (-1, -1)
        best_epoch = 0
        for address in self.candidates():
            try:
                if probe_timeout and hasattr(transport, "probe"):
                    status = transport.probe(address, "manager_status",
                                             probe_timeout)
                else:
                    status = transport.call(address, "manager_status")
            except StdchkError:
                continue
            if (status.get("role") == "primary" and status.get("online")
                    and not status.get("recovering")):
                epoch = status.get("epoch")
                if epoch is not None and int(epoch) < known:
                    continue  # stale primary, a successor epoch exists
                lsn = int(status.get("last_lsn", 0))
                key = (int(epoch or 0), lsn)
                if key > best_key:
                    best, best_key = address, key
                    best_epoch = int(epoch or 0)
        if best is None:
            return False
        self.note_epoch(best_epoch)
        with self._lock:
            changed = best != self._active
            self._active = best
        return changed


class FailoverTransport(Transport):
    """Retry-and-rediscover facade over a real transport.

    Only calls addressed to a *manager candidate* get the retry loop; every
    other address (benefactors) passes through untouched, so the data path
    keeps its existing failure semantics (report to manager, extend stripe).
    """

    #: Feature probe for callers that change behavior when retries may
    #: duplicate an RPC (the writer's commit-replay path keys off this).
    supports_failover = True

    def __init__(self, inner: Transport, directory: ManagerDirectory,
                 config: Optional[StdchkConfig] = None, obs=None,
                 clock: Optional[Clock] = None,
                 rng: Optional[random.Random] = None) -> None:
        self._inner = inner
        self.directory = directory
        self.config = config if config is not None else StdchkConfig()
        self._clock = clock if clock is not None else SystemClock()
        self._rng = rng if rng is not None else random.Random()
        self._retry_counter = None
        self._rediscover_counter = None
        self._stall_histogram = None
        if obs is not None:
            self.attach_metrics(obs)

    def attach_metrics(self, obs) -> None:
        self._retry_counter = obs.counter(
            "client_failover_retries_total",
            "Manager RPC attempts retried after a retryable error.",
            labelnames=("method",),
        )
        self._rediscover_counter = obs.counter(
            "client_failover_rediscoveries_total",
            "Primary re-discovery probes triggered by failed manager RPCs.",
        )
        self._stall_histogram = obs.histogram(
            "client_failover_stall_seconds",
            "Client-visible stall of manager RPCs that needed retries.",
            window=True,
        )

    # ----------------------------------------------------- Transport interface
    def call(self, address: str, method: str, /, **payload):
        if not self.directory.covers(address):
            return self._inner.call(address, method, **payload)
        deadline = self._clock.now() + self.config.failover_deadline
        delay = self.config.failover_backoff_base
        stalled_since: Optional[float] = None
        while True:
            target = self.directory.current()
            try:
                result = self._inner.call(target, method, **payload)
                if stalled_since is not None and self._stall_histogram is not None:
                    self._stall_histogram.observe(self._clock.now() - stalled_since)
                return result
            except RETRYABLE_ERRORS as exc:
                now = self._clock.now()
                if stalled_since is None:
                    stalled_since = now
                if self._retry_counter is not None:
                    self._retry_counter.labels(method=method).inc()
                hint = getattr(exc, "primary_address", None)
                if hint:
                    self.directory.note_candidates([hint])
                self.directory.note_epoch(getattr(exc, "epoch", None))
                if now >= deadline:
                    if self._stall_histogram is not None:
                        self._stall_histogram.observe(now - stalled_since)
                    raise
                if self._rediscover_counter is not None:
                    self._rediscover_counter.inc()
                if self.directory.rediscover(
                        self._inner,
                        probe_timeout=self.config.failover_probe_timeout):
                    continue  # a (new) primary is serving: retry right away
                jitter = 1.0 + self.config.failover_jitter * self._rng.random()
                pause = min(delay * jitter, max(0.0, deadline - self._clock.now()))
                if pause > 0:
                    self._clock.sleep(pause)
                delay = min(delay * 2, self.config.failover_backoff_max)

    def register(self, address: str, endpoint: Endpoint) -> None:
        self._inner.register(address, endpoint)

    def unregister(self, address: str) -> None:
        self._inner.unregister(address)

    def __getattr__(self, name: str):
        # Everything else (pool stats, fault rules, close, …) belongs to the
        # wrapped transport; tests and deployment helpers reach it directly.
        if name == "_inner":
            raise AttributeError(name)
        return getattr(self._inner, name)
