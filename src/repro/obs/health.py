"""Cluster health monitor: probe scraping, suspicion states, transitions.

The :class:`ClusterHealthMonitor` is the failure-detector half of the live
observability plane.  It periodically probes every known node's ``/health``
document (over HTTP or the RPC transport — the probe is just a callable) and
maintains a per-node suspicion state machine:

``alive`` → (no successful probe for ``suspect_after`` seconds) → ``suspect``
→ (``dead_after`` seconds) → ``dead`` → (a probe succeeds) → ``alive``

Timeout-based liveness suspicion is the classic desktop-grid detector (the
scavenged benefactors stdchk runs on are exactly the volatile population the
P2P checkpointing literature models this way); the latency EWMA kept per
node gives operators an early-warning signal before the binary detector
trips.  Every state transition is appended to a bounded in-memory event log
and handed to the ``on_transition`` callback — the groundwork for automatic
standby promotion: a supervisor subscribing to ``("manager", ..., "dead")``
events has exactly the trigger it needs.

:meth:`cluster_status` condenses the last probe results into one document:
roles, replication lag, under-replicated chunk count and per-node SLO
summaries — the page a human (or CI artifact) looks at first.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.util.clock import Clock, SystemClock

#: Node states of the suspicion machine, healthiest first.
STATES = ("alive", "suspect", "dead")

#: Smoothing factor of the per-node probe-latency EWMA.
EWMA_ALPHA = 0.2


@dataclass
class NodeHealth:
    """Mutable per-node detector state (guarded by the monitor lock)."""

    node_id: str
    kind: str
    probe: Callable[[], Dict[str, object]] = field(repr=False, default=None)
    state: str = "alive"
    last_ok: float = 0.0
    last_attempt: float = 0.0
    last_error: Optional[str] = None
    latency_ewma: Optional[float] = None
    consecutive_failures: int = 0
    payload: Dict[str, object] = field(default_factory=dict)

    def view(self) -> Dict[str, object]:
        return {
            "node_id": self.node_id,
            "kind": self.kind,
            "state": self.state,
            "last_ok": self.last_ok,
            "last_error": self.last_error,
            "latency_ewma": self.latency_ewma,
            "consecutive_failures": self.consecutive_failures,
            "role": self.payload.get("role"),
            "ready": self.payload.get("ready"),
            "status": self.payload.get("status"),
            "slo": self.payload.get("slo"),
        }


@dataclass(frozen=True)
class HealthTransition:
    """One recorded state change of one node."""

    node_id: str
    kind: str
    old_state: str
    new_state: str
    at: float
    reason: str = ""

    def to_dict(self) -> Dict[str, object]:
        return {
            "node_id": self.node_id,
            "kind": self.kind,
            "old_state": self.old_state,
            "new_state": self.new_state,
            "at": self.at,
            "reason": self.reason,
        }


class ClusterHealthMonitor:
    """Scrape ``/health`` across a deployment and detect failures.

    ``probe_interval`` / ``suspect_after`` / ``dead_after`` mirror the
    ``health_*`` knobs of :class:`~repro.util.config.StdchkConfig`.  Probes
    run either explicitly (:meth:`probe_once`, deterministic for tests) or
    on a background thread (:meth:`start` / :meth:`stop`) for long-lived
    deployments.  ``on_transition(transition)`` fires outside the monitor
    lock, after the event is logged.
    """

    def __init__(
        self,
        clock: Optional[Clock] = None,
        probe_interval: float = 1.0,
        suspect_after: float = 3.0,
        dead_after: float = 10.0,
        on_transition: Optional[Callable[[HealthTransition], None]] = None,
        max_events: int = 256,
        registry=None,
    ) -> None:
        if probe_interval <= 0:
            raise ValueError("probe_interval must be positive")
        if not (0 < suspect_after <= dead_after):
            raise ValueError(
                "suspect_after must be positive and at most dead_after"
            )
        self.clock = clock if clock is not None else SystemClock()
        self.probe_interval = probe_interval
        self.suspect_after = suspect_after
        self.dead_after = dead_after
        self.on_transition = on_transition
        self.max_events = max_events
        self._nodes: Dict[str, NodeHealth] = {}
        self._events: List[HealthTransition] = []
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self.probes_total = 0
        self.probe_failures = 0
        self._registry = registry
        self._probe_timer = (
            registry.histogram(
                "health_probe_seconds",
                "Health-probe latency across monitored nodes.",
                window=True,
            ) if registry is not None else None
        )
        self._transitions_counter = (
            registry.counter(
                "health_transitions_total",
                "Node health-state transitions observed, by new state.",
                labelnames=("state",),
            ) if registry is not None else None
        )

    # -- membership ----------------------------------------------------------
    def add_node(self, node_id: str, probe: Callable[[], Dict[str, object]],
                 kind: str = "node") -> None:
        """Register one node; ``probe`` returns its health dict or raises."""
        now = self.clock.now()
        with self._lock:
            self._nodes[node_id] = NodeHealth(
                node_id=node_id, kind=kind, probe=probe,
                last_ok=now, last_attempt=now,
            )

    def remove_node(self, node_id: str) -> None:
        with self._lock:
            self._nodes.pop(node_id, None)

    def nodes(self) -> List[str]:
        with self._lock:
            return list(self._nodes)

    def state_of(self, node_id: str) -> str:
        with self._lock:
            return self._nodes[node_id].state

    # -- probing -------------------------------------------------------------
    def probe_once(self) -> Dict[str, str]:
        """Probe every node once; returns ``node_id -> state`` afterwards.

        Probes run outside the monitor lock (a hung node must not wedge the
        detector's bookkeeping); state updates re-take it per node.
        """
        with self._lock:
            members = list(self._nodes.values())
        transitions: List[HealthTransition] = []
        for node in members:
            self.probes_total += 1
            started = time.perf_counter()
            try:
                payload = node.probe()
                failure: Optional[str] = None
            except Exception as exc:  # noqa: BLE001 - any failure is a signal
                payload = None
                failure = f"{type(exc).__name__}: {exc}"
                self.probe_failures += 1
            elapsed = time.perf_counter() - started
            if self._probe_timer is not None:
                self._probe_timer.observe(elapsed)
            transition = self._apply_result(node, payload, failure, elapsed)
            if transition is not None:
                transitions.append(transition)
        for transition in transitions:
            self._record_transition(transition)
        with self._lock:
            return {n.node_id: n.state for n in self._nodes.values()}

    def _apply_result(self, node: NodeHealth, payload: Optional[Dict],
                      failure: Optional[str],
                      elapsed: float) -> Optional[HealthTransition]:
        now = self.clock.now()
        with self._lock:
            if self._nodes.get(node.node_id) is not node:
                return None  # removed while probing
            node.last_attempt = now
            old_state = node.state
            if failure is None:
                node.last_ok = now
                node.last_error = None
                node.consecutive_failures = 0
                node.payload = dict(payload or {})
                node.latency_ewma = (
                    elapsed if node.latency_ewma is None
                    else (1 - EWMA_ALPHA) * node.latency_ewma
                    + EWMA_ALPHA * elapsed
                )
                node.state = "alive"
                reason = "probe ok"
            else:
                node.last_error = failure
                node.consecutive_failures += 1
                silence = now - node.last_ok
                if silence >= self.dead_after:
                    node.state = "dead"
                elif silence >= self.suspect_after:
                    node.state = "suspect"
                reason = f"silent {silence:.2f}s: {failure}"
            if node.state == old_state:
                return None
            return HealthTransition(
                node_id=node.node_id, kind=node.kind, old_state=old_state,
                new_state=node.state, at=now, reason=reason,
            )

    def _record_transition(self, transition: HealthTransition) -> None:
        with self._lock:
            self._events.append(transition)
            if len(self._events) > self.max_events:
                del self._events[: len(self._events) - self.max_events]
        if self._transitions_counter is not None:
            self._transitions_counter.labels(state=transition.new_state).inc()
        if self.on_transition is not None:
            self.on_transition(transition)

    def events(self) -> List[HealthTransition]:
        with self._lock:
            return list(self._events)

    # -- background loop -----------------------------------------------------
    def start(self) -> "ClusterHealthMonitor":
        """Probe every ``probe_interval`` seconds on a daemon thread.

        Scheduling uses wall time regardless of the detector clock, so a
        virtual-clock monitor still ticks (liveness arithmetic stays on the
        injected clock).
        """
        if self._thread is not None:
            return self
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, daemon=True, name="cluster-health-monitor"
        )
        self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.wait(self.probe_interval):
            self.probe_once()

    def stop(self) -> None:
        self._stop.set()
        thread, self._thread = self._thread, None
        if thread is not None:
            thread.join(timeout=5)

    # -- reporting -----------------------------------------------------------
    def cluster_status(self) -> Dict[str, object]:
        """One condensed document: states, roles, lag, repair debt, SLOs."""
        with self._lock:
            views = {n.node_id: n.view() for n in self._nodes.values()}
            payloads = {n.node_id: dict(n.payload) for n in self._nodes.values()}
            states = {n.node_id: n.state for n in self._nodes.values()}
            kinds = {n.node_id: n.kind for n in self._nodes.values()}
        roles: Dict[str, List[str]] = {"primary": [], "standby": [],
                                       "benefactor": [], "other": []}
        primary_lsn: Optional[int] = None
        standby_lsns: List[int] = []
        under_replicated: Optional[int] = None
        for node_id, payload in payloads.items():
            role = payload.get("role")
            if role == "primary":
                roles["primary"].append(node_id)
                if payload.get("journal_lsn") is not None:
                    primary_lsn = int(payload["journal_lsn"])  # type: ignore[arg-type]
                if payload.get("under_replicated_chunks") is not None:
                    under_replicated = int(
                        payload["under_replicated_chunks"])  # type: ignore[arg-type]
            elif role == "standby":
                roles["standby"].append(node_id)
                if payload.get("applied_lsn") is not None:
                    standby_lsns.append(int(payload["applied_lsn"]))  # type: ignore[arg-type]
            elif (payload.get("component") == "benefactor"
                  or (not payload and kinds[node_id] == "benefactor")):
                # A node that died before its first successful probe has no
                # payload; fall back to its registered kind.
                roles["benefactor"].append(node_id)
            else:
                roles["other"].append(node_id)
        replication_lag = None
        if primary_lsn is not None and standby_lsns:
            replication_lag = max(0, primary_lsn - min(standby_lsns))
        return {
            "nodes": views,
            "roles": roles,
            "counts": {
                state: sum(1 for value in states.values() if value == state)
                for state in STATES
            },
            "replication_lag_records": replication_lag,
            "under_replicated_chunks": under_replicated,
            "events": [event.to_dict() for event in self.events()[-32:]],
            "detector": {
                "probe_interval": self.probe_interval,
                "suspect_after": self.suspect_after,
                "dead_after": self.dead_after,
                "probes_total": self.probes_total,
                "probe_failures": self.probe_failures,
            },
        }


def http_health_probe(base_url: str, timeout: float = 2.0
                      ) -> Callable[[], Dict[str, object]]:
    """Probe factory fetching ``<base_url>/health`` with stdlib urllib.

    A 503 (alive but not ready — e.g. a standby or a recovering manager)
    still counts as a successful probe: the node answered, so it is not
    *dead*; readiness lives in the payload.
    """
    import urllib.error
    import urllib.request

    url = base_url.rstrip("/") + "/health"

    def probe() -> Dict[str, object]:
        import json as _json

        try:
            with urllib.request.urlopen(url, timeout=timeout) as response:
                return _json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            if exc.code == 503:
                return _json.loads(exc.read().decode("utf-8"))
            raise

    return probe


def rpc_health_probe(transport, address: str
                     ) -> Callable[[], Dict[str, object]]:
    """Probe factory invoking the ``health`` RPC over a transport."""

    def probe() -> Dict[str, object]:
        return transport.call(address, "health")

    return probe
