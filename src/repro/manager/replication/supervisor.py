"""Automatic manager failover: promote the freshest standby when the primary dies.

The :class:`FailoverSupervisor` closes the loop the pieces around it left
open: the :class:`~repro.obs.ClusterHealthMonitor` *detects* a dead primary,
the deployment helpers *can* promote a standby, and epoch fencing makes
a promotion safe against the deposed primary reawakening — but until now a
human had to connect detection to promotion.  The supervisor subscribes to
the monitor's ``on_transition`` stream and, when the current primary is
declared dead:

1. probes every enrolled standby's ``manager_status`` (bounded per-probe
   timeout, so one black-holed standby cannot stall the failover),
2. selects the standby with the highest applied LSN (deterministic
   lexicographic tie-break on the standby id),
3. promotes it through the deployment helper, which bumps the epoch, fences
   the old primary, re-points the background services and re-registers the
   benefactors.

A flap-damping cooldown suppresses back-to-back promotions: a freshly
promoted primary that flickers through the detector does not trigger a
cascade of takeovers.  Transitions about nodes other than the *current*
primary (a dead standby, or a stale event about an already-replaced primary
after a supervisor restart) are ignored.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional

from repro.exceptions import StdchkError
from repro.obs import component_logger


class FailoverSupervisor:
    """Drive unattended primary failover for a deployment.

    ``deployment`` is duck-typed: it must expose ``config``, ``clock``,
    ``manager`` (current primary), ``transport``, ``standby_endpoints()`` and
    ``promote_standby(standby_id)`` — any :class:`~repro.pool.Deployment`
    qualifies, whichever transport it runs over.  The flap-damping cooldown
    is measured on the deployment's clock.
    """

    def __init__(self, deployment, probe_timeout: Optional[float] = None,
                 cooldown: Optional[float] = None) -> None:
        config = deployment.config
        self.deployment = deployment
        self.probe_timeout = (
            probe_timeout if probe_timeout is not None
            else config.failover_probe_timeout
        )
        self.cooldown = (
            cooldown if cooldown is not None
            else config.failover_cooldown
        )
        self._lock = threading.Lock()
        self._last_promotion: Optional[float] = None
        self.promotions = 0
        self.suppressed = 0
        self.failures = 0
        #: Audit trail of every decision (promoted / cooldown / stale / …).
        self.events: List[Dict[str, object]] = []
        self._log = component_logger("failover-supervisor")

    # ------------------------------------------------------------------ wiring
    def attach(self, monitor):
        """Chain onto ``monitor.on_transition`` (keeps any existing callback)."""
        previous = monitor.on_transition

        def chained(transition):
            if previous is not None:
                previous(transition)
            self.handle_transition(transition)

        monitor.on_transition = chained
        return monitor

    def handle_transition(self, transition) -> Optional[Dict[str, object]]:
        """React to one health transition; promotes on a dead primary."""
        if transition.kind != "manager" or transition.new_state != "dead":
            return None
        return self.maybe_promote(transition.node_id)

    # --------------------------------------------------------------- promotion
    def _note(self, action: str, **detail: object) -> None:
        event = {"action": action, "at": time.time()}
        event.update(detail)
        self.events.append(event)

    def maybe_promote(self, dead_node_id: str) -> Optional[Dict[str, object]]:
        """Promote the best standby if ``dead_node_id`` is the live primary.

        Returns a description of the promotion, or ``None`` when the event
        was suppressed (stale node, cooldown) or no standby was promotable.
        Serialized: concurrent transitions (several monitor probes racing)
        resolve to exactly one promotion.
        """
        with self._lock:
            current = self.deployment.manager.manager_id
            if dead_node_id != current:
                # A dead standby, or an event about a primary that a prior
                # promotion (possibly by a previous supervisor incarnation)
                # already replaced.
                self.suppressed += 1
                self._note("stale", node=dead_node_id, primary=current)
                return None
            now = self.deployment.clock.now()
            if (self._last_promotion is not None
                    and now - self._last_promotion < self.cooldown):
                self.suppressed += 1
                self._note("cooldown", node=dead_node_id,
                           since_last=now - self._last_promotion)
                self._log.warning(
                    "primary %s dead %.2fs after the last promotion; "
                    "flap-damping cooldown (%.1fs) suppresses takeover",
                    dead_node_id, now - self._last_promotion, self.cooldown,
                )
                return None
            best = self._select_standby()
            if best is None:
                self.failures += 1
                self._note("no-standby", node=dead_node_id)
                self._log.error(
                    "primary %s dead but no promotable standby answered",
                    dead_node_id,
                )
                return None
            promoted = self.deployment.promote_standby(best)
            self._last_promotion = self.deployment.clock.now()
            self.promotions += 1
            self._note("promoted", node=dead_node_id, standby=best,
                       epoch=promoted.epoch, applied_lsn=promoted.applied_lsn)
            self._log.info(
                "promoted standby %s to primary (epoch %d, lsn %d) after "
                "%s died", best, promoted.epoch, promoted.applied_lsn,
                dead_node_id,
            )
            return {
                "standby_id": best,
                "epoch": promoted.epoch,
                "applied_lsn": promoted.applied_lsn,
            }

    def _select_standby(self) -> Optional[str]:
        """Freshest reachable standby: highest applied LSN, id tie-break."""
        transport = self.deployment.transport
        best_id: Optional[str] = None
        best_lsn = -1
        # Sorted iteration + strict ``>`` makes the tie-break deterministic:
        # equal LSNs resolve to the lexicographically smallest standby id.
        for standby_id, address in sorted(self.deployment.standby_endpoints().items()):
            try:
                if self.probe_timeout and hasattr(transport, "probe"):
                    status = transport.probe(address, "manager_status",
                                             self.probe_timeout)
                else:
                    status = transport.call(address, "manager_status")
            except StdchkError:
                continue
            if status.get("role") != "standby":
                continue
            lsn = int(status.get("applied_lsn") or status.get("last_lsn") or 0)
            if lsn > best_lsn:
                best_id, best_lsn = standby_id, lsn
        return best_id
