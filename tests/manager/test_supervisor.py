"""Tests for the automatic failover supervisor.

The supervisor turns health-monitor transitions into standby promotions:
these tests drive it with synthetic transitions (deterministic, no threads)
against a real in-process pool, covering the promotion path, standby
selection, flap damping, double-failure behaviour and restart-mid-promotion
idempotence.
"""

from __future__ import annotations

import pytest

from repro import StdchkConfig, StdchkPool
from repro.exceptions import NotPrimaryError, StaleEpochError
from repro.manager.replication import FailoverSupervisor
from repro.obs import HealthTransition

SMALL = dict(
    chunk_size=64 * 1024,
    stripe_width=3,
    replication_level=2,
    incremental_file_size=128 * 1024,
)


def make_pool(**overrides) -> StdchkPool:
    config = StdchkConfig(**{**SMALL, **overrides})
    return StdchkPool(benefactor_count=4, config=config)


def dead(node_id: str, kind: str = "manager") -> HealthTransition:
    return HealthTransition(node_id=node_id, kind=kind, old_state="suspect",
                            new_state="dead", at=0.0, reason="probe timeout")


class TestPromotionPath:
    def test_dead_primary_promotes_the_standby(self):
        pool = make_pool()
        old_id = pool.manager.manager_id
        standby = pool.add_standby("standby-0")
        supervisor = FailoverSupervisor(pool)
        pool.kill_primary()
        outcome = supervisor.handle_transition(dead(old_id))
        assert outcome == {
            "standby_id": "standby-0",
            "epoch": 2,
            "applied_lsn": standby.applied_lsn,
        }
        assert pool.manager is standby
        assert standby.role == "primary"
        assert supervisor.promotions == 1

    def test_highest_applied_lsn_wins_with_id_tiebreak(self):
        pool = make_pool()
        old_id = pool.manager.manager_id
        fresh = pool.add_standby("standby-b")
        lagging = pool.add_standby("standby-a")
        client = pool.client("c0")
        # Lagging standby misses the traffic burst.
        pool.transport.partition(lagging.address)
        client.mkdir("/app")
        client.mkdir("/app/deeper")
        assert fresh.applied_lsn > lagging.applied_lsn
        supervisor = FailoverSupervisor(pool)
        pool.kill_primary()
        pool.transport.heal(lagging.address)
        outcome = supervisor.handle_transition(dead(old_id))
        assert outcome["standby_id"] == "standby-b"  # freshest, despite id order
        assert pool.manager is fresh

    def test_equal_lsn_tiebreak_is_lexicographic(self):
        pool = make_pool()
        old_id = pool.manager.manager_id
        pool.add_standby("standby-b")
        pool.add_standby("standby-a")
        supervisor = FailoverSupervisor(pool)
        pool.kill_primary()
        outcome = supervisor.handle_transition(dead(old_id))
        assert outcome["standby_id"] == "standby-a"

    def test_non_manager_and_non_dead_transitions_are_ignored(self):
        pool = make_pool()
        pool.add_standby("standby-0")
        supervisor = FailoverSupervisor(pool)
        assert supervisor.handle_transition(
            dead("benefactor-00", kind="benefactor")) is None
        alive = HealthTransition(node_id=pool.manager.manager_id,
                                 kind="manager", old_state="suspect",
                                 new_state="alive", at=0.0)
        assert supervisor.handle_transition(alive) is None
        assert supervisor.promotions == 0
        assert pool.manager.role == "primary"

    def test_attach_chains_existing_monitor_callback(self):
        pool = make_pool()
        old_id = pool.manager.manager_id
        standby = pool.add_standby("standby-0")
        seen = []
        monitor = pool.health_monitor(on_transition=seen.append)
        supervisor = FailoverSupervisor(pool)
        supervisor.attach(monitor)
        pool.kill_primary()
        monitor.on_transition(dead(old_id))
        assert len(seen) == 1  # the original callback still fires
        assert pool.manager is standby


class TestFlapDamping:
    def test_cooldown_suppresses_back_to_back_promotions(self):
        pool = make_pool(failover_cooldown=10.0)
        first_id = pool.manager.manager_id
        promoted = pool.add_standby("standby-0")
        pool.add_standby("standby-1")
        supervisor = FailoverSupervisor(pool)
        pool.kill_primary()
        assert supervisor.handle_transition(dead(first_id)) is not None
        # The freshly promoted primary flaps dead within the cooldown:
        # no takeover cascade.
        pool.clock.advance(2.0)
        assert supervisor.handle_transition(
            dead(promoted.manager_id)) is None
        assert supervisor.suppressed == 1
        assert supervisor.events[-1]["action"] == "cooldown"
        # Past the cooldown the event is honoured again.
        pool.clock.advance(10.0)
        pool.kill_primary()
        assert supervisor.handle_transition(
            dead(promoted.manager_id)) is not None
        assert supervisor.promotions == 2

    def test_stale_event_about_replaced_primary_is_ignored(self):
        pool = make_pool()
        old_id = pool.manager.manager_id
        pool.add_standby("standby-0")
        supervisor = FailoverSupervisor(pool)
        pool.kill_primary()
        assert supervisor.handle_transition(dead(old_id)) is not None
        # A second (duplicate/late) dead event about the replaced primary.
        assert supervisor.handle_transition(dead(old_id)) is None
        assert supervisor.events[-1]["action"] == "stale"
        assert supervisor.promotions == 1


class TestDoubleFailure:
    def test_dead_best_standby_falls_back_to_the_next(self):
        pool = make_pool()
        old_id = pool.manager.manager_id
        best = pool.add_standby("standby-a")
        survivor = pool.add_standby("standby-b")
        supervisor = FailoverSupervisor(pool)
        pool.kill_primary()
        # The preferred standby dies with the primary: its probe fails and
        # selection falls through to the survivor.
        pool.transport.partition(best.address)
        outcome = supervisor.handle_transition(dead(old_id))
        assert outcome["standby_id"] == "standby-b"
        assert pool.manager is survivor

    def test_no_reachable_standby_records_a_failure(self):
        pool = make_pool()
        old_id = pool.manager.manager_id
        standby = pool.add_standby("standby-0")
        supervisor = FailoverSupervisor(pool)
        pool.kill_primary()
        pool.transport.partition(standby.address)
        assert supervisor.handle_transition(dead(old_id)) is None
        assert supervisor.failures == 1
        assert supervisor.events[-1]["action"] == "no-standby"
        # The standby returns; a repeated dead event now succeeds.
        pool.transport.heal(standby.address)
        assert supervisor.handle_transition(dead(old_id)) is not None


class TestFencingAfterSupervision:
    def test_stale_epoch_writes_rejected_after_supervised_failover(self):
        pool = make_pool()
        old = pool.manager
        standby = pool.add_standby("standby-0")
        supervisor = FailoverSupervisor(pool)
        pool.kill_primary()
        supervisor.handle_transition(dead(old.manager_id))
        # The deposed primary was fenced under the successor epoch: its
        # normal RPCs bounce with the successor hint...
        with pytest.raises(NotPrimaryError) as exc_info:
            old.make_folder("/zombie")
        assert exc_info.value.epoch == standby.epoch
        # ...and replication it might still attempt is epoch-rejected.
        with pytest.raises(StaleEpochError):
            standby.replicate_records(records=[], from_lsn=1, epoch=old.epoch - 1)


class TestSupervisorRestart:
    def test_restarted_supervisor_ignores_preexisting_promotion(self):
        pool = make_pool()
        old_id = pool.manager.manager_id
        pool.add_standby("standby-0")
        first = FailoverSupervisor(pool)
        pool.kill_primary()
        assert first.handle_transition(dead(old_id)) is not None
        # The supervisor dies mid-failover and a fresh incarnation (no
        # memory of the promotion) replays the same dead event: the stale
        # check keeps it from double-promoting.
        second = FailoverSupervisor(pool)
        assert second.handle_transition(dead(old_id)) is None
        assert second.events[-1]["action"] == "stale"
        assert second.promotions == 0
        assert pool.manager.role == "primary"

    def test_restarted_supervisor_completes_an_unfinished_failover(self):
        pool = make_pool()
        old_id = pool.manager.manager_id
        standby = pool.add_standby("standby-0")
        first = FailoverSupervisor(pool)
        pool.kill_primary()
        # The first supervisor crashed after detection, before promotion.
        # Its replacement sees the same dead primary and finishes the job.
        del first
        second = FailoverSupervisor(pool)
        assert second.handle_transition(dead(old_id)) is not None
        assert pool.manager is standby
