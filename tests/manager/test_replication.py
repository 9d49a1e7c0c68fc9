"""Tests for manager replication: log shipping, standbys, promotion.

The shipper streams the primary's logical redo records to standbys over the
ordinary transport; these tests verify the streaming contract (order, acked
LSNs, batching, snapshot resync for laggards), the standby's refusal of
normal RPCs, and that a promoted standby serves exactly the state the
shipped prefix describes.
"""

from __future__ import annotations

import time

import pytest

from repro import StdchkConfig, StdchkPool
from repro.exceptions import (
    NotPrimaryError,
    QuorumNotReachedError,
    StaleEpochError,
)
from repro.manager.manager import MetadataManager
from repro.manager.replication import LogShipper, StandbyManager
from repro.transport.inprocess import InProcessTransport
from repro.util.clock import VirtualClock
from tests.conftest import make_bytes

SMALL = dict(
    chunk_size=64 * 1024,
    stripe_width=3,
    replication_level=2,
    incremental_file_size=128 * 1024,
)


def make_pool(**overrides) -> StdchkPool:
    config = StdchkConfig(**{**SMALL, **overrides})
    return StdchkPool(benefactor_count=4, config=config)


# ---------------------------------------------------------------- streaming
class TestLogShipping:
    def test_standby_mirrors_primary_state(self):
        pool = make_pool()
        standby = pool.add_standby("standby-0")
        client = pool.client("c0")
        data = make_bytes(200 * 1024, seed=1)
        client.write_file("/app/ckpt.N0.T1", data)
        client.mkdir("/app/other")

        assert standby.applied_lsn == pool.manager.shipper.last_lsn
        assert standby.namespace.file_exists("/app/ckpt.N0.T1")
        assert standby.namespace.folder_exists("/app/other")
        # The standby's dataset carries the identical committed chunk map.
        primary_ds = pool.manager.dataset_by_path("/app/ckpt.N0.T1")
        standby_ds = standby.dataset_by_path("/app/ckpt.N0.T1")
        assert (standby_ds.latest.chunk_map.to_dict()
                == primary_ds.latest.chunk_map.to_dict())

    def test_acked_lsn_tracks_stream(self):
        pool = make_pool()
        standby = pool.add_standby("standby-0")
        shipper = pool.manager.shipper
        client = pool.client("c0")
        client.write_file("/app/a.N0.T1", make_bytes(70 * 1024, seed=2))
        assert shipper.acked_lsn(standby.address) == shipper.last_lsn
        assert shipper.last_lsn > 0

    def test_batched_shipping_flushes_on_durable_records(self):
        # With a large batch the stream still flushes at the commit (a
        # durable record), so committed versions always reach the standby.
        pool = make_pool(ship_batch_records=64)
        standby = pool.add_standby("standby-0")
        client = pool.client("c0")
        client.write_file("/app/a.N0.T1", make_bytes(70 * 1024, seed=3))
        assert standby.dataset_by_path("/app/a.N0.T1").latest is not None

    def test_shipping_works_without_journal_dir(self):
        # In-memory managers (no journal_dir) still replicate: the shipper
        # self-assigns LSNs.
        pool = make_pool()
        assert pool.config.journal_dir is None
        standby = pool.add_standby("standby-0")
        client = pool.client("c0")
        client.write_file("/app/a.N0.T1", make_bytes(70 * 1024, seed=4))
        assert standby.applied_lsn > 0

    def test_journal_lsns_drive_stream_when_journaled(self, tmp_path):
        pool = make_pool(journal_dir=str(tmp_path / "wal"))
        pool.add_standby("standby-0")
        client = pool.client("c0")
        client.write_file("/app/a.N0.T1", make_bytes(70 * 1024, seed=5))
        assert pool.manager.shipper.last_lsn == pool.manager.persistence.last_lsn

    @pytest.mark.parametrize("journaled", [True, False])
    def test_a_standby_attached_late_starts_at_the_primarys_lsn(self, tmp_path,
                                                                journaled):
        """One bootstrap snapshot, at the LSN the primary's state is at: a
        shipper that started at 0 under a journal at N installed it "at 0",
        and the next record found a gap and sent a second snapshot."""
        pool = make_pool(journal_dir=str(tmp_path / "wal") if journaled else None,
                         replication_quorum=1)
        client = pool.client("c0")
        client.mkdir("/app")
        client.write_file("/app/a.N0.T1", make_bytes(70 * 1024, seed=5))
        before = pool.manager.persistence.last_lsn if journaled else 0
        assert (before > 0) == journaled

        standby = pool.add_standby("standby-0")
        shipper = pool.manager.shipper
        assert standby.applied_lsn == shipper.last_lsn == before
        client.write_file("/app/b.N0.T1", make_bytes(70 * 1024, seed=6))
        assert shipper._standbys[standby.address].resyncs == 1
        assert standby.applied_lsn == shipper.last_lsn > before
        assert standby.namespace.file_exists("/app/a.N0.T1")

    def test_lagging_standby_resyncs_via_snapshot(self):
        # A standby enrolled with a tiny retention window that misses a burst
        # of records (unreachable) catches up through install_snapshot.
        pool = make_pool()
        shipper = LogShipper(pool.manager, transport=pool.transport,
                             retain_records=2)
        pool.manager.attach_shipper(shipper)
        standby = StandbyManager(transport=pool.transport, config=pool.config,
                                 clock=pool.clock, manager_id="standby-0")
        shipper.add_standby(standby.address)
        pool.standbys["standby-0"] = standby

        pool.transport.partition(standby.address)
        client = pool.client("c0")
        client.write_file("/app/a.N0.T1", make_bytes(200 * 1024, seed=6))
        assert standby.applied_lsn < shipper.last_lsn

        pool.transport.heal(standby.address)
        client.mkdir("/warmup")  # next shipped record triggers the resync
        assert standby.applied_lsn == shipper.last_lsn
        assert standby.namespace.file_exists("/app/a.N0.T1")
        assert standby.obs.counter(
            "standby_snapshots_installed_total", ""
        ).value >= 1

    @pytest.mark.parametrize("first_lsn,offered,acked,ships", [
        (1, 8, 8, []),                      # caught up: nothing to take
        (1, 8, 7, [8]),                     # the usual ship, one record
        (1, 8, 5, [6, 7, 8]),               # lagging inside the window
        (1, 8, 4, [5, 6, 7, 8]),            # exactly the retained window
        (1, 8, 3, None),                    # lagging past the window
        (1, 8, 0, None),
        (41, 3, 40, [41, 42, 43]),          # restarted primary, standby at its start
        (41, 3, 37, None),                  # ... standby before it: a gap
        (41, 3, 42, [43]),
    ])
    def test_suffix_by_position_is_the_suffix_by_scan(self, first_lsn, offered,
                                                      acked, ships):
        """``_unacked_suffix`` counts from the right of the window; what it
        returns is what scanning the whole window for ``lsn > acked`` gave,
        and None wherever that scan led to a snapshot resync."""
        pool = make_pool()
        shipper = LogShipper(pool.manager, transport=pool.transport, retain_records=4)
        for lsn in range(first_lsn, first_lsn + offered):
            shipper.offer({"op": "noop", "n": lsn}, lsn=lsn)
        scanned = [(lsn, rec) for lsn, rec in shipper._window if lsn > acked]
        resync = not scanned or scanned[0][0] != acked + 1
        if acked >= shipper.last_lsn:
            assert ships == [] and scanned == []  # ``_ship_to`` returns before asking
            return
        suffix = shipper._unacked_suffix(acked)
        assert (suffix is None) == resync == (ships is None)
        if ships is not None:
            assert suffix == scanned
            assert [lsn for lsn, _rec in suffix] == ships

    def test_unreachable_standby_does_not_fail_primary(self):
        pool = make_pool()
        standby = pool.add_standby("standby-0")
        pool.transport.partition(standby.address)
        client = pool.client("c0")
        # The write must succeed even though every ship attempt fails.
        client.write_file("/app/a.N0.T1", make_bytes(70 * 1024, seed=7))
        assert pool.manager.online
        lag = pool.manager.obs.gauge(
            "manager_replication_lag_records", "", labelnames=("standby",)
        ).labels(standby=standby.address).value
        assert lag > 0

    def test_an_error_raised_inside_the_shipper_is_fail_stop(self, monkeypatch):
        pool = make_pool()
        pool.add_standby("standby-0")

        def offer(record, lsn=None, durable=False):
            raise RuntimeError("the shipper broke at a record boundary")

        monkeypatch.setattr(pool.manager.shipper, "offer", offer)
        # Straight at the manager (a failover client would retry through the
        # standby; fail-stop semantics are a *manager-side* contract).
        with pytest.raises(RuntimeError):
            pool.manager.make_folder("/app")
        assert not pool.manager.online


# ------------------------------------------------------------------ standby
class TestStandbyManager:
    def make_standby(self):
        transport = InProcessTransport()
        clock = VirtualClock()
        primary = MetadataManager(transport=transport, clock=clock,
                                  manager_id="primary")
        shipper = LogShipper(primary, transport=transport)
        primary.attach_shipper(shipper)
        standby = StandbyManager(transport=transport, clock=clock,
                                 manager_id="standby")
        shipper.add_standby(standby.address)
        return transport, primary, standby

    def test_refuses_normal_rpcs_until_promoted(self):
        _transport, _primary, standby = self.make_standby()
        with pytest.raises(NotPrimaryError):
            standby.make_folder("/app")
        with pytest.raises(NotPrimaryError):
            standby.heartbeat(benefactor_id="b0", free_space=1, inventory_digest="")
        standby.promote()
        standby.make_folder("/app")  # now served

    def test_manager_status_is_served_while_standby(self):
        transport, _primary, standby = self.make_standby()
        status = transport.call(standby.address, "manager_status")
        assert status["role"] == "standby"
        assert status["applied_lsn"] == 0

    def test_duplicate_records_are_skipped(self):
        transport, _primary, standby = self.make_standby()
        record = {"op": "make_folder", "data": {
            "path": "/app", "retention_kind": None,
            "purge_after": 3600.0, "keep_last": 1, "t": 0.0,
        }}
        answer = transport.call(standby.address, "replicate_records",
                                records=[record], from_lsn=1,
                                epoch=standby.epoch)
        assert answer == {"applied_lsn": 1, "resync": False}
        # Overlapping re-send: already-applied LSN 1 is skipped, no error.
        answer = transport.call(standby.address, "replicate_records",
                                records=[record], from_lsn=1,
                                epoch=standby.epoch)
        assert answer["applied_lsn"] == 1

    def test_gap_requests_resync(self):
        transport, _primary, standby = self.make_standby()
        record = {"op": "make_folder", "data": {
            "path": "/app", "retention_kind": None,
            "purge_after": 3600.0, "keep_last": 1, "t": 0.0,
        }}
        answer = transport.call(standby.address, "replicate_records",
                                records=[record], from_lsn=5,
                                epoch=standby.epoch)
        assert answer["resync"] is True
        assert not standby.namespace.folder_exists("/app")

    def test_standby_never_journals_the_primary_dir(self, tmp_path):
        wal = tmp_path / "wal"
        transport = InProcessTransport()
        config = StdchkConfig(**SMALL, journal_dir=str(wal))
        primary = MetadataManager(transport=transport, config=config,
                                  manager_id="primary")
        standby = StandbyManager(transport=transport, config=config,
                                 manager_id="standby")
        assert primary.persistence is not None
        assert standby.persistence is None

    def test_promote_attaches_fresh_journal(self, tmp_path):
        pool = make_pool()
        standby = pool.add_standby("standby-0")
        client = pool.client("c0")
        data = make_bytes(70 * 1024, seed=8)
        client.write_file("/app/a.N0.T1", data)
        pool.kill_primary()
        promoted_dir = tmp_path / "promoted-wal"
        pool.promote_standby(journal_dir=str(promoted_dir))
        assert standby.persistence is not None
        assert standby.persistence.snapshot_lsn >= 0
        # The promoted manager keeps journaling new mutations.
        client.write_file("/app/a.N0.T2", data)
        assert standby.persistence.last_lsn > 0


# ---------------------------------------------------------------- promotion
class TestPromotion:
    def test_promoted_standby_serves_reads_and_writes(self):
        pool = make_pool()
        pool.add_standby("standby-0")
        client = pool.client("c0")
        data = make_bytes(200 * 1024, seed=9)
        client.write_file("/app/a.N0.T1", data)
        pool.kill_primary()
        promoted = pool.promote_standby()
        assert promoted.role == "primary"
        assert pool.manager is promoted
        assert client.read_file("/app/a.N0.T1") == data
        client.write_file("/app/a.N0.T2", data)
        assert client.read_file("/app/a.N0.T2") == data

    def test_promotion_is_idempotent(self):
        pool = make_pool()
        standby = pool.add_standby("standby-0")
        pool.kill_primary()
        pool.promote_standby()
        assert standby.promote()["promoted"] is False

    def test_failover_duration_histogram_recorded(self):
        pool = make_pool()
        pool.add_standby("standby-0")
        pool.kill_primary()
        promoted = pool.promote_standby()
        hist = promoted.obs.histogram("manager_failover_seconds", "")
        assert hist.count == 1

    def test_services_repointed_after_promotion(self):
        pool = make_pool()
        pool.add_standby("standby-0")
        client = pool.client("c0")
        client.write_file("/app/a.N0.T1", make_bytes(70 * 1024, seed=10))
        pool.kill_primary()
        promoted = pool.promote_standby()
        assert pool.garbage_collector.manager is promoted
        assert {bundle.manager_address for bundle in pool.maintenance.values()} \
            == {pool.manager_address}
        assert pool.pruner.manager is promoted
        pool.run_services_once()  # must not raise

    def test_benefactors_reregister_against_promoted_standby(self):
        pool = make_pool()
        pool.add_standby("standby-0")
        client = pool.client("c0")
        client.write_file("/app/a.N0.T1", make_bytes(70 * 1024, seed=11))
        pool.kill_primary()
        promoted = pool.promote_standby()
        online = promoted.registry.online()
        assert len(online) == len(pool.benefactors)


# ------------------------------------------------------------------- quorum
class TestQuorumReplication:
    def test_quorum_write_waits_for_standby_acks(self):
        pool = make_pool(replication_quorum=1)
        standby = pool.add_standby("standby-0")
        client = pool.client("c0")
        data = make_bytes(200 * 1024, seed=20)
        client.write_file("/app/a.N0.T1", data)
        shipper = pool.manager.shipper
        # Every acknowledged record reached the standby before the client ack.
        assert shipper.acked_lsn(standby.address) == shipper.last_lsn
        assert standby.namespace.file_exists("/app/a.N0.T1")
        recent = pool.manager.obs.window_summary("manager_quorum_ack_seconds")
        assert recent["count"] > 0

    def test_quorum_overrides_batching(self):
        # A large ship batch must not delay quorum collection: quorum mode
        # ships synchronously on every record.
        pool = make_pool(replication_quorum=1, ship_batch_records=64)
        standby = pool.add_standby("standby-0")
        pool.manager.make_folder("/app")
        assert standby.namespace.folder_exists("/app")

    def test_fail_policy_refuses_ack_when_quorum_unreachable(self):
        pool = make_pool(replication_quorum=1, quorum_timeout=0.05)
        standby = pool.add_standby("standby-0")
        pool.transport.partition(standby.address)
        with pytest.raises(QuorumNotReachedError) as exc_info:
            pool.manager.make_folder("/app")
        assert exc_info.value.acked == 0
        assert exc_info.value.required == 1
        # The op is applied and locally consistent — only the ack is refused
        # — and the manager keeps serving (no fail-stop).
        assert pool.manager.online
        assert pool.manager.namespace.folder_exists("/app")
        failures = pool.manager.obs.counter(
            "manager_quorum_failures_total", "").value
        assert failures >= 1

    def test_async_degrade_proceeds_with_breadcrumb(self):
        pool = make_pool(replication_quorum=1, quorum_timeout=0.05,
                         quorum_degrade="async")
        standby = pool.add_standby("standby-0")
        pool.transport.partition(standby.address)
        pool.manager.make_folder("/app")  # acked despite the missing quorum
        degrades = pool.manager.obs.counter(
            "manager_quorum_degrades_total", "").value
        assert degrades >= 1
        # The standby catches up once it returns (async semantics).
        pool.transport.heal(standby.address)
        pool.manager.make_folder("/later")
        assert standby.namespace.folder_exists("/app")

    def test_quorum_of_two_needs_both_standbys(self):
        pool = make_pool(replication_quorum=2, quorum_timeout=0.05)
        pool.add_standby("standby-0")
        lagging = pool.add_standby("standby-1")
        pool.manager.make_folder("/both")  # both reachable: acked
        pool.transport.partition(lagging.address)
        with pytest.raises(QuorumNotReachedError) as exc_info:
            pool.manager.make_folder("/one-short")
        assert exc_info.value.acked == 1

    def test_quorum_wait_runs_on_the_manager_clock(self):
        """A partitioned standby costs ``quorum_timeout`` of the pool's
        virtual time, not of the wall clock."""
        pool = make_pool(replication_quorum=1)
        assert pool.config.quorum_timeout == 2.0
        standby = pool.add_standby("standby-0")
        pool.transport.partition(standby.address)
        virtual, wall = pool.clock.now(), time.perf_counter()
        with pytest.raises(QuorumNotReachedError):
            pool.manager.make_folder("/app")
        assert pool.clock.now() - virtual >= 2.0
        assert time.perf_counter() - wall < 0.5

    def test_quorum_retry_covers_transient_standby_outage(self):
        # The quorum wait re-flushes until the deadline: a standby that
        # returns within the timeout lets the op succeed.
        pool = make_pool(replication_quorum=1, quorum_timeout=5.0)
        standby = pool.add_standby("standby-0")
        pool.transport.drop(standby.address, "replicate_records")
        pool.manager.make_folder("/app")
        assert standby.namespace.folder_exists("/app")
        assert pool.manager.shipper._standbys[standby.address].failures == 1


# -------------------------------------------------------------------- epoch
class TestEpochFencing:
    def test_promotion_bumps_epoch(self):
        pool = make_pool()
        pool.add_standby("standby-0")
        pool.kill_primary()
        promoted = pool.promote_standby()
        assert promoted.epoch == 2
        assert promoted.manager_status()["epoch"] == 2
        assert promoted.health()["epoch"] == 2

    def test_deposed_primary_is_fenced_by_promotion(self):
        pool = make_pool()
        old = pool.manager
        pool.add_standby("standby-0")
        pool.kill_primary()
        promoted = pool.promote_standby()
        assert old.role == "fenced"
        assert old.epoch == promoted.epoch
        with pytest.raises(NotPrimaryError) as exc_info:
            old.make_folder("/zombie")
        assert exc_info.value.epoch == promoted.epoch
        assert exc_info.value.primary_address == promoted.address
        assert old.health()["status"] == "fenced"

    def test_fence_refuses_stale_epoch_on_live_primary(self):
        pool = make_pool()
        with pytest.raises(StaleEpochError) as exc_info:
            pool.manager.fence(1)  # not newer than the primary's own epoch
        assert exc_info.value.primary_address == pool.manager.address
        assert pool.manager.role == "primary"
        assert pool.manager.fence(7)["epoch"] == 7
        assert pool.manager.role == "fenced"

    def test_standby_rejects_stale_epoch_stream(self):
        transport = InProcessTransport()
        standby = StandbyManager(transport=transport, manager_id="standby")
        standby.epoch = 3
        record = {"op": "make_folder", "data": {
            "path": "/app", "retention_kind": None,
            "purge_after": 3600.0, "keep_last": 1, "t": 0.0,
        }}
        with pytest.raises(StaleEpochError) as exc_info:
            transport.call(standby.address, "replicate_records",
                           records=[record], from_lsn=1, epoch=2)
        assert exc_info.value.epoch == 3
        assert not standby.namespace.folder_exists("/app")
        # A newer epoch is adopted and the batch applies.
        answer = transport.call(standby.address, "replicate_records",
                                records=[record], from_lsn=1, epoch=4)
        assert answer["applied_lsn"] == 1
        assert standby.epoch == 4

    def test_zombie_primary_self_demotes_on_stale_ship(self):
        transport = InProcessTransport()
        clock = VirtualClock()
        primary = MetadataManager(transport=transport, clock=clock,
                                  manager_id="primary")
        shipper = LogShipper(primary, transport=transport)
        primary.attach_shipper(shipper)
        standby = StandbyManager(transport=transport, clock=clock,
                                 manager_id="standby")
        shipper.add_standby(standby.address)
        # The standby is promoted behind the primary's back (e.g. by a
        # supervisor that considered the primary dead).
        assert standby.promote()["epoch"] == 2
        # The zombie's next mutation ships under the stale epoch, bounces,
        # and self-demotes instead of split-braining.
        with pytest.raises(NotPrimaryError) as exc_info:
            primary.make_folder("/zombie")
        assert primary.role == "fenced"
        assert primary.epoch == 2
        assert primary.fenced_by == standby.address
        assert exc_info.value.primary_address == standby.address
        assert primary.online  # fenced, not fail-stopped

    def test_epoch_survives_restart_from_promoted_journal(self, tmp_path):
        pool = make_pool()
        pool.add_standby("standby-0")
        client = pool.client("c0")
        client.write_file("/app/a.N0.T1", make_bytes(70 * 1024, seed=21))
        pool.kill_primary()
        promoted_dir = tmp_path / "promoted-wal"
        promoted = pool.promote_standby(journal_dir=str(promoted_dir))
        assert promoted.epoch == 2
        promoted.close_persistence()
        config = StdchkConfig(**SMALL, journal_dir=str(promoted_dir))
        restarted = MetadataManager(
            transport=InProcessTransport(), config=config,
            manager_id="restarted",
        )
        assert restarted.epoch == 2
        assert restarted.namespace.file_exists("/app/a.N0.T1")
