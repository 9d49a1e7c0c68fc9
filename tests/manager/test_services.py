"""Tests for the background services: garbage collection and pruning.

Replica repair is covered by ``tests/test_healer_contract.py``.
"""

import pytest

from repro import StdchkConfig, StdchkPool
from repro.util.config import RetentionPolicyKind
from repro.util.units import MiB
from tests.conftest import make_bytes


@pytest.fixture
def small_pool():
    config = StdchkConfig(
        chunk_size=32 * 1024,
        stripe_width=3,
        replication_level=2,
        incremental_file_size=64 * 1024,
    )
    return StdchkPool(benefactor_count=5, benefactor_capacity=64 * MiB, config=config)


class TestGarbageCollector:
    def test_orphans_collected_after_delete(self, small_pool):
        client = small_pool.client("c1")
        client.write_file("/app/a", make_bytes(120_000, seed=6))
        stored_before = small_pool.stored_bytes()
        assert stored_before > 0
        client.delete("/app/a")
        # Two rounds: the seen-twice rule defers collection by one round.
        reports = small_pool.garbage_collector.run_rounds(2)
        assert reports[0].chunks_collected == 0
        assert reports[1].chunks_collected > 0
        assert small_pool.stored_bytes() == 0
        assert small_pool.garbage_collector.total_collected == reports[1].chunks_collected

    def test_live_chunks_never_collected(self, small_pool):
        client = small_pool.client("c1")
        data = make_bytes(120_000, seed=7)
        client.write_file("/app/a", data)
        small_pool.garbage_collector.run_rounds(3)
        assert client.read_file("/app/a") == data

    def test_unreachable_benefactor_skipped(self, small_pool):
        client = small_pool.client("c1")
        client.write_file("/app/a", make_bytes(60_000, seed=8))
        victim = list(small_pool.benefactors)[0]
        small_pool.fail_benefactor(victim)
        report = small_pool.garbage_collector.run_once()
        assert report.benefactors_unreachable <= 1
        assert report.benefactors_contacted >= 1

    def test_expired_reservations_released(self, small_pool):
        client = small_pool.client("c1")
        session = client.open_write("/app/never-closed", expected_size=1 << 20)
        session.write(b"some bytes")
        small_pool.clock.advance(small_pool.config.reservation_lease + 1)
        released = small_pool.garbage_collector.collect_expired_reservations()
        assert released == 1


class TestRetentionPruner:
    def test_automated_replace_keeps_only_newest(self, small_pool):
        client = small_pool.client("c1")
        client.mkdir("/app", retention_kind=RetentionPolicyKind.AUTOMATED_REPLACE.value)
        for step in range(4):
            client.write_file("/app/ckpt.N0.T1", make_bytes(50_000, seed=step))
        manager = small_pool.manager
        assert len(manager.dataset_by_path("/app/ckpt.N0.T1")) == 4
        report = small_pool.pruner.run_once()
        assert report.versions_removed == 3
        assert len(manager.dataset_by_path("/app/ckpt.N0.T1")) == 1
        # After pruning + two GC rounds the orphaned chunks disappear.
        small_pool.garbage_collector.run_rounds(2)
        remaining = small_pool.stored_bytes()
        assert remaining <= 2 * 50_000 * small_pool.config.replication_level

    def test_automated_purge_by_age(self, small_pool):
        client = small_pool.client("c1")
        client.mkdir("/app", retention_kind=RetentionPolicyKind.AUTOMATED_PURGE.value,
                     purge_after=100.0)
        client.write_file("/app/x", make_bytes(10_000, seed=1))
        small_pool.clock.advance(50)
        client.write_file("/app/x", make_bytes(10_000, seed=2))
        small_pool.clock.advance(120)
        report = small_pool.pruner.run_once()
        # Both versions exceed the age, but the newest is always protected.
        assert report.versions_removed == 1
        assert small_pool.pruner.total_versions_removed == 1

    def test_no_intervention_keeps_all(self, small_pool):
        client = small_pool.client("c1")
        for step in range(3):
            client.write_file("/keep/x", make_bytes(10_000, seed=step))
        report = small_pool.pruner.run_once()
        assert report.versions_removed == 0
        assert len(small_pool.manager.dataset_by_path("/keep/x")) == 3

    def test_prune_report_accounts_bytes(self, small_pool):
        client = small_pool.client("c1")
        client.mkdir("/app", retention_kind=RetentionPolicyKind.AUTOMATED_REPLACE.value)
        client.write_file("/app/x", make_bytes(30_000, seed=1))
        client.write_file("/app/x", make_bytes(30_000, seed=2))
        report = small_pool.pruner.run_once()
        assert report.bytes_removed == 30_000
        assert report.per_dataset == {"/app/x": 1}
