"""Tests for the metadata manager: registration, sessions, commits, GC answers."""

import pytest

from repro.benefactor.maintenance import compute_inventory_digest
from repro.core.chunk import ChunkRef
from repro.core.chunk_map import ChunkMap
from repro import StdchkPool
from repro.exceptions import (
    FileNotFoundInStdchkError,
    ManagerUnavailableError,
    NoBenefactorsAvailableError,
    SessionCommittedError,
    UnknownBenefactorError,
    UnknownDatasetError,
)
from repro.manager.manager import MetadataManager
from repro.manager.persistence import encode_manager_state
from repro.manager.registry import BenefactorRegistry
from repro.obs import set_enabled
from repro.transport.inprocess import InProcessTransport
from repro.util.clock import VirtualClock
from repro.util.config import StdchkConfig


@pytest.fixture
def manager_setup():
    transport = InProcessTransport()
    clock = VirtualClock()
    config = StdchkConfig(chunk_size=1024, stripe_width=2, replication_level=2)
    manager = MetadataManager(transport=transport, config=config, clock=clock)
    for index in range(4):
        manager.register_benefactor(
            benefactor_id=f"b{index}",
            address=f"benefactor://b{index}",
            free_space=1 << 20,
        )
    return transport, clock, manager


def committed_map(chunk_ids, benefactor="b0", size=1024):
    chunk_map = ChunkMap()
    for index, chunk_id in enumerate(chunk_ids):
        chunk_map.append(ChunkRef(chunk_id, index * size, size), benefactors=[benefactor])
    return chunk_map


class TestRegistry:
    def test_register_and_heartbeat(self):
        registry = BenefactorRegistry(heartbeat_timeout=10.0)
        registry.register("b0", "addr", 100, 0, 0, now=0.0)
        registry.heartbeat("b0", 90, 10, 1, now=5.0)
        record = registry.get("b0")
        assert record.free_space == 90
        assert record.heartbeats == 2
        assert registry.is_online("b0")

    def test_heartbeat_unknown_benefactor(self):
        with pytest.raises(UnknownBenefactorError):
            BenefactorRegistry().heartbeat("ghost", 1, 0, 0, now=0.0)

    def test_expiry_marks_offline(self):
        registry = BenefactorRegistry(heartbeat_timeout=10.0)
        registry.register("b0", "addr", 100, 0, 0, now=0.0)
        registry.register("b1", "addr", 100, 0, 0, now=5.0)
        expired = registry.expire(now=11.0)
        assert expired == ["b0"]
        assert not registry.is_online("b0")
        assert registry.is_online("b1")
        # A new registration brings the node back.
        registry.register("b0", "addr", 100, 0, 0, now=12.0)
        assert registry.is_online("b0")

    def test_totals(self):
        registry = BenefactorRegistry()
        registry.register("b0", "a", 100, 50, 0, now=0.0)
        registry.register("b1", "a", 200, 0, 0, now=0.0)
        assert registry.total_free_space() == 300
        assert registry.total_contributed_space() == 350
        assert len(registry) == 2
        assert "b0" in registry


class TestRegistryDigestTracking:
    def make_registry(self):
        registry = BenefactorRegistry(heartbeat_timeout=10.0)
        registry.register("b0", "addr", 100, 0, 0, now=0.0)
        return registry

    def test_unchanged_digest_needs_no_readvertisement(self):
        registry = self.make_registry()
        registry.note_reconciled("b0", "digest-1")
        assert registry.needs_reconcile("b0", "digest-1") is False

    def test_diverged_digest_forces_readvertisement(self):
        registry = self.make_registry()
        registry.note_reconciled("b0", "digest-1")
        assert registry.needs_reconcile("b0", "digest-2") is True
        # Reconciling at the new digest settles the divergence.
        registry.note_reconciled("b0", "digest-2")
        assert registry.needs_reconcile("b0", "digest-2") is False

    def test_never_reconciled_benefactor_must_advertise(self):
        registry = self.make_registry()
        assert registry.needs_reconcile("b0", "digest-1") is True
        assert registry.needs_reconcile("ghost", "digest-1") is True

    def test_repair_pending_overrides_a_matching_digest(self):
        registry = self.make_registry()
        registry.note_reconciled("b0", "digest-1")
        registry.set_repair_pending("b0")
        assert registry.needs_reconcile("b0", "digest-1") is True
        # The reconcile delivers the hints and clears the flag.
        registry.note_reconciled("b0", "digest-1")
        assert registry.needs_reconcile("b0", "digest-1") is False

    def test_manager_heartbeat_carries_the_divergence_signal(self):
        transport = InProcessTransport()
        config = StdchkConfig(chunk_size=1024, stripe_width=2)
        manager = MetadataManager(transport=transport, config=config,
                                  clock=VirtualClock())
        manager.register_benefactor("b0", "benefactor://b0", free_space=1 << 20)
        manager.reconcile_inventory("b0", ["c0", "c1"])
        matching = compute_inventory_digest(["c0", "c1"])
        answer = manager.heartbeat("b0", free_space=1 << 20,
                                   inventory_digest=matching)
        assert answer["inventory_requested"] is False
        answer = manager.heartbeat("b0", free_space=1 << 20,
                                   inventory_digest="different")
        assert answer["inventory_requested"] is True


class TestSessionsAndCommits:
    def test_create_session_allocates_stripe(self, manager_setup):
        _transport, _clock, manager = manager_setup
        info = manager.create_session("/app/f.N0.T1", "client-1", expected_size=4096)
        assert len(info["stripe"]) == 2
        assert info["version"] == 1
        assert info["chunk_size"] == 1024
        assert manager.active_sessions()

    def test_commit_creates_version_and_namespace_entry(self, manager_setup):
        _transport, _clock, manager = manager_setup
        info = manager.create_session("/app/f.N0.T1", "client-1")
        chunk_map = committed_map(["c0", "c1"])
        result = manager.commit_session(
            info["session_id"], chunk_map.to_dict(), size=2048, producer="N0", timestep=1
        )
        assert result["committed"] and result["version"] == 1
        stat = manager.stat("/app/f.N0.T1")
        assert stat["type"] == "file"
        assert stat["size"] == 2048
        assert manager.list_dir("/app") == ["f.N0.T1"]
        assert not manager.active_sessions()

    def test_double_commit_rejected(self, manager_setup):
        _transport, _clock, manager = manager_setup
        info = manager.create_session("/app/f", "client-1")
        manager.commit_session(info["session_id"], committed_map(["c0"]).to_dict(), 1024)
        with pytest.raises(SessionCommittedError):
            manager.commit_session(info["session_id"], committed_map(["c0"]).to_dict(), 1024,
                                   dataset_id=info["dataset_id"], version=info["version"])
        assert manager.get_versions("/app/f")[0]["version"] == 1
        assert len(manager.get_versions("/app/f")) == 1

    def test_commit_after_abort_rejected(self, tmp_path):
        config = StdchkConfig(chunk_size=1024, stripe_width=2, journal_dir=str(tmp_path),
                              journal_fsync_policy="never")
        manager = MetadataManager(transport=InProcessTransport(), config=config,
                                  clock=VirtualClock())
        manager.register_benefactor("b0", "benefactor://b0", free_space=1 << 20)
        info = manager.create_session("/app/f", "client-1")
        manager.abort_session(info["session_id"])
        lsn = manager.persistence.last_lsn
        with pytest.raises(UnknownDatasetError):
            manager.commit_session(info["session_id"], committed_map(["c0"]).to_dict(), 1024,
                                   dataset_id=info["dataset_id"], version=info["version"])
        assert manager.get_versions("/app/f") == []
        assert manager.persistence.last_lsn == lsn
        manager.close_persistence()

    def test_versioning_same_path(self, manager_setup):
        _transport, _clock, manager = manager_setup
        first = manager.create_session("/app/f", "client-1")
        manager.commit_session(first["session_id"], committed_map(["c0"]).to_dict(), 1024)
        second = manager.create_session("/app/f", "client-1")
        assert second["dataset_id"] == first["dataset_id"]
        assert second["version"] == 2
        manager.commit_session(second["session_id"], committed_map(["c1"]).to_dict(), 1024)
        versions = manager.get_versions("/app/f")
        assert [v["version"] for v in versions] == [1, 2]

    def test_get_chunk_map_latest_and_specific(self, manager_setup):
        _transport, _clock, manager = manager_setup
        info = manager.create_session("/app/f", "client-1")
        manager.commit_session(info["session_id"], committed_map(["c0"]).to_dict(), 1024)
        info2 = manager.create_session("/app/f", "client-1")
        manager.commit_session(info2["session_id"], committed_map(["c1"]).to_dict(), 1024)
        latest = manager.get_chunk_map("/app/f")
        assert latest["version"] == 2
        first = manager.get_chunk_map("/app/f", version=1)
        assert first["chunk_map"]["placements"][0]["chunk_id"] == "c0"
        assert "b0" in latest["addresses"]

    def test_get_existing_chunks_for_incremental(self, manager_setup):
        _transport, _clock, manager = manager_setup
        assert manager.get_existing_chunks("/app/new") == {"chunks": {}}
        info = manager.create_session("/app/f", "client-1")
        manager.commit_session(
            info["session_id"], committed_map(["sha1:aa", "sha1:bb"]).to_dict(), 2048
        )
        existing = manager.get_existing_chunks("/app/f")["chunks"]
        assert set(existing) == {"sha1:aa", "sha1:bb"}
        assert existing["sha1:aa"] == ["b0"]

    def test_unknown_session_and_dataset(self, manager_setup):
        _transport, _clock, manager = manager_setup
        with pytest.raises(UnknownDatasetError):
            manager.commit_session("session-404", {}, 0)
        with pytest.raises(FileNotFoundInStdchkError):
            manager.get_chunk_map("/does/not/exist")

    def test_no_benefactors_available(self):
        transport = InProcessTransport()
        manager = MetadataManager(transport=transport)
        with pytest.raises(NoBenefactorsAvailableError):
            manager.create_session("/x", "client")

    def test_extend_stripe(self, manager_setup):
        _transport, _clock, manager = manager_setup
        info = manager.create_session("/app/f", "client-1")
        manager.report_benefactor_failure(info["stripe"][0]["benefactor_id"])
        refreshed = manager.extend_stripe(info["session_id"])
        ids = {entry["benefactor_id"] for entry in refreshed["stripe"]}
        assert info["stripe"][0]["benefactor_id"] not in ids


class TestNamespaceOperations:
    def test_mkdir_with_retention_and_stat(self, manager_setup):
        _transport, _clock, manager = manager_setup
        manager.make_folder("/app", retention_kind="automated-purge", purge_after=60.0)
        stat = manager.stat("/app")
        assert stat["type"] == "directory"
        retention = manager.namespace.get_retention("/app")
        assert retention.purge_after == 60.0

    def test_delete_file_orphans_chunks(self, manager_setup):
        _transport, _clock, manager = manager_setup
        info = manager.create_session("/app/f", "client-1")
        manager.commit_session(info["session_id"], committed_map(["c0"]).to_dict(), 1024)
        assert manager.live_chunk_ids() == {"c0"}
        outcome = manager.delete("/app/f")
        assert outcome["deleted"] and outcome["versions_removed"] == 1
        assert manager.live_chunk_ids() == set()
        assert not manager.exists("/app/f")

    def test_remove_folder_force(self, manager_setup):
        _transport, _clock, manager = manager_setup
        info = manager.create_session("/app/f", "client-1")
        manager.commit_session(info["session_id"], committed_map(["c0"]).to_dict(), 1024)
        outcome = manager.remove_folder("/app", force=True)
        assert outcome["files_removed"] == 1
        assert not manager.exists("/app")

    def test_storage_summary(self, manager_setup):
        _transport, _clock, manager = manager_setup
        info = manager.create_session("/app/f", "client-1")
        manager.commit_session(info["session_id"], committed_map(["c0"]).to_dict(), 1024)
        summary = manager.storage_summary()
        assert summary["datasets"] == 1
        assert summary["versions"] == 1
        assert summary["unique_chunks"] == 1
        assert summary["benefactors_online"] == 4


class TestGcAndFailure:
    def test_gc_report_seen_twice_rule(self, manager_setup):
        _transport, _clock, manager = manager_setup
        info = manager.create_session("/app/f", "client-1")
        manager.commit_session(info["session_id"], committed_map(["live"]).to_dict(), 1024)
        first = manager.gc_report("b0", ["live", "orphan"])
        assert first["collectible"] == []  # orphan seen only once
        second = manager.gc_report("b0", ["live", "orphan"])
        assert second["collectible"] == ["orphan"]
        third = manager.gc_report("b0", ["live"])
        assert third["collectible"] == []

    def test_manager_failure_blocks_calls(self, manager_setup):
        _transport, _clock, manager = manager_setup
        manager.fail()
        with pytest.raises(ManagerUnavailableError):
            manager.create_session("/x", "client")
        with pytest.raises(ManagerUnavailableError):
            manager.stat("/")
        manager.recover()
        manager.stat("/")

    def test_expire_benefactors_via_clock(self, manager_setup):
        _transport, clock, manager = manager_setup
        clock.advance(manager.config.heartbeat_timeout + 1)
        expired = manager.expire_benefactors()
        assert len(expired) == 4
        manager.heartbeat("b0", free_space=100, inventory_digest="")
        assert manager.registry.is_online("b0")

    def test_drop_benefactor_placements(self, manager_setup):
        _transport, _clock, manager = manager_setup
        info = manager.create_session("/app/f", "client-1")
        manager.commit_session(info["session_id"], committed_map(["c0"], benefactor="b1").to_dict(), 1024)
        affected = manager.drop_benefactor_placements("b1")
        assert affected == 1
        latest = manager.get_chunk_map("/app/f")
        assert latest["chunk_map"]["placements"][0]["benefactors"] == []

    def test_transactions_counted(self, manager_setup):
        _transport, _clock, manager = manager_setup
        before = manager.transactions
        manager.stat("/")
        manager.list_dir("/")
        assert manager.transactions == before + 2

    def test_transactions_are_accounting_not_telemetry(self, manager_setup):
        """The switch stops telemetry, not the count Figure 8 reads; the
        metric is that count, read when snapshotted."""
        _transport, _clock, manager = manager_setup
        previous = set_enabled(False)
        try:
            before = manager.transactions
            manager.stat("/")
            manager.list_dir("/")
            assert manager.transactions == before + 2
            set_enabled(True)
            family = manager.get_metrics()["metrics"]["manager_transactions_total"]
            assert [entry["value"] for entry in family["series"]] == [manager.transactions]
        finally:
            set_enabled(previous)


class TestSessionsEnd:
    """A session or reservation exists exactly while it is open."""

    def test_commit_and_abort_delete_the_session_and_its_reservation(self, manager_setup):
        _transport, _clock, manager = manager_setup
        committed = manager.create_session("/app/f", "client-1")
        aborted = manager.create_session("/app/g", "client-1")
        assert len(manager.active_sessions()) == 2 and len(manager.reservations) == 2
        manager.commit_session(committed["session_id"], committed_map(["c0"]).to_dict(), 1024)
        manager.abort_session(aborted["session_id"])
        assert manager._sessions == {} and len(manager.reservations) == 0
        version = manager.dataset_by_path("/app/f").get_version(1)
        assert version.session_id == committed["session_id"]

    def test_write_delete_cycles_leave_nothing_behind(self):
        pool = StdchkPool(benefactor_count=4, config=StdchkConfig(
            chunk_size=4096, stripe_width=2, replication_level=1))
        client = pool.client("cycler")
        manager = pool.manager

        def cycles(count):
            for _ in range(count):
                client.write_file("/storm/f", bytes(4096))
                client.delete("/storm/f")
            with manager._meta_lock:
                return encode_manager_state(manager)

        after_10 = cycles(10)
        after_1000 = cycles(990)
        assert manager._sessions == {}
        assert len(manager.reservations) == 0
        assert manager.health()["active_sessions"] == 0
        # The snapshot after 1 000 cycles is the one after 10 but for the id
        # counters, which hold the number of cycles and nothing else.
        assert after_1000.pop("counters") == {
            "session": 1000, "dataset": 1000, "reservation": 1000}
        after_10.pop("counters")
        assert after_1000 == after_10
        client.close()
