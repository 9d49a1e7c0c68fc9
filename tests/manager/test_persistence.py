"""Tests for the manager durability subsystem: journal, snapshots, recovery.

The centerpiece is the crash-point sweep: a scripted workload runs against a
journaled pool, then the journal is truncated at every record boundary (and
at several mid-record offsets) and a fresh manager is recovered from each
truncated copy.  Recovery must always restore exactly the state after the
longest whole-record prefix — never a torn half-applied operation — and every
checkpoint whose commit record survived must be readable through the
recovered manager.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil

import pytest

from repro import StdchkConfig, StdchkPool
from repro.client.proxy import ClientProxy
from repro.exceptions import (
    ConfigurationError,
    FileNotFoundInStdchkError,
    ManagerRecoveringError,
)
from repro.manager.manager import MetadataManager
from repro.manager.persistence import ManagerPersistence, encode_manager_state
from repro.manager.persistence.journal import (
    JournalWriter,
    encode_record,
    read_journal_records,
    scan_frames,
    truncate_torn_tail,
)
from repro.transport.inprocess import InProcessTransport
from repro.util.clock import VirtualClock
from repro.util.units import MiB
from tests.conftest import make_bytes


@pytest.fixture
def teardown():
    """``teardown(pool)`` closes ``pool`` (journal included) after the test."""
    with contextlib.ExitStack() as stack:
        yield stack.enter_context


# ---------------------------------------------------------------------------
# Journal primitives
# ---------------------------------------------------------------------------
class TestJournalPrimitives:
    def test_append_and_read_round_trip(self, tmp_path):
        path = str(tmp_path / "journal.wal")
        writer = JournalWriter(path, fsync_policy="never")
        records = [{"op": "make_folder", "data": {"path": f"/f{i}"}} for i in range(5)]
        for record in records:
            writer.append(record)
        writer.close()
        read, valid, torn = read_journal_records(path)
        assert read == records
        assert not torn
        assert valid == os.path.getsize(path)

    def test_torn_tail_is_detected_and_truncatable(self, tmp_path):
        path = str(tmp_path / "journal.wal")
        writer = JournalWriter(path, fsync_policy="never")
        writer.append({"op": "a", "data": {}})
        writer.append({"op": "b", "data": {}})
        writer.close()
        whole = os.path.getsize(path)
        partial = encode_record({"op": "c", "data": {}})[:-3]
        with open(path, "ab") as handle:
            handle.write(partial)
        read, valid, torn = read_journal_records(path)
        assert [r["op"] for r in read] == ["a", "b"]
        assert torn and valid == whole
        assert truncate_torn_tail(path) == len(partial)
        assert os.path.getsize(path) == whole
        assert truncate_torn_tail(path) is None

    def test_corrupt_middle_record_stops_replay(self, tmp_path):
        path = str(tmp_path / "journal.wal")
        writer = JournalWriter(path, fsync_policy="never")
        writer.append({"op": "a", "data": {}})
        first = writer.tell()
        writer.append({"op": "b", "data": {}})
        writer.append({"op": "c", "data": {}})
        writer.close()
        with open(path, "r+b") as handle:
            handle.seek(first + 10)
            handle.write(b"\xff")
        read, valid, torn = read_journal_records(path)
        assert [r["op"] for r in read] == ["a"]
        assert torn and valid == first

    def test_fsync_policies(self, tmp_path):
        always = JournalWriter(str(tmp_path / "a.wal"), fsync_policy="always")
        always.append({"op": "x", "data": {}})
        always.append({"op": "y", "data": {}}, durable=True)
        assert always.fsyncs == 2
        always.close()

        commit = JournalWriter(str(tmp_path / "c.wal"), fsync_policy="commit")
        commit.append({"op": "x", "data": {}})
        commit.append({"op": "y", "data": {}}, durable=True)
        assert commit.fsyncs == 1
        commit.close()

        never = JournalWriter(str(tmp_path / "n.wal"), fsync_policy="never")
        never.append({"op": "y", "data": {}}, durable=True)
        assert never.fsyncs == 0
        never.close()

    def test_unknown_policy_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            JournalWriter(str(tmp_path / "j.wal"), fsync_policy="sometimes")


# ---------------------------------------------------------------------------
# Shared workload driver
# ---------------------------------------------------------------------------
def journaled_config(journal_dir: str, **overrides) -> StdchkConfig:
    defaults = dict(
        chunk_size=16 * 1024,
        stripe_width=2,
        replication_level=1,
        incremental_file_size=32 * 1024,
        ack_batch_size=2,
        journal_dir=journal_dir,
        journal_fsync_policy="never",
        snapshot_every_n_records=10_000,
    )
    defaults.update(overrides)
    return StdchkConfig(**defaults)


def committed_view(manager: MetadataManager) -> dict:
    """The durable state a recovered manager must reproduce exactly."""
    files = {}
    for path, entry in manager.namespace.iter_files("/"):
        dataset = manager._datasets.get(entry.dataset_id)
        versions = {}
        if dataset is not None:
            for version in dataset.versions:
                versions[version.version] = (
                    version.size,
                    tuple(version.chunk_map.chunk_ids),
                    tuple(sorted(version.chunk_map.stored_benefactors)),
                )
        files[path] = (entry.dataset_id, versions)
    folders = sorted(path for path, _ in manager.namespace.iter_folders("/"))
    sessions = {sid: (s.path, s.version) for sid, s in manager._sessions.items()}
    return {"files": files, "folders": folders, "sessions": sessions}


def run_scripted_workload(pool: StdchkPool, client: ClientProxy):
    """Drive every journaled operation class; yield after each client call.

    Returns ``(views, payloads)``: ``views[lsn]`` is the expected committed
    view once the journal prefix through record ``lsn`` is recovered, and
    ``payloads[lsn]`` maps each then-committed ``(path, version)`` to its
    bytes.
    """
    views = {}
    payloads = {}
    committed = {}

    empty_view = {"files": {}, "folders": ["/"], "sessions": {}}

    def snap():
        lsn = pool.manager.persistence.last_lsn
        view = committed_view(pool.manager)
        previous = max(views) if views else -1
        # Records between client calls (registrations, placement acks, gc
        # authorizations) do not change the committed view; backfill them
        # with the state in force before this call.
        for middle in range(previous + 1, lsn):
            views.setdefault(middle, views.get(previous, empty_view))
            payloads.setdefault(middle, payloads.get(previous, {}))
        views[lsn] = view
        payloads[lsn] = dict(committed)

    def write_versioned(path, version, data):
        # Step through the session so every journal record lands as the
        # *last* record of a step (snap's backfill rule needs that).
        session = client.open_write(path)
        snap()  # create_session
        session.write(data)
        snap()  # possibly placement acks (no view change)
        session.close()
        committed[(path, version)] = data
        snap()  # final acks + commit

    snap()  # registration records from pool construction

    client.mkdir("/app", retention_kind="no-intervention")
    snap()
    data_v1 = make_bytes(50_000, seed=1)
    write_versioned("/app/a.N0.T1", 1, data_v1)
    data_v2 = make_bytes(45_000, seed=2)
    write_versioned("/app/a.N0.T1", 2, data_v2)
    data_other = make_bytes(30_000, seed=3)
    write_versioned("/other/b.N0.T1", 1, data_other)

    # An aborted session must stay aborted after recovery.
    session = client.open_write("/app/tmp.N0.T1")
    snap()
    session.abort()
    snap()

    # Deletion orphans the other file's chunks...
    client.delete("/other/b.N0.T1")
    del committed[("/other/b.N0.T1", 1)]
    snap()
    # ...and two GC rounds journal the deletion authorization.
    pool.garbage_collector.run_once()
    snap()
    pool.garbage_collector.run_once()
    snap()

    # Retention pruning is journaled through the manager.
    dataset = pool.manager.dataset_by_path("/app/a.N0.T1")
    pool.manager.prune_version(dataset.dataset_id, 1)
    del committed[("/app/a.N0.T1", 1)]
    snap()

    client.set_retention("/app", "automated-replace", keep_last=2)
    snap()
    return views, payloads


def recover_copy(journal_dir: str, config: StdchkConfig, destination: str,
                 transport=None, manager_id: str = "recovered"):
    """Recover a fresh manager from a copy of ``journal_dir``."""
    shutil.copytree(journal_dir, destination)
    manager = MetadataManager(
        transport=transport if transport is not None else InProcessTransport(),
        config=config.with_overrides(journal_dir=destination),
        clock=VirtualClock(),
        manager_id=manager_id,
    )
    report = manager.recover_from_journal()
    return manager, report


# ---------------------------------------------------------------------------
# Crash-point sweep
# ---------------------------------------------------------------------------
class TestCrashPointSweep:
    def test_every_crash_point_recovers_a_consistent_prefix(self, tmp_path, teardown):
        journal_dir = str(tmp_path / "journal")
        config = journaled_config(journal_dir)
        pool = teardown(StdchkPool(benefactor_count=3, benefactor_capacity=64 * MiB,
                                   config=config))
        client = pool.client("writer")
        views, payloads = run_scripted_workload(pool, client)

        wal_path = os.path.join(journal_dir, "journal-000000000000.wal")
        with open(wal_path, "rb") as handle:
            journal = handle.read()
        records, valid = scan_frames(journal)
        assert valid == len(journal)
        assert len(records) == max(views)

        # Record boundary offsets, in order.
        boundaries = [0]
        for record in records:
            boundaries.append(boundaries[-1] + len(encode_record(record)))

        crash_points = []
        for index, boundary in enumerate(boundaries):
            crash_points.append((boundary, index, True))
            if index < len(records):
                span = boundaries[index + 1] - boundary
                for delta in (1, 5, span // 2, span - 1):
                    if 0 < delta < span:
                        crash_points.append((boundary + delta, index, False))

        for point, (offset, expect_lsn, at_boundary) in enumerate(crash_points):
            copy_dir = str(tmp_path / f"crash-{point}")
            shutil.copytree(journal_dir, copy_dir)
            truncated = os.path.join(copy_dir, "journal-000000000000.wal")
            with open(truncated, "r+b") as handle:
                handle.truncate(offset)
            manager = MetadataManager(
                transport=pool.transport,
                config=config.with_overrides(journal_dir=copy_dir),
                clock=VirtualClock(),
                manager_id=f"crash-{point}",
            )
            report = manager.recover_from_journal()
            assert report.records_replayed == expect_lsn
            assert report.torn_bytes_dropped == (0 if at_boundary else offset - boundaries[expect_lsn])
            assert committed_view(manager) == views[expect_lsn], (
                f"state diverged at crash offset {offset} (record {expect_lsn})"
            )
            if at_boundary:
                # Every committed checkpoint must be readable end-to-end
                # through the recovered manager (chunks still live on the
                # pool's benefactors).
                reader = ClientProxy(
                    client_id=f"reader-{point}",
                    transport=pool.transport,
                    manager_address=manager.address,
                    config=config,
                )
                final = payloads[max(views)]
                for (path, version), data in payloads[expect_lsn].items():
                    if (path, version) not in final:
                        # Deleted later: its chunks are already GC'd from the
                        # (shared, post-workload) benefactor stores.
                        continue
                    assert reader.read_file(path, version=version) == data
                gone = {
                    key for key in payloads[max(views)]
                    if key not in payloads[expect_lsn]
                }
                for path, version in gone:
                    with pytest.raises((FileNotFoundInStdchkError, KeyError)):
                        reader.read_file(path, version=version)
            manager.close_persistence()
            pool.transport.unregister(manager.address)
            shutil.rmtree(copy_dir)

    def test_recovered_manager_resumes_journaling(self, tmp_path, teardown):
        journal_dir = str(tmp_path / "journal")
        config = journaled_config(journal_dir)
        pool = teardown(StdchkPool(benefactor_count=3, benefactor_capacity=64 * MiB,
                                   config=config))
        client = pool.client("writer")
        data = make_bytes(40_000, seed=11)
        client.write_file("/app/c.N0.T1", data)

        pool.restart_manager()
        # The recovered manager keeps journaling: write another version,
        # crash again, recover again — both versions must survive.
        survivor = pool.client("writer-2")
        data2 = make_bytes(42_000, seed=12)
        survivor.write_file("/app/c.N0.T1", data2)
        pool.restart_manager()
        reader = pool.client("reader")
        assert reader.read_file("/app/c.N0.T1", version=1) == data
        assert reader.read_file("/app/c.N0.T1", version=2) == data2


# ---------------------------------------------------------------------------
# Snapshots
# ---------------------------------------------------------------------------
class TestSnapshots:
    def test_snapshot_compacts_journal_and_recovery_uses_it(self, tmp_path, teardown):
        journal_dir = str(tmp_path / "journal")
        config = journaled_config(journal_dir, snapshot_every_n_records=5)
        pool = teardown(StdchkPool(benefactor_count=3, benefactor_capacity=64 * MiB,
                                   config=config))
        client = pool.client("writer")
        expected = {}
        for step in range(6):
            data = make_bytes(20_000, seed=20 + step)
            client.write_file(f"/snap/f{step}.N0.T1", data)
            expected[f"/snap/f{step}.N0.T1"] = data
        persistence = pool.manager.persistence
        assert persistence.snapshots_taken >= 1
        assert persistence.snapshot_lsn > 0
        # Compaction: exactly one snapshot and one (tail) journal remain.
        names = sorted(os.listdir(journal_dir))
        assert len([n for n in names if n.startswith("snapshot-")]) == 1
        assert len([n for n in names if n.startswith("journal-")]) == 1

        view_before = committed_view(pool.manager)
        report = pool.restart_manager()
        assert report.snapshot_loaded
        assert report.records_replayed < 6 * 2  # tail only, not the full history
        assert committed_view(pool.manager) == view_before
        reader = pool.client("reader")
        for path, data in expected.items():
            assert reader.read_file(path) == data

    def test_half_written_snapshot_falls_back_to_previous_state(self, tmp_path, teardown):
        journal_dir = str(tmp_path / "journal")
        config = journaled_config(journal_dir)
        pool = teardown(StdchkPool(benefactor_count=3, benefactor_capacity=64 * MiB,
                                   config=config))
        client = pool.client("writer")
        data = make_bytes(25_000, seed=31)
        client.write_file("/app/x.N0.T1", data)
        # A crash *during* snapshot write leaves a torn .json that must be
        # ignored in favour of the journal (here: a garbage file).
        garbage = os.path.join(journal_dir, "snapshot-000000099999.json")
        with open(garbage, "w", encoding="utf-8") as handle:
            handle.write('{"format": 1, "truncated...')
        copy = str(tmp_path / "copy")
        manager, report = recover_copy(journal_dir, config, copy)
        assert not report.snapshot_loaded
        assert committed_view(manager)["files"].keys() == {"/app/x.N0.T1"}
        manager.close_persistence()

    def test_snapshot_round_trip_preserves_counters(self, tmp_path, teardown):
        journal_dir = str(tmp_path / "journal")
        config = journaled_config(journal_dir, snapshot_every_n_records=4)
        pool = teardown(StdchkPool(benefactor_count=2, benefactor_capacity=64 * MiB,
                                   config=config))
        client = pool.client("writer")
        client.write_file("/a.N0.T1", make_bytes(10_000, seed=41))
        client.write_file("/b.N0.T1", make_bytes(10_000, seed=42))
        pool.restart_manager()
        # New identifiers must not collide with replayed ones.
        info = pool.client("writer-2").write_file("/c.N0.T1", make_bytes(10_000, seed=43))
        assert info is not None
        ids = {d.dataset_id for d in pool.manager.datasets()}
        assert len(ids) == 3


# ---------------------------------------------------------------------------
# Recovering state and configuration
# ---------------------------------------------------------------------------
class TestRecoveringState:
    def test_rpcs_fail_fast_while_recovering(self):
        manager = MetadataManager(transport=InProcessTransport(), clock=VirtualClock())
        manager.recovering = True
        with pytest.raises(ManagerRecoveringError):
            manager.create_session("/x", client_id="c")
        with pytest.raises(ManagerRecoveringError):
            manager.exists("/x")
        with pytest.raises(ManagerRecoveringError):
            manager.register_benefactor("b0", "addr", free_space=1)
        manager.recovering = False
        assert manager.exists("/x") is False

    def test_recover_flag_raised_during_replay_and_cleared_after(self, tmp_path, teardown):
        journal_dir = str(tmp_path / "journal")
        config = journaled_config(journal_dir)
        pool = teardown(StdchkPool(benefactor_count=2, benefactor_capacity=64 * MiB,
                                   config=config))
        pool.client("w").write_file("/f.N0.T1", make_bytes(5_000, seed=5))

        observed = []
        copy = str(tmp_path / "copy")
        shutil.copytree(journal_dir, copy)
        import repro.manager.manager as manager_module

        original = manager_module.apply_record

        def spying_apply(target, record):
            observed.append(target.recovering)
            return original(target, record)

        manager_module.apply_record = spying_apply
        try:
            # Construction over a journal with prior state auto-recovers.
            manager = MetadataManager(
                transport=InProcessTransport(),
                config=config.with_overrides(journal_dir=copy),
                clock=VirtualClock(),
                manager_id="observer",
            )
        finally:
            manager_module.apply_record = original
        assert observed and all(observed)
        assert manager.recovering is False
        manager.close_persistence()

    def test_fresh_manager_over_existing_journal_auto_recovers(self, tmp_path, teardown):
        """A new pool over a reused journal_dir (process restart) must replay
        the prior life instead of silently appending colliding records."""
        journal_dir = str(tmp_path / "journal")
        config = journaled_config(journal_dir)
        pool1 = teardown(StdchkPool(benefactor_count=3, benefactor_capacity=64 * MiB,
                                    config=config))
        pool1.client("w").write_file("/app/x.N0.T1", make_bytes(20_000, seed=71))
        first_dataset = pool1.manager.dataset_by_path("/app/x.N0.T1").dataset_id
        pool1.manager.close_persistence()

        pool2 = teardown(StdchkPool(benefactor_count=3, benefactor_capacity=64 * MiB,
                                    config=config))
        assert pool2.manager.last_recovery is not None
        assert pool2.manager.exists("/app/x.N0.T1")
        dataset = pool2.manager.dataset_by_path("/app/x.N0.T1")
        assert dataset.dataset_id == first_dataset
        # New identifiers continue past the replayed ones — no collisions.
        pool2.client("w2").write_file("/app/x.N0.T1", make_bytes(21_000, seed=72))
        pool2.client("w2").write_file("/app/y.N0.T1", make_bytes(22_000, seed=73))
        assert dataset.version_numbers == [1, 2]
        assert pool2.manager.dataset_by_path("/app/y.N0.T1").dataset_id != first_dataset
        # And the combined journal recovers cleanly a second time.
        report = pool2.restart_manager()
        assert report.versions == 3

    def test_journal_append_failure_takes_manager_offline(self, tmp_path, teardown):
        """Fail-stop: if a record cannot be written, the manager must not
        keep serving state that recovery cannot restore."""
        journal_dir = str(tmp_path / "journal")
        config = journaled_config(journal_dir)
        pool = teardown(StdchkPool(benefactor_count=2, benefactor_capacity=64 * MiB,
                                   config=config))
        manager = pool.manager
        session = manager.create_session("/f.N0.T1", client_id="c")

        def exploding_append(op, payload, durable=False):
            raise OSError("journal volume full")

        manager.persistence.append = exploding_append
        chunk_map = {"placements": [{"chunk_id": "sha1:aa", "offset": 0,
                                     "length": 10, "benefactors": ["benefactor-00"]}]}
        with pytest.raises(OSError):
            manager.commit_session(session["session_id"], chunk_map, size=10)
        assert manager.online is False
        from repro.exceptions import ManagerUnavailableError
        with pytest.raises(ManagerUnavailableError):
            manager.exists("/f.N0.T1")

    def test_recover_without_journal_dir_is_an_error(self):
        manager = MetadataManager(transport=InProcessTransport(), clock=VirtualClock())
        with pytest.raises(ConfigurationError):
            manager.recover_from_journal()

    def test_restart_manager_requires_journal(self, small_config):
        pool = StdchkPool(benefactor_count=2, config=small_config)
        with pytest.raises(ConfigurationError):
            pool.restart_manager()


# ---------------------------------------------------------------------------
# Soft-state reconciliation
# ---------------------------------------------------------------------------
class TestReconciliation:
    def test_replicated_placements_reattached_after_recovery(self, tmp_path, teardown):
        journal_dir = str(tmp_path / "journal")
        config = journaled_config(journal_dir, replication_level=2, stripe_width=2)
        pool = teardown(StdchkPool(benefactor_count=4, benefactor_capacity=64 * MiB,
                                   config=config))
        client = pool.client("writer")
        data = make_bytes(60_000, seed=51)
        client.write_file("/app/r.N0.T1", data)
        pool.heal()
        before = {
            placement.ref.chunk_id: sorted(placement.benefactors)
            for placement in pool.manager.dataset_by_path("/app/r.N0.T1").latest.chunk_map
        }
        assert all(len(holders) >= 2 for holders in before.values())

        pool.restart_manager()
        after_map = pool.manager.dataset_by_path("/app/r.N0.T1").latest.chunk_map
        after = {
            placement.ref.chunk_id: sorted(placement.benefactors)
            for placement in after_map
        }
        # The journal only carried commit-time placements (one holder);
        # inventory reconciliation re-attached the background replicas.
        assert after == before
        assert after_map.min_replication() >= 2

    def test_orphans_scheduled_for_gc_after_recovery(self, tmp_path, teardown):
        journal_dir = str(tmp_path / "journal")
        config = journaled_config(journal_dir)
        pool = teardown(StdchkPool(benefactor_count=3, benefactor_capacity=64 * MiB,
                                   config=config))
        client = pool.client("writer")
        client.write_file("/gone/x.N0.T1", make_bytes(40_000, seed=61))
        client.delete("/gone/x.N0.T1")
        stored = sum(b.store.chunk_count for b in pool.benefactors.values())
        assert stored > 0

        pool.restart_manager()
        # Orphans flow through the regular seen-twice GC exchange (a single
        # round must NOT collect them: an "orphan" could be an in-flight
        # chunk whose ack record was lost in the crash).
        pool.garbage_collector.run_once()
        assert sum(b.store.chunk_count for b in pool.benefactors.values()) > 0
        pool.garbage_collector.run_once()
        assert sum(b.store.chunk_count for b in pool.benefactors.values()) == 0

    def test_dropped_benefactor_stays_dropped_after_recovery(self, tmp_path, teardown):
        """A permanently departed benefactor must not resurrect in recovered
        chunk maps: its ghost replicas would mask real under-replication."""
        journal_dir = str(tmp_path / "journal")
        config = journaled_config(journal_dir, replication_level=2, stripe_width=2)
        pool = teardown(StdchkPool(benefactor_count=4, benefactor_capacity=64 * MiB,
                                   config=config))
        client = pool.client("writer")
        client.write_file("/app/d.N0.T1", make_bytes(50_000, seed=81))
        pool.heal()
        chunk_map = pool.manager.dataset_by_path("/app/d.N0.T1").latest.chunk_map
        victim = sorted(chunk_map.stored_benefactors)[0]

        pool.fail_benefactor(victim, lose_data=True)
        assert pool.manager.drop_benefactor_placements(victim) > 0
        pool.heal()

        pool.restart_manager()
        recovered_map = pool.manager.dataset_by_path("/app/d.N0.T1").latest.chunk_map
        assert victim not in recovered_map.stored_benefactors
        assert recovered_map.min_replication() >= 2

    def test_reconcile_inventory_reports_counts(self):
        transport = InProcessTransport()
        manager = MetadataManager(transport=transport, clock=VirtualClock())
        manager.register_benefactor("b0", "benefactor://b0", free_space=1 << 20)
        manager.register_benefactor("b1", "benefactor://b1", free_space=1 << 20)
        from repro.core.chunk import ChunkRef
        from repro.core.chunk_map import ChunkMap

        chunk_map = ChunkMap()
        chunk_map.append(ChunkRef("c1", 0, 100), benefactors=["b0"])
        chunk_map.append(ChunkRef("c2", 100, 100), benefactors=["b0"])
        session = manager.create_session("/f", client_id="c")
        manager.commit_session(session["session_id"], chunk_map.to_dict(), size=200)

        answer = manager.reconcile_inventory("b1", ["c2", "orphan-1"])
        assert answer["reattached"] == 1
        assert answer["orphans"] == ["orphan-1"]
        # No corruption reported and c2 reaches its target once re-attached:
        # the repair handoff has nothing for this benefactor.
        assert answer["purge"] == []
        assert answer["repair"] == []
        placement = manager.dataset_by_path("/f").latest.chunk_map.placement_for("c2")
        assert sorted(placement.benefactors) == ["b0", "b1"]
        # Reconciliation must not fast-track collection: the orphan still
        # needs to be seen twice by the regular GC exchange.
        assert manager.gc_report("b1", ["orphan-1"]) == {"collectible": []}
        assert manager.gc_report("b1", ["orphan-1"]) == {"collectible": ["orphan-1"]}


# ---------------------------------------------------------------------------
# Persistence store details
# ---------------------------------------------------------------------------
class TestManagerPersistenceStore:
    def test_empty_directory_loads_cleanly(self, tmp_path):
        persistence = ManagerPersistence(str(tmp_path / "j"), fsync_policy="never")
        state, records, torn = persistence.load()
        assert state is None and records == [] and torn == 0
        assert persistence.append("make_folder", {"path": "/a"}) == 1
        persistence.close()

    def test_load_sweeps_stale_snapshot_tmp_files(self, tmp_path):
        journal_dir = str(tmp_path / "j")
        os.makedirs(journal_dir)
        stale = os.path.join(journal_dir, "snapshot-000000000007.json.tmp")
        with open(stale, "w", encoding="utf-8") as handle:
            handle.write('{"half": ')
        persistence = ManagerPersistence(journal_dir, fsync_policy="never")
        persistence.load()
        assert not os.path.exists(stale)
        persistence.close()

    def test_append_reopen_continues_lsn(self, tmp_path):
        journal_dir = str(tmp_path / "j")
        persistence = ManagerPersistence(journal_dir, fsync_policy="never")
        persistence.append("make_folder", {"path": "/a"})
        persistence.append("delete", {"path": "/a"}, durable=True)
        persistence.close()
        reopened = ManagerPersistence(journal_dir, fsync_policy="never")
        state, records, torn = reopened.load()
        assert state is None and len(records) == 2 and torn == 0
        assert reopened.last_lsn == 2
        assert reopened.append("make_folder", {"path": "/b"}) == 3
        reopened.close()

    def test_take_snapshot_rotates_and_deletes(self, tmp_path):
        journal_dir = str(tmp_path / "j")
        persistence = ManagerPersistence(journal_dir, fsync_policy="never",
                                         snapshot_every_n_records=2)
        persistence.load()
        persistence.append("make_folder", {"path": "/a"})
        persistence.append("make_folder", {"path": "/b"})
        assert persistence.should_snapshot()
        lsn = persistence.take_snapshot({"format": 1, "fake": True})
        assert lsn == 2
        names = sorted(os.listdir(journal_dir))
        assert names == ["journal-000000000002.wal", "snapshot-000000000002.json"]
        with open(os.path.join(journal_dir, names[1]), encoding="utf-8") as handle:
            assert json.load(handle)["fake"] is True
        # Records after the snapshot land in the new segment.
        persistence.append("make_folder", {"path": "/c"})
        reader = ManagerPersistence(journal_dir, fsync_policy="never")
        state, records, torn = reader.load()
        reader.close()
        assert state["fake"] is True
        assert [r["data"]["path"] for r in records] == ["/c"]
        persistence.close()

    def test_snapshot_file_is_what_json_dump_wrote(self, tmp_path):
        """``take_snapshot`` encodes with ``json.dumps`` (the C encoder); the
        file must stay byte for byte what ``json.dump(state, handle,
        separators=(",", ":"))`` streamed before."""
        pool = StdchkPool(benefactor_count=3, config=StdchkConfig(
            chunk_size=64 * 1024, stripe_width=3, replication_level=2))
        client = pool.client("snap")
        client.mkdir("/sn\u00e4p", retention_kind="automated-replace", keep_last=2)
        for number in range(3):
            client.write_file(f"/sn\u00e4p/f{number}", make_bytes(150 * 1024, seed=number))
        client.open_write("/sn\u00e4p/open")  # an unfinished session is state too
        state = encode_manager_state(pool.manager)
        state["floats"] = [0.1, 1e-9, 2.5e17, float(1 << 40)]

        persistence = ManagerPersistence(str(tmp_path / "j"), fsync_policy="never")
        persistence.load()
        lsn = persistence.take_snapshot(state)
        persistence.close()
        with open(tmp_path / "j" / f"snapshot-{lsn:012d}.json", "rb") as handle:
            written = handle.read()
        reference = io.StringIO()
        json.dump(state, reference, separators=(",", ":"))
        assert written == reference.getvalue().encode("utf-8")
        assert json.loads(written) == state
