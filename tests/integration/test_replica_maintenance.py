"""Integration tests for decentralized replica maintenance and self-healing.

The scenarios drive the full loop the PR wires together: a striped read
detects a corrupt replica and reports it (``report_corrupt_chunk``), the
manager drops the placement, remembers the bad copy in its durable
corruption ledger and flags the surviving holders; digest-carrying
heartbeats deliver the repair handoff through ``reconcile_inventory``; and
the benefactors' own anti-entropy passes re-replicate.  That is the one
healer: the manager judges under-replication, the benefactors copy.

Checkpoints use FsCH (content-addressed chunks) so corruption is
attributable, and pessimistic writes so every chunk starts at the
replication target deterministically.
"""

from __future__ import annotations

from repro import StdchkConfig, StdchkPool, TcpDeployment
from repro.core.chunk import Chunk
from repro.simulation.churn import ChurnModel
from repro.util.config import SimilarityHeuristic, WriteSemantics
from tests.conftest import make_bytes

CHUNK = 32 * 1024


def maintenance_config(**overrides) -> StdchkConfig:
    defaults = dict(
        chunk_size=CHUNK,
        stripe_width=2,
        replication_level=2,
        write_semantics=WriteSemantics.PESSIMISTIC,
        similarity_heuristic=SimilarityHeuristic.FSCH,
        incremental_file_size=2 * CHUNK,
    )
    defaults.update(overrides)
    return StdchkConfig(**defaults)


def corrupt_replica(pool: StdchkPool, benefactor_id: str, chunk_id: str,
                    length: int) -> None:
    """Silently rot one stored replica (same length, wrong bytes)."""
    store = pool.benefactors[benefactor_id].store
    assert store.contains(chunk_id)
    store._chunks[chunk_id] = make_bytes(length, seed=0xBAD)  # memory-store internals


def read_until_reported(pool: StdchkPool, client, path: str,
                        data: bytes, attempts: int = 8) -> None:
    """Read until replica rotation hits the corrupt copy and reports it.

    Every read must still return correct bytes: the fallback replica serves
    the chunk while the corruption is only *reported*, never fatal.
    """
    for _ in range(attempts):
        assert client.read_file(path) == data
        if pool.manager.corrupt_replicas():
            return
    raise AssertionError("corrupt replica never selected within attempts")


def worst_replication(manager) -> int:
    worst = None
    for dataset in manager.datasets():
        for version in dataset.versions:
            level = version.chunk_map.min_replication()
            worst = level if worst is None else min(worst, level)
    assert worst is not None, "no committed versions to inspect"
    return worst


class TestCorruptionReportRegression:
    """Regression: the read path's integrity fallback must feed repair."""

    def test_corrupt_replica_is_reported_dropped_and_repaired(self):
        pool = StdchkPool(benefactor_count=4, config=maintenance_config())
        client = pool.client("writer")
        path = "/app/ckpt.N0.T1"
        data = make_bytes(6 * CHUNK, seed=31)
        client.write_file(path, data)
        record = pool.manager.dataset_by_path(path).latest
        assert record.chunk_map.min_replication() == 2
        placement = next(iter(record.chunk_map))
        chunk_id = placement.ref.chunk_id
        victim = placement.benefactors[0]
        corrupt_replica(pool, victim, chunk_id, placement.ref.length)

        read_until_reported(pool, pool.client("reader"), path, data)

        # Reported: ledger entry recorded, bad placement dropped immediately.
        assert pool.manager.corrupt_replicas() == {chunk_id: [victim]}
        assert victim not in placement.benefactors
        assert placement.replica_count == 1

        # Healed by the one healer: the manager's reconcile answer names the
        # repair, the benefactors' maintenance rounds copy.
        pool.heal(rounds=4)
        assert record.chunk_map.min_replication() >= 2
        # The bad copy was purged; if the victim ever holds this chunk
        # again, it is a fresh verified replica.
        store = pool.benefactors[victim].store
        if store.contains(chunk_id):
            Chunk(chunk_id=chunk_id, data=store.get(chunk_id).data).verify()

    def test_reader_counts_its_corruption_reports(self):
        pool = StdchkPool(benefactor_count=4, config=maintenance_config())
        client = pool.client("writer")
        path = "/app/ckpt.N0.T2"
        data = make_bytes(3 * CHUNK, seed=32)
        client.write_file(path, data)
        record = pool.manager.dataset_by_path(path).latest
        placement = next(iter(record.chunk_map))
        corrupt_replica(pool, placement.benefactors[0],
                        placement.ref.chunk_id, placement.ref.length)
        reported = 0
        for _ in range(8):
            reader = client.open_read(path)
            assert reader.read_all() == data
            reported += reader.corruptions_reported
            if reported:
                break
        assert reported == 1


class TestChurnAcceptance:
    """The acceptance scenario: the only fresh copy's holder churns away.

    Chunk X lives on A (good) and B (corrupt).  A read reports B, so A
    holds the only trustworthy copy — then a churn trace kills A.  Once the
    trace brings A back, decentralized maintenance alone (heartbeat digests
    → reconcile handoff → anti-entropy) must return every committed dataset
    to the replication target.  ``pool.replication_service`` never runs.
    """

    def test_anti_entropy_alone_restores_replication_after_churn(self):
        pool = StdchkPool(benefactor_count=5, config=maintenance_config())
        client = pool.client("writer")
        path = "/sim/ckpt.N0.T1"
        data = make_bytes(5 * CHUNK, seed=41)
        client.write_file(path, data)
        record = pool.manager.dataset_by_path(path).latest
        placement = next(iter(record.chunk_map))
        chunk_id = placement.ref.chunk_id
        survivor, corrupted = placement.benefactors[0], placement.benefactors[1]
        corrupt_replica(pool, corrupted, chunk_id, placement.ref.length)
        read_until_reported(pool, pool.client("reader"), path, data)
        assert pool.manager.corrupt_replicas() == {chunk_id: [corrupted]}
        assert placement.benefactors == [survivor]

        # A churn trace decides when the surviving holder dies and returns.
        trace = ChurnModel(mean_uptime=300.0, mean_downtime=120.0,
                           seed=7).trace_for(survivor, horizon=3600.0)
        assert trace.failure_times(), "trace must contain at least one failure"
        pool.fail_benefactor(survivor)

        # While the only fresh copy is offline nothing can heal the chunk;
        # the corrupt holder still purges its bad bytes via reconcile.
        pool.heal(rounds=2)
        assert placement.replica_count <= 1
        assert not pool.benefactors[corrupted].store.contains(chunk_id)

        # The trace's next transition brings the node back online.
        pool.recover_benefactor(survivor)
        pool.heal(rounds=5)

        assert worst_replication(pool.manager) >= 2
        assert placement.replica_count >= 2
        # The excluded corrupt holder was not used as a copy target while
        # its ledger entry stood; by now the ledger has been cleared.
        assert pool.manager.corrupt_replicas() == {}
        # Every replica of the wounded chunk now verifies.
        for holder in placement.benefactors:
            payload = pool.benefactors[holder].store.get(chunk_id).data
            Chunk(chunk_id=chunk_id, data=payload).verify()


class TestOrphanReattachment:
    def test_present_but_unattached_copy_is_reattached_without_copying(self):
        # Three nodes so the repair has exactly one candidate: the node
        # hosting the orphaned copy.
        pool = StdchkPool(benefactor_count=3, config=maintenance_config())
        client = pool.client("writer")
        path = "/orphan/ckpt.N0.T1"
        # A single-chunk image: the only repair work in this pool is the
        # chunk whose orphaned copy is waiting to be found.
        data = make_bytes(CHUNK, seed=51)
        client.write_file(path, data)
        record = pool.manager.dataset_by_path(path).latest
        placement = next(iter(record.chunk_map))
        chunk_id = placement.ref.chunk_id
        holders = set(placement.benefactors)
        outsider = next(b for b in pool.benefactors if b not in holders)
        source = placement.benefactors[0]
        departed = placement.benefactors[1]

        # The outsider holds an orphaned copy (as if a recovered node's
        # placements had been dropped) nobody knows about...
        payload = pool.benefactors[source].store.get(chunk_id).data
        pool.benefactors[outsider].put_chunks([chunk_id], [payload])
        # ...and the other tracked holder departs for good.
        pool.fail_benefactor(departed, lose_data=True)
        pool.manager.drop_benefactor_placements(departed)
        assert placement.benefactors == [source]
        before = {
            b.benefactor_id: b.stats["replications_out"]
            for b in pool.benefactors.values()
        }

        pool.heal(rounds=4)

        assert outsider in placement.benefactors
        assert placement.replica_count >= 2
        # The orphan was re-attached, never re-copied: no node pushed the
        # chunk anywhere.
        after = {
            b.benefactor_id: b.stats["replications_out"]
            for b in pool.benefactors.values()
        }
        assert after == before


class TestMaintenanceOverTcp:
    """The new RPCs must serialize over the real TCP transport."""

    def test_corruption_repair_round_trip_over_tcp(self):
        config = maintenance_config(journal_fsync_policy="never")
        with TcpDeployment(benefactor_count=3, config=config) as deployment:
            client = deployment.client("writer")
            path = "/tcp/ckpt.N0.T1"
            data = make_bytes(3 * CHUNK, seed=61)
            client.write_file(path, data)

            # Digest heartbeats: a full round settles, a second round finds
            # every digest reconciled (exercises heartbeat + reconcile +
            # checksum_inventory over real sockets).
            deployment.run_maintenance_once()
            for bundle in deployment.maintenance.values():
                answer = bundle.heartbeat.run_once()
                assert answer["inventory_requested"] is False

            record = deployment.manager.dataset_by_path(path).latest
            placement = next(iter(record.chunk_map))
            chunk_id = placement.ref.chunk_id
            victim = placement.benefactors[0]
            store = next(
                b for b in deployment.benefactors
                if b.benefactor_id == victim
            ).store
            store._chunks[chunk_id] = make_bytes(placement.ref.length, seed=0xBAD)

            reader = deployment.client("reader")
            for _ in range(8):
                assert reader.read_file(path) == data
                if deployment.manager.corrupt_replicas():
                    break
            assert deployment.manager.corrupt_replicas() == {chunk_id: [victim]}

            for _ in range(4):
                deployment.run_maintenance_once()
            assert record.chunk_map.min_replication() >= 2


class TestLedgerDurability:
    def test_corruption_ledger_survives_manager_restart(self, tmp_path):
        config = maintenance_config(journal_dir=str(tmp_path / "journal"),
                                    journal_fsync_policy="never")
        pool = StdchkPool(benefactor_count=4, config=config)
        client = pool.client("writer")
        path = "/wal/ckpt.N0.T1"
        data = make_bytes(3 * CHUNK, seed=71)
        client.write_file(path, data)
        record = pool.manager.dataset_by_path(path).latest
        placement = next(iter(record.chunk_map))
        chunk_id = placement.ref.chunk_id
        victim = placement.benefactors[0]
        corrupt_replica(pool, victim, chunk_id, placement.ref.length)
        pool.manager.report_corrupt_chunk(chunk_id, victim, reporter="test")
        assert victim not in placement.benefactors

        pool.restart_manager()

        # The replayed ledger still refuses the bad copy: re-registration
        # re-advertised the victim's inventory (still carrying the chunk)
        # yet the placement was not re-attached.
        assert pool.manager.corrupt_replicas() == {chunk_id: [victim]}
        restored = pool.manager.dataset_by_path(path).latest
        restored_placement = restored.chunk_map.placement_for(chunk_id)
        assert victim not in restored_placement.benefactors

        pool.heal(rounds=4)
        assert restored.chunk_map.min_replication() >= 2
        assert pool.manager.corrupt_replicas() == {}
