"""Integration tests: whole-system scenarios across manager, benefactors,
clients, the FS facade and the background services."""

import pytest

from repro import StdchkConfig, StdchkPool
from repro.transport.tcp import TcpTransport
from repro.util.config import (
    RetentionPolicyKind,
    SimilarityHeuristic,
    WriteProtocol,
)
from repro.util.naming import CheckpointName
from repro.util.units import MiB
from tests.conftest import make_bytes


def build_pool(benefactors=5, **overrides):
    defaults = dict(
        chunk_size=32 * 1024,
        stripe_width=3,
        replication_level=2,
        incremental_file_size=64 * 1024,
    )
    defaults.update(overrides)
    return StdchkPool(
        benefactor_count=benefactors,
        benefactor_capacity=128 * MiB,
        config=StdchkConfig(**defaults),
    )


class TestDesktopGridCheckpointingScenario:
    def test_parallel_application_checkpoints_and_restarts(self):
        """A 4-process application checkpoints every timestep; one process
        restarts from the latest image after its node is reclaimed."""
        pool = build_pool()
        fs_clients = [pool.client(f"node-{rank}") for rank in range(4)]
        images = {}
        for timestep in (1, 2, 3):
            for rank, client in enumerate(fs_clients):
                image = make_bytes(80_000, seed=100 * rank + timestep)
                client.write_checkpoint(CheckpointName("sim", rank, timestep), image)
                images[(rank, timestep)] = image
        pool.stabilize(rounds=2)

        # Node 2 is reclaimed; its process migrates and restarts elsewhere.
        restarted = pool.client("node-2-migrated")
        latest = restarted.restore_latest_checkpoint("sim")
        assert latest["name"].timestep == 3
        assert latest["data"] == images[(latest["name"].node, 3)]

        # Every stored image is still readable.
        for (rank, timestep), image in images.items():
            path = f"/sim/sim.N{rank}.T{timestep}"
            assert restarted.read_file(path) == image

    def test_checkpoint_data_survives_benefactor_loss_after_replication(self):
        pool = build_pool()
        client = pool.client("app")
        data = make_bytes(200_000, seed=7)
        client.write_file("/job/ckpt.N0.T1", data)
        pool.heal()
        # Lose two of the five benefactors, including data loss.
        victims = sorted(pool.manager.dataset_by_path("/job/ckpt.N0.T1")
                         .latest.chunk_map.stored_benefactors)[:1]
        for victim in victims:
            pool.fail_benefactor(victim, lose_data=True)
        assert client.read_file("/job/ckpt.N0.T1") == data

    def test_unreplicated_data_lost_when_sole_holder_dies(self):
        """Optimistic writes risk data loss until replication catches up —
        the documented tradeoff of the optimistic write semantics."""
        pool = build_pool(replication_level=1)
        client = pool.client("app")
        client.write_file("/risky/ckpt", make_bytes(100_000, seed=8))
        holders = pool.manager.dataset_by_path("/risky/ckpt").latest.chunk_map.stored_benefactors
        for victim in holders:
            pool.fail_benefactor(victim, lose_data=True)
        from repro.exceptions import ReadFailedError
        with pytest.raises(ReadFailedError):
            client.read_file("/risky/ckpt")

    def test_full_lifecycle_with_retention_and_gc(self):
        pool = build_pool()
        fs = pool.filesystem()
        fs.mkdir("/longrun", retention_kind=RetentionPolicyKind.AUTOMATED_REPLACE.value)
        for timestep in range(1, 6):
            fs.write_file("/longrun/app.N0.T1", make_bytes(64_000, seed=timestep))
        pool.stabilize(rounds=3)
        # Only the newest version remains and storage shrank accordingly.
        versions = fs.versions("/longrun/app.N0.T1")
        assert len(versions) == 1
        stored = pool.stored_bytes()
        assert stored <= 64_000 * pool.config.replication_level * 1.5
        assert fs.read_file("/longrun/app.N0.T1") == make_bytes(64_000, seed=5)


class TestIncrementalCheckpointingEndToEnd:
    def test_fsch_reduces_storage_across_versions(self):
        pool = build_pool(similarity_heuristic=SimilarityHeuristic.FSCH,
                          replication_level=1)
        client = pool.client("app")
        base = make_bytes(256 * 1024, seed=50)
        client.write_file("/inc/ckpt.N0.T1", base)
        # Ten successive checkpoints, each modifying one 32 KiB chunk.
        current = bytearray(base)
        for step in range(10):
            offset = (step % 8) * 32 * 1024
            current[offset:offset + 32 * 1024] = make_bytes(32 * 1024, seed=200 + step)
            client.write_file("/inc/ckpt.N0.T1", bytes(current))
        stats = client.lifetime_stats
        assert stats.bytes_deduplicated > 0.7 * stats.bytes_written
        # All versions readable; storage is far below 11 full images.
        assert client.read_file("/inc/ckpt.N0.T1") == bytes(current)
        assert pool.stored_bytes() < 3 * len(base)

    def test_mixed_protocols_and_similarity(self, tmp_path):
        pool = build_pool(similarity_heuristic=SimilarityHeuristic.FSCH,
                          write_protocol=WriteProtocol.INCREMENTAL)
        client = pool.client("app", spool_dir=str(tmp_path))
        data = make_bytes(300_000, seed=60)
        client.write_file("/mix/a", data)
        second = client.write_file("/mix/a", data)
        assert second.stats.bytes_pushed == 0
        assert client.read_file("/mix/a") == data


class TestManagerFailureScenario:
    def test_manager_outage_blocks_new_sessions_then_recovers(self):
        pool = build_pool()
        client = pool.client("app")
        client.write_file("/app/before", b"pre-outage data")
        pool.manager.fail()
        from repro.exceptions import ManagerUnavailableError
        with pytest.raises(ManagerUnavailableError):
            client.write_file("/app/during", b"should fail")
        pool.manager.recover()
        client.write_file("/app/after", b"post-outage data")
        assert client.read_file("/app/before") == b"pre-outage data"
        assert client.read_file("/app/after") == b"post-outage data"


class TestTcpDeployment:
    def test_storage_round_trip_over_sockets(self):
        """The same components work across a real (localhost TCP) transport."""
        from repro.benefactor.benefactor import Benefactor
        from repro.client.proxy import ClientProxy
        from repro.manager.manager import MetadataManager

        transport = TcpTransport()
        try:
            config = StdchkConfig(chunk_size=32 * 1024, stripe_width=2,
                                  replication_level=1,
                                  incremental_file_size=64 * 1024)
            manager = MetadataManager(transport=transport, config=config,
                                      manager_id="tcp-manager")
            # Clients and benefactors contact the manager at its bound socket.
            manager_address = transport.bound_address(manager.address)

            benefactors = []
            for index in range(2):
                benefactor = Benefactor(
                    benefactor_id=f"b{index}", transport=transport,
                    capacity=64 * MiB,
                )
                bound = transport.bound_address(benefactor.address)
                transport.call(manager_address, "register_benefactor",
                               benefactor_id=f"b{index}", address=bound,
                               free_space=benefactor.free_space)
                benefactors.append(benefactor)

            client = ClientProxy("tcp-client", transport, manager_address, config=config)
            payload = make_bytes(100_000, seed=77)
            client.write_file("/tcp/file", payload)
            assert client.read_file("/tcp/file") == payload
        finally:
            transport.close()
