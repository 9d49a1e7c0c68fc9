"""Tests for the client proxy, write protocols and the read path."""

import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro import StdchkConfig, StdchkPool
from repro.exceptions import FileNotFoundInStdchkError, SessionStateError
from repro.util.config import SimilarityHeuristic, WriteProtocol, WriteSemantics
from repro.util.naming import CheckpointName
from repro.util.units import MiB
from tests.conftest import make_bytes


def build_pool(**overrides):
    defaults = dict(
        chunk_size=32 * 1024,
        stripe_width=3,
        replication_level=2,
        incremental_file_size=64 * 1024,
    )
    defaults.update(overrides)
    config = StdchkConfig(**defaults)
    return StdchkPool(benefactor_count=4, benefactor_capacity=64 * MiB, config=config)


class TestWriteProtocols:
    @pytest.mark.parametrize("protocol", list(WriteProtocol))
    def test_round_trip_each_protocol(self, protocol, tmp_path):
        pool = build_pool(write_protocol=protocol)
        client = pool.client("c1", spool_dir=str(tmp_path))
        data = make_bytes(300_000, seed=42)
        session = client.write_file("/app/file", data, block_size=7_777)
        assert session.committed
        assert session.size == len(data)
        assert client.read_file("/app/file") == data

    @pytest.mark.parametrize("protocol", list(WriteProtocol))
    def test_empty_and_tiny_files(self, protocol, tmp_path):
        pool = build_pool(write_protocol=protocol)
        client = pool.client("c1", spool_dir=str(tmp_path))
        client.write_file("/app/empty", b"")
        client.write_file("/app/tiny", b"x")
        assert client.read_file("/app/empty") == b""
        assert client.read_file("/app/tiny") == b"x"

    def test_incremental_write_rotates_temp_files(self, tmp_path):
        pool = build_pool(write_protocol=WriteProtocol.INCREMENTAL)
        client = pool.client("c1", spool_dir=str(tmp_path))
        session = client.open_write("/app/big")
        data = make_bytes(5 * 64 * 1024, seed=3)
        # Applications write in small blocks; each full temporary file (64 KiB
        # here) is pushed out and a fresh one started.
        for start in range(0, len(data), 16 * 1024):
            session.write(data[start:start + 16 * 1024])
        assert session.temporary_files_used >= 5
        session.close()
        assert client.read_file("/app/big") == data

    def test_session_context_manager_commits(self):
        pool = build_pool()
        client = pool.client("c1")
        with client.open_write("/app/ctx") as session:
            session.write(b"managed bytes")
        assert client.read_file("/app/ctx") == b"managed bytes"

    def test_session_context_manager_aborts_on_error(self):
        pool = build_pool()
        client = pool.client("c1")
        with pytest.raises(RuntimeError):
            with client.open_write("/app/broken") as session:
                session.write(b"data")
                raise RuntimeError("application crashed")
        assert not client.exists("/app/broken") or not pool.manager.get_versions("/app/broken")

    def test_write_after_close_rejected(self):
        pool = build_pool()
        client = pool.client("c1")
        session = client.open_write("/app/x")
        session.write(b"abc")
        session.close()
        with pytest.raises(SessionStateError):
            session.write(b"more")
        with pytest.raises(SessionStateError):
            session.close()

    def test_aborted_session_is_invisible(self):
        pool = build_pool()
        client = pool.client("c1")
        session = client.open_write("/app/ghost")
        session.write(b"not committed")
        session.abort()
        with pytest.raises(FileNotFoundInStdchkError):
            client.read_file("/app/ghost")

    def test_session_semantics_commit_only_at_close(self):
        pool = build_pool()
        client = pool.client("c1")
        session = client.open_write("/app/pending")
        session.write(make_bytes(100_000, seed=9))
        # Before close the file has no committed version.
        assert pool.manager.get_versions("/app/pending") == []
        session.close()
        assert len(pool.manager.get_versions("/app/pending")) == 1

    def test_pessimistic_semantics_synchronous_replicas(self):
        pool = build_pool(write_semantics=WriteSemantics.PESSIMISTIC)
        client = pool.client("c1")
        session = client.write_file("/app/safe", make_bytes(96 * 1024, seed=10))
        dataset = pool.manager.dataset_by_path("/app/safe")
        assert dataset.latest.chunk_map.min_replication() == 2
        # Pessimistic pushes every replica itself: twice the network effort.
        assert session.stats.bytes_pushed == 2 * 96 * 1024

    def test_optimistic_semantics_single_copy(self):
        pool = build_pool(write_semantics=WriteSemantics.OPTIMISTIC)
        client = pool.client("c1")
        session = client.write_file("/app/fast", make_bytes(96 * 1024, seed=11))
        assert session.stats.bytes_pushed == 96 * 1024
        assert pool.manager.dataset_by_path("/app/fast").latest.chunk_map.min_replication() == 1

    def test_oab_asb_metrics_exposed(self):
        pool = build_pool()
        client = pool.client("c1")
        session = client.write_file("/app/m", make_bytes(64 * 1024, seed=12))
        assert session.observed_duration >= 0.0
        assert session.storage_duration >= 0.0

    @given(size=st.integers(min_value=0, max_value=200_000),
           block=st.integers(min_value=1, max_value=70_000))
    @settings(max_examples=15, deadline=None)
    def test_round_trip_property(self, size, block):
        pool = build_pool()
        client = pool.client("c1")
        data = make_bytes(size, seed=size)
        client.write_file("/app/prop", data, block_size=block)
        assert client.read_file("/app/prop") == data


class TestFailureHandling:
    def test_write_survives_benefactor_failure_mid_stream(self):
        # Pessimistic semantics: every chunk already has two replicas, so the
        # image stays readable even though one stripe member dies mid-write.
        pool = build_pool(write_semantics=WriteSemantics.PESSIMISTIC)
        client = pool.client("c1")
        session = client.open_write("/app/resilient")
        session.write(make_bytes(64 * 1024, seed=20))
        # Kill one of the stripe's benefactors before more data arrives.
        victim = session.session_info["stripe"][0]["benefactor_id"]
        pool.fail_benefactor(victim)
        session.write(make_bytes(64 * 1024, seed=21))
        session.close()
        expected = make_bytes(64 * 1024, seed=20) + make_bytes(64 * 1024, seed=21)
        assert client.read_file("/app/resilient") == expected
        assert session.stats.push_failures > 0

    def test_read_falls_back_to_replica(self):
        pool = build_pool(write_semantics=WriteSemantics.PESSIMISTIC)
        client = pool.client("c1")
        data = make_bytes(128 * 1024, seed=22)
        client.write_file("/app/replicated", data)
        holders = pool.manager.dataset_by_path("/app/replicated").latest.chunk_map.stored_benefactors
        pool.fail_benefactor(sorted(holders)[0])
        reader = client.open_read("/app/replicated")
        assert reader.read_all() == data
        assert reader.replica_fallbacks >= 0

    def test_read_range(self):
        pool = build_pool()
        client = pool.client("c1")
        data = make_bytes(100_000, seed=23)
        client.write_file("/app/ranged", data)
        assert client.read_range("/app/ranged", 0, 10) == data[:10]
        assert client.read_range("/app/ranged", 50_000, 1_000) == data[50_000:51_000]
        assert client.read_range("/app/ranged", 99_990, 1_000) == data[99_990:]
        assert client.read_range("/app/ranged", 200_000, 10) == b""


class TestIncrementalCheckpointing:
    def test_unchanged_chunks_not_repushed(self):
        pool = build_pool(similarity_heuristic=SimilarityHeuristic.FSCH)
        client = pool.client("c1")
        base = make_bytes(256 * 1024, seed=30)
        first = client.write_file("/app/ckpt.N0.T1", base)
        assert first.stats.chunks_deduplicated == 0
        # Modify one 32 KiB chunk in the middle.
        modified = bytearray(base)
        modified[64 * 1024:96 * 1024] = make_bytes(32 * 1024, seed=31)
        second = client.write_file("/app/ckpt.N0.T1", bytes(modified))
        assert second.stats.chunks_deduplicated == 7
        assert second.stats.bytes_pushed == 32 * 1024
        assert second.stats.dedup_ratio == pytest.approx(7 / 8)
        assert client.read_file("/app/ckpt.N0.T1") == bytes(modified)
        # The previous version remains readable (copy-on-write versioning).
        assert client.read_file("/app/ckpt.N0.T1", version=1) == base

    def test_identical_rewrite_pushes_nothing(self):
        pool = build_pool(similarity_heuristic=SimilarityHeuristic.FSCH)
        client = pool.client("c1")
        data = make_bytes(128 * 1024, seed=32)
        client.write_file("/app/same", data)
        second = client.write_file("/app/same", data)
        assert second.stats.bytes_pushed == 0
        assert second.stats.dedup_ratio == pytest.approx(1.0)

    def test_dedup_within_single_write(self):
        pool = build_pool(similarity_heuristic=SimilarityHeuristic.FSCH)
        client = pool.client("c1")
        block = make_bytes(32 * 1024, seed=33)
        session = client.write_file("/app/repeats", block * 6)
        assert session.stats.chunks_pushed == 1
        assert session.stats.chunks_deduplicated == 5
        assert client.read_file("/app/repeats") == block * 6

    def test_lifetime_stats_accumulate(self):
        pool = build_pool(similarity_heuristic=SimilarityHeuristic.FSCH)
        client = pool.client("c1")
        data = make_bytes(64 * 1024, seed=34)
        client.write_file("/app/a", data)
        client.write_file("/app/a", data)
        assert client.lifetime_stats.bytes_written == 2 * len(data)
        assert client.lifetime_stats.bytes_deduplicated == len(data)

    def test_filesystem_writes_reach_lifetime_stats_and_counters(self):
        pool = build_pool()
        fs = pool.filesystem("fs-writer")
        fs.write_file("/app/via-fs", make_bytes(50_000, seed=35))
        client = fs.client
        assert client.lifetime_stats.bytes_written == 50_000
        assert client.obs.counter("client_bytes_written_total").value == 50_000
        assert (client.obs.counter("client_chunks_pushed_total").value
                == client.lifetime_stats.chunks_pushed > 0)

    def test_open_write_session_is_counted_once_at_close(self):
        pool = build_pool()
        client = pool.client("c1")
        session = client.open_write("/app/session")
        session.write(make_bytes(40_000, seed=36))
        assert client.lifetime_stats.bytes_written == 0
        session.close()
        assert client.lifetime_stats.bytes_written == 40_000
        with pytest.raises(SessionStateError):
            session.close()
        assert client.lifetime_stats.bytes_written == 40_000

    def test_sessions_closing_on_many_threads_lose_no_bytes(self):
        pool = build_pool()
        client = pool.client("c1")
        threads, writes, size = 8, 4, 10_000

        def writer(index):
            for n in range(writes):
                client.write_file(f"/app/t{index}-{n}",
                                  make_bytes(size, seed=100 * index + n))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=writer, args=(i,))
                       for i in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert client.lifetime_stats.bytes_written == threads * writes * size
        assert (client.obs.counter("client_bytes_written_total").value
                == threads * writes * size)

    def test_aborted_session_is_not_counted(self):
        pool = build_pool()
        client = pool.client("c1")
        session = client.open_write("/app/aborted")
        session.write(make_bytes(40_000, seed=37))
        session.abort()
        assert client.lifetime_stats.bytes_written == 0
        assert client.obs.counter("client_bytes_written_total").value == 0


class TestCheckpointNamingApi:
    def test_write_checkpoint_uses_convention(self):
        pool = build_pool()
        client = pool.client("c1")
        name = CheckpointName("blast", node=2, timestep=7)
        client.write_checkpoint(name, b"image bytes")
        assert client.listdir("/blast") == ["blast.N2.T7"]
        stat = client.stat("/blast/blast.N2.T7")
        assert stat["size"] == len(b"image bytes")

    def test_restore_latest_checkpoint(self):
        pool = build_pool()
        client = pool.client("c1")
        for timestep in (1, 2, 3):
            client.write_checkpoint(
                CheckpointName("blast", 0, timestep), f"image-{timestep}".encode()
            )
        restored = client.restore_latest_checkpoint("blast")
        assert restored["name"].timestep == 3
        assert restored["data"] == b"image-3"

    def test_restore_without_checkpoints_raises(self):
        pool = build_pool()
        client = pool.client("c1")
        with pytest.raises(FileNotFoundInStdchkError):
            client.restore_latest_checkpoint("nothing")
