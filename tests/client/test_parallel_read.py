"""Concurrent read-path tests: the pipelined parallel striped reader.

Covers the tentpole guarantees: byte-identical reassembly under
``read_parallelism > 1`` (and at 1, where the path stays fully synchronous),
replica scheduling (rotation / least-outstanding / session-shared failure
discovery), corrupt-replica fallback, the streaming ``read_iter`` API, the
FS facade's asynchronous prefetch and its single-fetch-per-chunk guarantee,
and benefactor failure in the middle of a parallel read over TCP.
"""

from __future__ import annotations

import concurrent.futures
import threading

import pytest

from repro import StdchkConfig, StdchkPool, TcpDeployment
from repro.benefactor.chunk_store import DelayedChunkStore
from repro.client.read_path import ReplicaScheduler
from repro.exceptions import ConfigurationError, ReadFailedError
from repro.util.config import SimilarityHeuristic, WriteSemantics
from tests.conftest import make_bytes

CHUNK = 16 * 1024


def read_config(**overrides) -> StdchkConfig:
    defaults = dict(
        chunk_size=CHUNK,
        stripe_width=4,
        replication_level=2,
        incremental_file_size=4 * CHUNK,
        read_ahead=2 * CHUNK,
    )
    defaults.update(overrides)
    return StdchkConfig(**defaults)


def corrupt_chunk_on(pool: StdchkPool, benefactor_id: str, chunk_id: str,
                     junk: bytes) -> None:
    """Silently replace a stored chunk's payload (a faulty scavenged disk)."""
    store = pool.benefactors[benefactor_id].store
    assert store.contains(chunk_id)
    store._chunks[chunk_id] = junk  # MemoryChunkStore internals, deliberately


class TestParallelReadInProcess:
    @pytest.mark.parametrize("parallelism", [1, 2, 4])
    def test_read_is_byte_identical_at_every_parallelism(self, parallelism):
        pool = StdchkPool(benefactor_count=6, config=read_config())
        writer = pool.client("writer")
        data = make_bytes(23 * CHUNK + 321, seed=51)
        writer.write_file("/r/ckpt.N0.T1", data)
        reader_client = pool.client("reader", read_parallelism=parallelism)
        assert reader_client.read_file("/r/ckpt.N0.T1") == data

    def test_parallel_range_reads(self):
        pool = StdchkPool(benefactor_count=5, config=read_config())
        client = pool.client("ranged", read_parallelism=4)
        data = make_bytes(11 * CHUNK + 17, seed=3)
        client.write_file("/r/ranged", data)
        assert client.read_range("/r/ranged", 0, 100) == data[:100]
        assert client.read_range("/r/ranged", 3 * CHUNK - 5, 2 * CHUNK) == (
            data[3 * CHUNK - 5:5 * CHUNK - 5]
        )
        assert client.read_range("/r/ranged", len(data) - 50, 1000) == data[-50:]
        assert client.read_range("/r/ranged", len(data) + 1, 10) == b""

    def test_read_iter_streams_in_order(self):
        pool = StdchkPool(benefactor_count=5, config=read_config())
        client = pool.client("streamer", read_parallelism=4)
        data = make_bytes(17 * CHUNK + 9, seed=8)
        client.write_file("/r/stream", data)
        pieces = list(client.read_file_iter("/r/stream"))
        assert all(pieces)
        assert b"".join(pieces) == data
        # One piece per chunk: the image is never buffered whole.
        assert len(pieces) == 18

    def test_read_iter_abandoned_midway_releases_workers(self):
        pool = StdchkPool(benefactor_count=4, config=read_config())
        client = pool.client("quitter", read_parallelism=4)
        data = make_bytes(12 * CHUNK, seed=12)
        client.write_file("/r/quit", data)
        iterator = client.read_file_iter("/r/quit")
        assert next(iterator) == data[:CHUNK]
        iterator.close()  # generator finalization must drain the executor
        assert client.read_file("/r/quit") == data

    def test_versioned_parallel_read(self):
        pool = StdchkPool(
            benefactor_count=5,
            config=read_config(similarity_heuristic=SimilarityHeuristic.FSCH,
                              replication_level=1),
        )
        client = pool.client("versions", read_parallelism=4)
        base = make_bytes(9 * CHUNK, seed=60)
        client.write_file("/r/v.N0.T1", base)
        changed = bytearray(base)
        changed[5 * CHUNK:6 * CHUNK] = make_bytes(CHUNK, seed=61)
        client.write_file("/r/v.N0.T1", bytes(changed))
        assert client.read_file("/r/v.N0.T1", version=1) == base
        assert client.read_file("/r/v.N0.T1", version=2) == bytes(changed)


class TestReplicaScheduling:
    def test_order_prefers_idle_replicas(self):
        scheduler = ReplicaScheduler()
        scheduler.begin("a")
        scheduler.begin("a")
        scheduler.begin("b")
        assert scheduler.order(["a", "b", "c"])[0] == "c"
        scheduler.end("a")
        scheduler.end("a")
        scheduler.end("b")

    def test_order_rotates_between_idle_replicas(self):
        scheduler = ReplicaScheduler()
        firsts = {scheduler.order(["a", "b", "c"])[0] for _ in range(6)}
        assert firsts == {"a", "b", "c"}

    def test_failed_replicas_are_tried_last_and_recover(self):
        scheduler = ReplicaScheduler()
        scheduler.mark_failed("a")
        order = scheduler.order(["a", "b"])
        assert order[-1] == "a" and set(order) == {"a", "b"}
        scheduler.mark_alive("a")
        assert scheduler.failed_benefactors == set()

    def test_all_failed_still_yields_candidates(self):
        scheduler = ReplicaScheduler()
        scheduler.mark_failed("a")
        scheduler.mark_failed("b")
        assert set(scheduler.order(["a", "b"])) == {"a", "b"}
        assert scheduler.order([]) == []

    def test_parallel_reads_spread_load_across_replicas(self):
        pool = StdchkPool(benefactor_count=4, config=read_config())
        client = pool.client("spread", read_parallelism=4)
        data = make_bytes(24 * CHUNK, seed=44)
        client.write_file("/r/spread", data)
        pool.stabilize()  # replicate up so every chunk has 2 holders
        assert client.read_file("/r/spread") == data
        served = [b.stats["gets"] for b in pool.benefactors.values()]
        # Replica rotation must involve more than one benefactor, and no
        # single node may have served the whole image alone.
        assert sum(1 for count in served if count > 0) >= 2
        assert max(served) < 24

    def test_failure_discovery_is_shared_between_readers(self):
        pool = StdchkPool(benefactor_count=4, config=read_config())
        client = pool.client("shared")
        data = make_bytes(12 * CHUNK, seed=29)
        client.write_file("/r/shared", data)
        pool.stabilize()  # replicate up so every chunk survives one failure
        victim = next(iter(pool.benefactors))
        pool.fail_benefactor(victim)
        first = client.open_read("/r/shared")
        assert first.read_all() == data
        assert victim in client.replica_scheduler.failed_benefactors
        # A second reader of the same client starts with the discovery made
        # by the first: the dead benefactor is only a last-resort candidate.
        second = client.open_read("/r/shared")
        assert second.scheduler is client.replica_scheduler
        assert second.read_all() == data


class TestCorruptReplicaFallback:
    # FSCH makes chunks content-addressed (``sha1:<hex>``): silent payload
    # corruption is then caught by digest verification.  Position-addressed
    # chunks only carry a length, which the truncation test exercises.

    def test_corrupt_replica_falls_back_to_good_copy(self):
        pool = StdchkPool(
            benefactor_count=4,
            config=read_config(similarity_heuristic=SimilarityHeuristic.FSCH),
        )
        client = pool.client("c")
        data = make_bytes(8 * CHUNK, seed=90)
        client.write_file("/c/f", data)
        pool.stabilize()
        chunk_map = pool.manager.dataset_by_path("/c/f").latest.chunk_map
        # Corrupt every copy held by one benefactor; all of its chunks must
        # be served by the surviving replicas instead of aborting the read.
        victim = sorted(chunk_map.stored_benefactors)[0]
        corrupted = 0
        for placement in chunk_map:
            if victim in placement.benefactors and len(placement.benefactors) > 1:
                corrupt_chunk_on(pool, victim, placement.ref.chunk_id,
                                 make_bytes(placement.ref.length, seed=666))
                corrupted += 1
        assert corrupted > 0
        reader = client.open_read("/c/f")
        assert reader.read_all() == data
        assert reader.replica_fallbacks > 0
        assert victim in client.replica_scheduler.failed_benefactors

    def test_truncated_replica_is_treated_as_corrupt(self):
        # Position-addressed chunks carry no digest: the length check is the
        # only integrity signal, and it must trigger replica fallback too.
        pool = StdchkPool(benefactor_count=4, config=read_config())
        client = pool.client("t")
        data = make_bytes(4 * CHUNK, seed=91)
        client.write_file("/t/f", data)
        pool.stabilize()
        chunk_map = pool.manager.dataset_by_path("/t/f").latest.chunk_map
        for placement in chunk_map:
            if len(placement.benefactors) > 1:
                corrupt_chunk_on(pool, placement.benefactors[0],
                                 placement.ref.chunk_id, b"short")
        assert client.read_file("/t/f") == data

    def test_read_fails_only_when_every_replica_is_corrupt(self):
        pool = StdchkPool(
            benefactor_count=3,
            config=read_config(replication_level=1,
                               similarity_heuristic=SimilarityHeuristic.FSCH),
        )
        client = pool.client("doomed")
        data = make_bytes(3 * CHUNK, seed=92)
        client.write_file("/d/f", data)
        chunk_map = pool.manager.dataset_by_path("/d/f").latest.chunk_map
        placement = chunk_map.placements[1]
        for holder in placement.benefactors:
            corrupt_chunk_on(pool, holder, placement.ref.chunk_id,
                             make_bytes(placement.ref.length, seed=667))
        with pytest.raises(ReadFailedError):
            client.read_file("/d/f")


class TestFilesystemPrefetch:
    def make_fs(self, **overrides):
        pool = StdchkPool(benefactor_count=4, config=read_config(**overrides))
        return pool, pool.filesystem()

    def test_sequential_scan_fetches_each_chunk_exactly_once(self):
        _pool, fs = self.make_fs()
        data = make_bytes(10 * CHUNK, seed=70)
        fs.write_file("/fs/scan", data)
        handle = fs.open("/fs/scan", "rb")
        pieces = []
        while True:
            piece = handle.read(CHUNK // 4)  # sub-chunk reads
            if not piece:
                break
            pieces.append(piece)
        reader = handle._reader
        fs.close(handle)
        assert b"".join(pieces) == data
        # Regression: read-ahead used to over-fetch and discard, re-fetching
        # the same chunk for every sub-chunk read of a sequential scan.
        assert reader.chunks_fetched == 10
        assert reader.cache_hits > 0

    def test_whole_file_read_fetches_each_chunk_once(self):
        _pool, fs = self.make_fs()
        data = make_bytes(7 * CHUNK + 99, seed=71)
        fs.write_file("/fs/whole", data)
        handle = fs.open("/fs/whole", "rb")
        assert handle.read() == data
        assert handle._reader.chunks_fetched == 8
        fs.close(handle)

    def test_prefetch_is_asynchronous(self):
        # With per-get device latency, read-ahead must overlap the caller's
        # consumption: the second chunk is already in flight (or cached) by
        # the time the caller asks for it, so it never pays the full delay.
        import time

        delay = 0.02

        def slow_store(capacity):
            return DelayedChunkStore(capacity, get_delay=delay)

        config = read_config(replication_level=1, read_ahead=2 * CHUNK)
        pool = StdchkPool(benefactor_count=4, config=config,
                          store_factory=slow_store)
        fs = pool.filesystem()
        data = make_bytes(6 * CHUNK, seed=72)
        fs.write_file("/fs/slow", data)
        handle = fs.open("/fs/slow", "rb")
        assert handle.read(CHUNK) == data[:CHUNK]
        time.sleep(3 * delay)  # prefetch worker completes in the background
        start = time.perf_counter()
        assert handle.read(CHUNK) == data[CHUNK:2 * CHUNK]
        assert time.perf_counter() - start < delay
        fs.close(handle)

    def test_seek_back_within_cache_does_not_refetch(self):
        _pool, fs = self.make_fs()
        data = make_bytes(4 * CHUNK, seed=73)
        fs.write_file("/fs/seek", data)
        handle = fs.open("/fs/seek", "rb")
        assert handle.read(2 * CHUNK) == data[:2 * CHUNK]
        # The read-ahead it started counts its fetches when they land.
        concurrent.futures.wait(list(handle._reader._inflight.values()), timeout=5)
        fetched = handle._reader.chunks_fetched
        handle.seek(0)
        assert handle.read(CHUNK) == data[:CHUNK]
        assert handle._reader.chunks_fetched == fetched
        fs.close(handle)

    def test_seek_past_prefetched_region_keeps_prefetch_alive(self):
        # Regression: prefetched-but-never-consumed futures used to occupy
        # the in-flight window forever, silently disabling all later
        # prefetch after a forward seek.
        _pool, fs = self.make_fs()
        data = make_bytes(12 * CHUNK, seed=75)
        fs.write_file("/fs/jump", data)
        handle = fs.open("/fs/jump", "rb")
        assert handle.read(CHUNK) == data[:CHUNK]  # prefetches chunks 1..2
        handle.seek(6 * CHUNK)  # abandon the prefetched region
        reader = handle._reader
        concurrent.futures.wait(list(reader._inflight.values()), timeout=5)
        # All outstanding futures are now complete-but-unconsumed; the next
        # prefetch must reap them into the cache and keep scheduling.
        assert handle.read(CHUNK) == data[6 * CHUNK:7 * CHUNK]
        with reader._lock:
            reader._reap_completed_locked()
            scheduled = set(reader._inflight) | set(reader._cache)
        assert scheduled & {7, 8}, (
            "read-ahead stopped scheduling after the abandoned prefetch"
        )
        assert handle.read() == data[7 * CHUNK:]
        fs.close(handle)

    def test_chunk_miss_is_reader_local_not_session_wide(self):
        # A benefactor merely missing one chunk (stale map) must not be
        # poisoned in the session-shared scheduler like a dead node.
        pool, fs = self.make_fs()
        client = fs.client
        data = make_bytes(4 * CHUNK, seed=76)
        client.write_file("/fs/miss", data)
        pool.stabilize()
        chunk_map = pool.manager.dataset_by_path("/fs/miss").latest.chunk_map
        placement = chunk_map.placements[0]
        victim = placement.benefactors[0]
        pool.benefactors[victim].store.delete(placement.ref.chunk_id)
        reader = client.open_read("/fs/miss")
        assert reader.read_all() == data
        assert victim not in client.replica_scheduler.failed_benefactors

    def test_stream_file_facade(self):
        _pool, fs = self.make_fs()
        data = make_bytes(5 * CHUNK + 1, seed=74)
        fs.write_file("/fs/streamed", data)
        assert b"".join(fs.stream_file("/fs/streamed")) == data


class TestParallelReadOverTcp:
    def test_parallel_read_round_trip(self):
        with TcpDeployment(benefactor_count=4, config=read_config()) as deployment:
            writer = deployment.client("w", push_parallelism=4)
            data = make_bytes(20 * CHUNK + 5, seed=80)
            writer.write_file("/tcp/r", data)
            reader = deployment.client("r", read_parallelism=4)
            assert reader.read_file("/tcp/r") == data

    def test_benefactor_killed_mid_read_falls_back_to_replicas(self):
        def slow_store(capacity):
            return DelayedChunkStore(capacity, get_delay=0.002)

        # No maintenance round runs here, so the healer copies nothing;
        # pessimistic writes guarantee two live replicas per chunk before
        # the kill.
        config = read_config(write_semantics=WriteSemantics.PESSIMISTIC)
        with TcpDeployment(benefactor_count=4, config=config,
                           store_factory=slow_store) as deployment:
            writer = deployment.client("w", push_parallelism=4)
            data = make_bytes(24 * CHUNK, seed=81)
            writer.write_file("/tcp/mid", data)
            client = deployment.client("r", read_parallelism=4)
            reader = client.open_read("/tcp/mid")
            stream = reader.read_iter()
            pieces = [next(stream)]  # the pipeline is now in flight
            deployment.kill_benefactor(deployment.benefactors[0].benefactor_id)
            for piece in stream:
                pieces.append(piece)
            assert b"".join(pieces) == data
            assert reader.replica_fallbacks > 0

    def test_concurrent_tcp_readers_share_transport(self):
        config = read_config(replication_level=1)
        with TcpDeployment(benefactor_count=4, config=config) as deployment:
            writer = deployment.client("w", push_parallelism=4)
            payloads = {}
            for rank in range(4):
                payloads[rank] = make_bytes(8 * CHUNK + rank, seed=82 + rank)
                writer.write_file(f"/tcp/c{rank}", payloads[rank])
            errors = []

            def read(rank: int) -> None:
                try:
                    client = deployment.client(f"r{rank}", read_parallelism=4)
                    assert client.read_file(f"/tcp/c{rank}") == payloads[rank]
                except Exception as exc:  # pragma: no cover - failure detail
                    errors.append(exc)

            threads = [threading.Thread(target=read, args=(r,)) for r in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert errors == []

    def test_transport_pool_grows_to_read_window(self):
        with TcpDeployment(benefactor_count=2, config=read_config()) as deployment:
            assert deployment.transport._pool_size == 4
            deployment.client("wide", read_parallelism=8)
            assert deployment.transport._pool_size == 16


class TestReadConfigKnobs:
    def test_new_knobs_validate(self):
        with pytest.raises(ConfigurationError):
            StdchkConfig(read_parallelism=0)

    def test_read_window_is_twice_the_parallelism(self):
        pool = StdchkPool(benefactor_count=4, config=read_config())
        client = pool.client("w", read_parallelism=4)
        client.write_file("/w/f", make_bytes(4 * CHUNK, seed=3))
        assert client.open_read("/w/f")._window == 8
