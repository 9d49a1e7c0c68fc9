"""Concurrent read-path tests: the pipelined parallel striped reader.

Covers the tentpole guarantees: byte-identical reassembly under
``read_parallelism > 1`` (and at 1, where the path stays fully synchronous),
replica scheduling (rotation / least-outstanding / session-shared failure
discovery), corrupt-replica fallback, the streaming ``read_iter`` API, the
FS facade's asynchronous prefetch and its single-fetch-per-chunk guarantee,
and benefactor failure in the middle of a parallel read over TCP.
"""

from __future__ import annotations

import gc
import hashlib
import threading
import time
import tracemalloc

import pytest

from repro import StdchkConfig, StdchkPool, TcpDeployment
from repro.benefactor.chunk_store import DelayedChunkStore
from repro.client.read_path import ReplicaScheduler, StripedReader
from repro.core.chunk_map import ChunkMap
from repro.exceptions import ConfigurationError, ReadFailedError
from repro.transport.tcp import TRANSFER_UNIT
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
        firsts = {scheduler.order(["a", "b", "c"], start=scheduler.next_start())[0]
                  for _ in range(6)}
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
        # A parallelism of at least the number of holders reads from every
        # holder, so the first reader dials the victim whatever its plan.
        client = pool.client("shared", read_parallelism=4)
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
        client = pool.client("c", read_parallelism=4)  # reads from every holder
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

    @pytest.mark.parametrize("block", [CHUNK // 4, 5000], ids=["aligned", "unaligned"])
    def test_sequential_scan_fetches_each_chunk_exactly_once(self, block):
        _pool, fs = self.make_fs()
        data = make_bytes(10 * CHUNK, seed=70)
        fs.write_file("/fs/scan", data)
        handle = fs.open("/fs/scan", "rb")
        pieces = []
        while True:
            piece = handle.read(block)  # sub-chunk reads
            if not piece:
                break
            pieces.append(piece)
        reader = handle._reader
        fs.close(handle)
        assert b"".join(pieces) == data
        # Regression: read-ahead used to over-fetch and discard, re-fetching
        # the same chunk for every sub-chunk read of a sequential scan.
        assert reader.chunks_fetched == 10

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

    def test_seek_back_within_a_held_span_does_not_refetch(self, data_rpcs):
        _pool, fs = self.make_fs()
        data = make_bytes(4 * CHUNK, seed=73)
        fs.write_file("/fs/seek", data)
        handle = fs.open("/fs/seek", "rb")
        del data_rpcs[:]
        assert handle.read(2 * CHUNK) == data[:2 * CHUNK]
        assert handle._reader.chunks_fetched == 2
        # Optimistic writes leave one replica: a chunk per benefactor.
        assert data_rpcs == [("get_chunks", 1)] * 2
        handle.seek(0)
        assert handle.read(CHUNK) == data[:CHUNK]
        assert handle._reader.chunks_fetched == 2
        assert data_rpcs == [("get_chunks", 1)] * 2
        fs.close(handle)

    def test_seek_past_the_read_ahead_keeps_reading_ahead(self, data_rpcs):
        # Regression: read-ahead that was never consumed used to occupy the
        # reader for good, silently disabling all later read-ahead after a
        # forward seek.
        _pool, fs = self.make_fs()
        data = make_bytes(12 * CHUNK, seed=75)
        fs.write_file("/fs/jump", data)
        handle = fs.open("/fs/jump", "rb")
        reader = handle._reader

        def fetched(count):
            """Chunks fetched once ``count`` arrived, read ahead on the pool
            with no read asking for them, and nothing more did."""
            deadline = time.monotonic() + 5
            while reader.chunks_fetched < count and time.monotonic() < deadline:
                time.sleep(0.001)
            time.sleep(0.05)
            return reader.chunks_fetched

        del data_rpcs[:]
        assert handle.read(CHUNK) == data[:CHUNK]  # reads chunk 0, reads ahead 1
        assert fetched(2) == 2
        handle.seek(6 * CHUNK)  # abandon chunk 1, read ahead but never consumed
        assert handle.read(CHUNK) == data[6 * CHUNK:7 * CHUNK]  # reads 6, reads ahead 7
        assert fetched(4) == 4
        assert handle.read(CHUNK) == data[7 * CHUNK:8 * CHUNK]  # reads ahead 8
        assert fetched(5) == 5, "read-ahead stopped after the abandoned chunk"
        assert handle.read() == data[8 * CHUNK:]
        # Chunks 0, 1 and 6..11, each fetched once: 7 and 8 included.
        assert reader.chunks_fetched == 8
        assert data_rpcs == [("get_chunks", 1)] * 8
        fs.close(handle)

    def test_a_read_waits_for_its_own_chunks_only(self):
        """A quarter-chunk read at a fresh position asks for four chunks of
        read-ahead, a frame each, fetched by one pool task and the caller; it
        returns once its own chunk is in, not the span."""
        delay = 0.05
        config = read_config(replication_level=1, read_ahead=4 * CHUNK)
        pool = StdchkPool(benefactor_count=4, config=config, store_factory=lambda capacity:
                          DelayedChunkStore(capacity, get_delay=delay))
        fs = pool.filesystem()
        data = make_bytes(8 * CHUNK, seed=79)
        fs.write_file("/fs/first", data)
        handle = fs.open("/fs/first", "rb")
        start = time.perf_counter()
        assert handle.read(CHUNK // 4) == data[:CHUNK // 4]
        assert time.perf_counter() - start < 2 * delay
        assert handle.read() == data[CHUNK // 4:]
        assert handle._reader.chunks_fetched == 8
        fs.close(handle)

    def test_a_failed_read_ahead_surfaces_only_on_the_read_that_needs_it(self):
        pool, fs = self.make_fs(replication_level=1)
        data = make_bytes(6 * CHUNK, seed=77)
        fs.write_file("/fs/lost", data)
        lost = pool.manager.dataset_by_path("/fs/lost").latest.chunk_map.placements[3]
        [holder] = lost.benefactors
        store = pool.benefactors[holder].store
        chunk = store.get(lost.ref.chunk_id)
        assert store.delete(lost.ref.chunk_id)
        handle = fs.open("/fs/lost", "rb")
        assert handle.read(2 * CHUNK) == data[:2 * CHUNK]
        # Reads ahead chunks 2..3 on the pool, then reads chunk 2 from them.
        assert handle.read(CHUNK) == data[2 * CHUNK:3 * CHUNK]
        with pytest.raises(ReadFailedError, match="no replica of chunk"):
            handle.read(CHUNK)
        assert handle.tell() == 3 * CHUNK
        # The failed span is let go: once the chunk is back, asking again
        # fetches it afresh.
        store.put(chunk)
        assert handle.read() == data[3 * CHUNK:]
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


class TestEveryEntryPointRequiresATilingMap:
    """Spans start as zeros: a map with a hole is an error before any fetch."""

    @pytest.mark.parametrize("entry", ["read_all", "read_range", "read_iter"])
    def test_a_hole_fails_before_any_fetch(self, entry):
        pool = StdchkPool(benefactor_count=4, config=read_config())
        client = pool.client("holes", read_parallelism=2)
        data = make_bytes(4 * CHUNK, seed=78)
        client.write_file("/h/f", data)
        original = client.open_read("/h/f")
        placements = original.chunk_map.placements
        del placements[1]
        reader = StripedReader(transport=pool.transport, chunk_map=ChunkMap(placements),
                               addresses=original.addresses, size=len(data),
                               read_parallelism=2, executor=client._worker_pool())
        gets_before = sum(b.stats["gets"] for b in pool.benefactors.values())
        reads = {"read_all": reader.read_all,
                 "read_range": lambda: reader.read_range(0, 4 * CHUNK),
                 "read_iter": lambda: list(reader.read_iter())}
        with pytest.raises(ReadFailedError, match="does not tile"):
            reads[entry]()
        assert reader.chunks_fetched == 0
        assert sum(b.stats["gets"] for b in pool.benefactors.values()) == gets_before


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
            # Three streaming spans of ``read_parallelism`` transfer units:
            # at the kill the second is in flight and the third not planned.
            data = make_bytes(3 * 4 * TRANSFER_UNIT, seed=81)
            writer.write_file("/tcp/mid", data)
            client = deployment.client("r", read_parallelism=4)
            reader = client.open_read("/tcp/mid")
            stream = reader.read_iter()
            pieces = [next(stream)]  # the next span is now in flight
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


class TestStreamingHoldsTwoSpans:
    def test_a_stream_reads_one_span_ahead(self):
        """Twelve 256 KiB chunks at ``read_parallelism=1`` are three spans of
        a transfer unit: the first ``next`` reads the first span and starts
        the second on the pool, and nothing starts the third."""
        pool = StdchkPool(benefactor_count=4, config=read_config(
            chunk_size=TRANSFER_UNIT // 4, incremental_file_size=TRANSFER_UNIT,
            replication_level=1))
        client = pool.client("ahead")
        data = make_bytes(3 * TRANSFER_UNIT, seed=79)
        client.write_file("/ahead/image", data)
        reader = client.open_read("/ahead/image")
        stream = reader.read_iter()
        assert next(stream) == data[:TRANSFER_UNIT // 4]
        deadline = time.monotonic() + 5
        while reader.chunks_fetched < 8 and time.monotonic() < deadline:
            time.sleep(0.001)
        time.sleep(0.05)
        assert reader.chunks_fetched == 8
        assert b"".join([data[:TRANSFER_UNIT // 4], *stream]) == data
        assert reader.chunks_fetched == 12

    @pytest.mark.parametrize("kind", ["tcp", "inprocess"])
    def test_a_stream_peaks_at_two_spans_of_transfer_units(self, kind):
        """A span is at most ``read_parallelism`` transfer units, and a stream
        holds the one it yields from and the one read ahead.  Counted with
        ``tracemalloc`` over a consumer that keeps no piece across ``next``."""
        deployment_class = TcpDeployment if kind == "tcp" else StdchkPool
        with deployment_class(benefactor_count=4,
                              config=StdchkConfig(replication_level=1)) as deployment:
            data = make_bytes(32 * TRANSFER_UNIT, seed=5)
            digest = hashlib.sha1(data).hexdigest()
            deployment.client("w").write_file("/big/image", data)
            del data
            for parallelism in (1, 2, 4):
                client = deployment.client(f"r{parallelism}", read_parallelism=parallelism)
                for piece in client.read_file_iter("/big/image"):  # sockets, threads
                    del piece
                stream = client.open_read("/big/image").read_iter()
                received = hashlib.sha1()
                gc.collect()
                tracemalloc.start()
                try:
                    before, _ = tracemalloc.get_traced_memory()
                    tracemalloc.reset_peak()
                    for piece in stream:
                        received.update(piece)
                        del piece
                    _, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
                assert received.hexdigest() == digest
                bound = 2 * parallelism * TRANSFER_UNIT + 64 * 1024
                assert peak - before <= bound, (
                    f"read_parallelism={parallelism}: peaked {(peak - before) / (1 << 20):.2f} "
                    f"MiB above start")
