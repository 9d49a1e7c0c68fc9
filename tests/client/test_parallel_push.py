"""Concurrent write-path tests: the pipelined parallel chunk pusher.

Covers the tentpole guarantees: chunk-map integrity (no lost, duplicated or
scrambled chunks) under ``push_parallelism > 1``, multi-threaded sessions
sharing one pool over both transports, failure handling while pushes are in
flight, and the batched ``put_chunks_ack`` manager traffic.
"""

from __future__ import annotations

import threading

import pytest

from repro import StdchkConfig, StdchkPool, TcpDeployment
from repro.benefactor.chunk_store import DelayedChunkStore
from repro.exceptions import ConfigurationError, EndpointUnreachableError
from repro.util.config import WriteProtocol, WriteSemantics
from tests.conftest import make_bytes

CHUNK = 16 * 1024


def parallel_config(**overrides) -> StdchkConfig:
    defaults = dict(
        chunk_size=CHUNK,
        stripe_width=4,
        replication_level=2,
        incremental_file_size=4 * CHUNK,
        push_parallelism=4,
    )
    defaults.update(overrides)
    return StdchkConfig(**defaults)


def assert_intact(pool_or_deployment, client, path: str, data: bytes) -> None:
    """The committed chunk-map tiles the file exactly and every replica is real."""
    assert client.read_file(path) == data
    manager = pool_or_deployment.manager
    chunk_map = manager.dataset_by_path(path).latest.chunk_map
    assert chunk_map.is_contiguous()
    assert chunk_map.total_size == len(data)
    benefactors = {
        b.benefactor_id: b
        for b in (
            pool_or_deployment.benefactors.values()
            if isinstance(pool_or_deployment, StdchkPool)
            else pool_or_deployment.benefactors
        )
    }
    for placement in chunk_map:
        assert placement.benefactors, "chunk committed with no holders"
        for holder in placement.benefactors:
            assert benefactors[holder].store.contains(placement.ref.chunk_id)


class TestParallelPushInProcess:
    def test_parallel_write_preserves_data_and_chunk_map(self):
        pool = StdchkPool(benefactor_count=6, config=parallel_config())
        client = pool.client("parallel")
        data = make_bytes(40 * CHUNK + 123, seed=31)
        client.write_file("/par/ckpt.N0.T1", data)
        assert_intact(pool, client, "/par/ckpt.N0.T1", data)

    @pytest.mark.parametrize("protocol", list(WriteProtocol))
    def test_every_protocol_under_parallelism(self, protocol, tmp_path):
        pool = StdchkPool(
            benefactor_count=5, config=parallel_config(write_protocol=protocol)
        )
        client = pool.client("proto", spool_dir=str(tmp_path))
        data = make_bytes(17 * CHUNK + 7, seed=protocol.value.__hash__() % 100)
        client.write_file(f"/p/{protocol.value}", data, block_size=3 * CHUNK)
        assert_intact(pool, client, f"/p/{protocol.value}", data)

    def test_pessimistic_semantics_reach_replication_level_in_parallel(self):
        pool = StdchkPool(
            benefactor_count=6,
            config=parallel_config(write_semantics=WriteSemantics.PESSIMISTIC),
        )
        client = pool.client("pess")
        data = make_bytes(24 * CHUNK, seed=5)
        client.write_file("/pess/f", data)
        chunk_map = pool.manager.dataset_by_path("/pess/f").latest.chunk_map
        assert chunk_map.min_replication() >= 2

    def test_many_threads_share_one_pool(self):
        pool = StdchkPool(benefactor_count=8, config=parallel_config())
        payloads = {}
        errors = []

        def writer(rank: int) -> None:
            try:
                client = pool.client(f"writer-{rank}")
                data = make_bytes(12 * CHUNK + rank, seed=rank)
                payloads[rank] = data
                client.write_checkpoint_path = f"/jobs/job-{rank}.N{rank}.T1"
                client.write_file(client.write_checkpoint_path, data)
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(rank,)) for rank in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        reader = pool.client("reader")
        for rank, data in payloads.items():
            assert_intact(pool, reader, f"/jobs/job-{rank}.N{rank}.T1", data)

    def test_benefactor_failure_mid_write_is_survived(self):
        # Pessimistic semantics: every chunk has two replicas before write()
        # returns, so losing one benefactor mid-session loses no data.
        pool = StdchkPool(
            benefactor_count=6,
            config=parallel_config(write_semantics=WriteSemantics.PESSIMISTIC),
        )
        client = pool.client("fail")
        session = client.open_write("/f/ckpt", expected_size=30 * CHUNK)
        data = make_bytes(30 * CHUNK, seed=9)
        session.write(data[: 10 * CHUNK])
        victim = next(iter(pool.benefactors))
        pool.fail_benefactor(victim)
        session.write(data[10 * CHUNK:])
        session.close()
        assert client.read_file("/f/ckpt") == data

    def test_write_failure_surfaces_when_pool_dies(self):
        pool = StdchkPool(benefactor_count=3, config=parallel_config())
        client = pool.client("doomed")
        session = client.open_write("/d/ckpt", expected_size=20 * CHUNK)
        for benefactor_id in list(pool.benefactors):
            pool.fail_benefactor(benefactor_id)
        from repro.exceptions import NoBenefactorsAvailableError, WriteFailedError

        # Depending on which step observes the dead pool first, the failure
        # surfaces as an exhausted write or a failed stripe re-allocation.
        with pytest.raises((WriteFailedError, NoBenefactorsAvailableError)):
            session.write(make_bytes(20 * CHUNK, seed=2))
            session.close()
        session.abort()

    def test_incremental_dedup_still_works_in_parallel(self):
        from repro.util.config import SimilarityHeuristic

        pool = StdchkPool(
            benefactor_count=5,
            config=parallel_config(
                similarity_heuristic=SimilarityHeuristic.FSCH, replication_level=1
            ),
        )
        client = pool.client("inc")
        data = make_bytes(32 * CHUNK, seed=77)
        client.write_file("/inc/a.N0.T1", data)
        second = client.write_file("/inc/a.N0.T1", data)
        assert second.stats.bytes_pushed == 0
        assert second.stats.bytes_deduplicated == len(data)
        assert client.read_file("/inc/a.N0.T1") == data


class TestAckBatching:
    def test_batched_acks_record_placements_with_few_transactions(self):
        pool = StdchkPool(
            benefactor_count=4, config=parallel_config(ack_batch_size=8)
        )
        client = pool.client("acker")
        data = make_bytes(32 * CHUNK, seed=3)
        calls = pool.transport.record()
        before = pool.manager.transactions
        session = client.write_file("/ack/f", data)
        acks = [call for call in calls if call.method == "put_chunks_ack"]
        assert {call.address for call in acks} == {pool.manager_address}
        assert len(acks) == 32 // 8
        assert session.stats.ack_batches == 32 // 8
        # Far fewer manager transactions than one ack per chunk.
        assert pool.manager.transactions - before <= 4 + 32 // 8
        assert len({placement["chunk_id"] for call in acks
                    for placement in call.payload["placements"]}) == 32

    def test_acks_disabled_by_default_keeps_transaction_profile(self):
        pool = StdchkPool(benefactor_count=4, config=parallel_config())
        client = pool.client("quiet")
        calls = pool.transport.record()
        client.write_file("/quiet/f", make_bytes(16 * CHUNK, seed=4))
        assert calls and not [call for call in calls
                              if call.method == "put_chunks_ack"]

    def test_acked_chunks_protected_from_gc(self):
        pool = StdchkPool(
            benefactor_count=4, config=parallel_config(ack_batch_size=1)
        )
        client = pool.client("gc")
        session = client.open_write("/gcp/f", expected_size=4 * CHUNK)
        session.write(make_bytes(4 * CHUNK, seed=6))
        # Frames stay open across write(); send them and let them land.
        session.pusher.send_frames()
        session.pusher._drain()
        # Two GC exchanges before the commit: acked chunks must survive the
        # seen-twice rule because their session is still active.
        for _ in range(2):
            for benefactor in pool.benefactors.values():
                report = pool.manager.gc_report(
                    benefactor_id=benefactor.benefactor_id,
                    chunk_ids=benefactor.store.chunk_ids(),
                )
                assert report["collectible"] == []
        session.close()
        assert client.read_file("/gcp/f") is not None


class TestParallelPushOverTcp:
    def test_parallel_write_round_trip(self):
        with TcpDeployment(benefactor_count=4, config=parallel_config()) as deployment:
            client = deployment.client("tcp-par", push_parallelism=4)
            data = make_bytes(24 * CHUNK + 11, seed=13)
            client.write_file("/tcp/ckpt.N0.T1", data)
            assert_intact(deployment, client, "/tcp/ckpt.N0.T1", data)

    def test_threads_share_one_tcp_transport(self):
        config = parallel_config(replication_level=1)
        with TcpDeployment(benefactor_count=4, config=config) as deployment:
            payloads = {}
            errors = []

            def writer(rank: int) -> None:
                try:
                    client = deployment.client(f"tcp-{rank}")
                    data = make_bytes(8 * CHUNK + rank, seed=40 + rank)
                    payloads[rank] = data
                    client.write_file(f"/t/f{rank}", data)
                except Exception as exc:  # pragma: no cover - failure detail
                    errors.append(exc)

            threads = [threading.Thread(target=writer, args=(r,)) for r in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert errors == []
            reader = deployment.client("tcp-reader")
            for rank, data in payloads.items():
                assert reader.read_file(f"/t/f{rank}") == data

    def test_parallelism_beats_serial_on_slow_stores(self):
        """With per-put device latency, 4-way pipelining is measurably faster."""
        import time

        def slow_store(capacity):
            return DelayedChunkStore(capacity, put_delay=0.004)

        config = parallel_config(replication_level=1)
        data = make_bytes(32 * CHUNK, seed=21)
        timings = {}
        for parallelism in (1, 4):
            with TcpDeployment(
                benefactor_count=4, config=config, store_factory=slow_store
            ) as deployment:
                client = deployment.client("bench", push_parallelism=parallelism)
                start = time.perf_counter()
                client.write_file(f"/speed/f{parallelism}", data)
                timings[parallelism] = time.perf_counter() - start
                assert client.read_file(f"/speed/f{parallelism}") == data
        assert timings[4] < timings[1]


class TestTransportErrorsCarryEndpoint:
    def test_inprocess_attaches_endpoint(self):
        from repro.transport.inprocess import InProcessTransport

        transport = InProcessTransport()
        with pytest.raises(EndpointUnreachableError) as excinfo:
            transport.call("node://missing", "echo")
        assert excinfo.value.endpoint == "node://missing"

    def test_tcp_attaches_endpoint_and_survives_pickle(self):
        import pickle

        from repro.transport.tcp import TcpTransport

        transport = TcpTransport(connect_timeout=0.2)
        with pytest.raises(EndpointUnreachableError) as excinfo:
            transport.call("127.0.0.1:1", "echo")
        assert excinfo.value.endpoint == "127.0.0.1:1"
        clone = pickle.loads(pickle.dumps(excinfo.value))
        assert clone.endpoint == "127.0.0.1:1"


class TestConfigKnobs:
    def test_new_knobs_validate(self):
        with pytest.raises(ConfigurationError):
            StdchkConfig(push_parallelism=0)
        with pytest.raises(ConfigurationError):
            StdchkConfig(ack_batch_size=-1)
        with pytest.raises(ConfigurationError):
            StdchkConfig(transport_pool_size=0)

    def test_push_window_is_twice_the_parallelism(self):
        # The pooled sockets per benefactor grow to the push window.
        with TcpDeployment(benefactor_count=2, config=parallel_config()) as deployment:
            deployment.client("wide", push_parallelism=8)
            assert deployment.transport._pool_size == 16
