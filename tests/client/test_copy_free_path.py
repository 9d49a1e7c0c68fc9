"""The copy-free write path: views where they are safe, copies where they are not.

``ChunkPusher.feed`` emits complete chunks as views of the caller's ``bytes``
and the TCP frame carries them out-of-band, so a written byte is not copied
in user space on its way to a benefactor.  These tests pin down the three
properties that make this safe and worthwhile: nothing aliases a buffer the caller
can still change, stores own what they keep, and the copies really are gone
(counted, not timed).
"""

from __future__ import annotations

import gc
import tracemalloc
from itertools import count
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro import StdchkConfig, StdchkPool, TcpDeployment
from repro.benefactor.chunk_store import DelayedChunkStore, DiskChunkStore
from repro.client import session as session_module
from repro.client.session import ChunkPusher
from repro.transport.base import Endpoint, rpc
from repro.transport.inprocess import InProcessTransport
from repro.util.config import SimilarityHeuristic, WriteProtocol, WriteSemantics
from tests.conftest import make_bytes

CHUNK = 32 * 1024
MIB = 1 << 20


class RecordingBenefactor(Endpoint):
    """Keeps exactly what the transport delivered, to inspect types and owners."""

    def __init__(self):
        self.received = []
        #: Chunks per data RPC, in arrival order.
        self.frames = []

    @rpc
    def put_chunks(self, chunk_ids, data):
        assert len(chunk_ids) == len(data)
        self.received.extend(data)
        self.frames.append(len(data))
        return {"stored": len(data), "free_space": 1 << 30}


def recording_pusher(chunk_size: int = CHUNK, benefactors: int = 1, replicas: int = 1):
    """A pusher over ``benefactors`` recording endpoints; returns the first
    endpoint alone when there is only one, else the list of them."""
    transport = InProcessTransport()
    endpoints = [RecordingBenefactor() for _ in range(benefactors)]
    for number, endpoint in enumerate(endpoints):
        transport.register(f"b{number}", endpoint)
    pusher = ChunkPusher(
        transport=transport,
        manager_address="manager",
        session_info={
            "session_id": "s1", "dataset_id": "ds-1", "version": 1,
            "chunk_size": chunk_size, "replication_level": replicas,
            "stripe": [{"benefactor_id": f"b{n}", "address": f"b{n}"}
                       for n in range(benefactors)],
        },
        config=StdchkConfig(chunk_size=chunk_size, replication_level=replicas,
                            write_semantics=WriteSemantics.PESSIMISTIC),
    )
    return pusher, (endpoints[0] if benefactors == 1 else endpoints)


class TestViewsOfImmutableInput:
    def test_complete_chunks_are_views_of_the_callers_bytes(self):
        pusher, benefactor = recording_pusher()
        data = make_bytes(4 * CHUNK + 10, seed=1)
        pusher.feed(data)
        chunk_map = pusher.finish()
        *whole, tail = benefactor.received
        assert len(whole) == 4
        for index, payload in enumerate(whole):
            assert type(payload) is memoryview and payload.readonly
            assert payload.obj is data, "a complete chunk must not be copied"
            assert payload == data[index * CHUNK:(index + 1) * CHUNK]
        assert type(tail) is bytes and tail == data[4 * CHUNK:]
        assert chunk_map.total_size == len(data) and chunk_map.is_contiguous()
        # The four views and the flushed tail travelled as one frame.
        assert benefactor.frames == [5]

    def test_partial_head_tops_up_the_pending_chunk_then_views_resume(self):
        pusher, benefactor = recording_pusher()
        data = make_bytes(3 * CHUNK - 50, seed=2)
        pusher.feed(data[:100])
        rest = data[100:]
        pusher.feed(rest)
        assert pusher.bytes_buffered == CHUNK - 50
        pusher.finish()
        first, second, third = benefactor.received
        assert type(first) is bytes and type(third) is bytes
        assert type(second) is memoryview and second.obj is rest
        assert b"".join(benefactor.received) == data
        # Frames outlive the call: the two calls' three chunks are one frame.
        assert benefactor.frames == [3]

    @pytest.mark.parametrize("mutable", [
        bytearray, lambda data: memoryview(bytearray(data)),
    ], ids=["bytearray", "writable-view"])
    def test_mutable_input_is_copied_never_viewed(self, mutable):
        pusher, benefactor = recording_pusher()
        data = make_bytes(2 * CHUNK, seed=3)
        buffer = mutable(data)
        pusher.feed(buffer)
        owner = buffer.obj if isinstance(buffer, memoryview) else buffer
        owner[:] = bytes(len(owner))
        pusher.finish()
        assert b"".join(benefactor.received) == data
        assert all(getattr(payload, "obj", None) is not owner for payload in benefactor.received)

    @settings(max_examples=60, deadline=None)
    @given(cuts=st.lists(st.integers(0, 700), max_size=12),
           chunk_size=st.sampled_from([64, 200]))
    def test_any_split_of_the_stream_yields_the_same_chunks(self, cuts, chunk_size):
        """Chunk sizes on both sides of the transfer unit (128 here): however
        the stream is cut into ``feed`` calls, the chunks, their holders, the
        statistics and the frames are those of feeding it in one call."""
        data = make_bytes(700, seed=4)
        edges = [0, *sorted(cuts), len(data)]
        with mock.patch.object(session_module, "TRANSFER_UNIT", 128):
            pusher, benefactor = recording_pusher(chunk_size)
            for start, end in zip(edges, edges[1:]):
                pusher.feed(data[start:end])
            pusher.finish()
            assert b"".join(benefactor.received) == data
            assert [len(p) for p in benefactor.received[:-1]] == (
                [chunk_size] * (len(data) // chunk_size))
            assert pusher.stats.bytes_written == pusher.stats.bytes_pushed == len(data)
            # A frame holds a transfer unit at most, or one larger chunk.
            assert all(size * chunk_size <= 128 or size == 1 for size in benefactor.frames)

            # Four benefactors, two replicas: against the one-call result.
            striped, endpoints = recording_pusher(chunk_size, benefactors=4, replicas=2)
            for start, end in zip(edges, edges[1:]):
                striped.feed(data[start:end])
            reference, reference_endpoints = recording_pusher(
                chunk_size, benefactors=4, replicas=2)
            reference.feed(data)
            assert striped.finish().to_dict() == reference.finish().to_dict()
            assert striped.stats == reference.stats
            for endpoint, expected in zip(endpoints, reference_endpoints):
                assert list(map(bytes, endpoint.received)) == list(map(bytes, expected.received))
                assert endpoint.frames == expected.frames


def delayed_store(capacity):
    return DelayedChunkStore(capacity, put_delay=0.01)


def in_process(config):
    return StdchkPool(benefactor_count=4, config=config, store_factory=delayed_store)


def over_tcp(config):
    return TcpDeployment(benefactor_count=4, config=config, store_factory=delayed_store)


class TestAliasingAndOwnership:
    @pytest.mark.parametrize("heuristic", [SimilarityHeuristic.NONE, SimilarityHeuristic.FSCH],
                             ids=["opaque", "fsch"])
    @pytest.mark.parametrize("deploy", [in_process, over_tcp])
    def test_caller_may_reuse_its_buffer_while_pushes_are_in_flight(self, deploy, heuristic):
        config = StdchkConfig(chunk_size=CHUNK, stripe_width=4, replication_level=1,
                              push_parallelism=2, similarity_heuristic=heuristic)
        with deploy(config) as deployment:
            client = deployment.client("writer")
            buffer = bytearray(make_bytes(8 * CHUNK + 100, seed=5))
            snapshot = bytes(buffer)
            session = client.open_write("/alias/image")
            session.write(buffer)
            # write() has returned; at 10 ms a put most chunks are still queued.
            buffer[:] = b"\xff" * len(buffer)
            buffer.extend(b"resizing fails while a view is exported")
            session.close()
            assert client.read_file("/alias/image") == snapshot

    def test_memory_store_owns_its_chunks(self):
        """In-process delivery hands the store a view; it must keep ``bytes``."""
        pool = StdchkPool(benefactor_count=2,
                          config=StdchkConfig(chunk_size=CHUNK, stripe_width=2,
                                              replication_level=1))
        data = make_bytes(4 * CHUNK, seed=6)
        pool.client("owner").write_file("/own/image", data)
        stored = [
            benefactor.store.get(chunk_id).data
            for benefactor in pool.benefactors.values()
            for chunk_id in benefactor.store.chunk_ids()
        ]
        assert len(stored) == 4
        assert all(type(payload) is bytes for payload in stored)
        assert sorted(stored) == sorted(data[i:i + CHUNK] for i in range(0, len(data), CHUNK))


class TestCopyGuard:
    def test_sixteen_mib_write_over_tcp_allocates_a_fraction_of_its_size(self, tmp_path):
        """Client and servers share the process, so one trace sees every copy.

        A count of traced allocations, not a timing, so host speed cannot
        flake it: copying the image once more anywhere on the path costs at
        least its 16 MiB, the copy-free path peaks at the few receive buffers
        in flight (about 3 MiB).
        """
        stores = count()
        config = StdchkConfig(replication_level=1, push_parallelism=2)
        with TcpDeployment(
            benefactor_count=4, config=config,
            store_factory=lambda capacity: DiskChunkStore(
                str(tmp_path / f"benefactor-{next(stores)}"), capacity),
        ) as deployment:
            client = deployment.client("guard")
            data = make_bytes(16 * MIB, seed=7)
            client.write_file("/guard/warm", data[:2 * MIB])  # sockets, threads, imports
            gc.collect()
            tracemalloc.start()
            try:
                before, _ = tracemalloc.get_traced_memory()
                tracemalloc.reset_peak()
                client.write_file("/guard/image", data)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak - before < 8 * MIB, f"peaked {(peak - before) / MIB:.1f} MiB above start"
            assert client.read_file("/guard/image") == data

    def test_sixteen_mib_written_in_4_kib_blocks_holds_the_budget_not_the_file(self, tmp_path):
        """Frames outlive ``write()``, and the writer's frames hold at most
        ``2 * push_parallelism * TRANSFER_UNIT`` (4 MiB here): 16 MiB through
        the FS facade in 4 KiB blocks, each 64 KiB chunk a copy from the
        pending buffer, peaks at the budget plus the receive buffers."""
        from repro.fs.filesystem import StdchkFilesystem
        stores = count()
        config = StdchkConfig(chunk_size=64 * 1024, replication_level=1, push_parallelism=2)
        with TcpDeployment(
            benefactor_count=4, config=config,
            store_factory=lambda capacity: DiskChunkStore(
                str(tmp_path / f"benefactor-{next(stores)}"), capacity),
        ) as deployment:
            client = deployment.client("guard")
            fs = StdchkFilesystem(client)
            data = make_bytes(16 * MIB, seed=8)
            fs.write_file("/guard/warm", data[:2 * MIB], block_size=4096)
            gc.collect()
            tracemalloc.start()
            try:
                before, _ = tracemalloc.get_traced_memory()
                tracemalloc.reset_peak()
                fs.write_file("/guard/image", data, block_size=4096)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak - before < 8 * MIB, f"peaked {(peak - before) / MIB:.1f} MiB above start"
            assert client.read_file("/guard/image") == data

    @pytest.mark.parametrize("protocol", list(WriteProtocol), ids=lambda p: p.value)
    def test_under_fsch_4_kib_blocks_hold_the_budget_and_leave_no_image(self, tmp_path,
                                                                         protocol):
        """An FsCH client keeps its last image for the next write to compare
        against, but only views of the application's ``bytes``: chunks the
        session assembles from 4 KiB writes, or reads back from a CLW/IW
        spool, are its own copies and are not kept.  So two 16 MiB writes
        through the FS facade peak where they do with FsCH off (the budget,
        plus for CLW/IW the spool blocks read back: 9.3 and 8.3 MiB with
        FsCH off), far below the image, and leave nothing of its size
        behind."""
        from repro.fs.filesystem import StdchkFilesystem
        stores = count()
        config = StdchkConfig(chunk_size=64 * 1024, replication_level=1, push_parallelism=2,
                              similarity_heuristic=SimilarityHeuristic.FSCH,
                              write_protocol=protocol, incremental_file_size=4 * MIB)
        with TcpDeployment(
            benefactor_count=4, config=config,
            store_factory=lambda capacity: DiskChunkStore(
                str(tmp_path / f"benefactor-{next(stores)}"), capacity),
        ) as deployment:
            client = deployment.client("guard", spool_dir=str(tmp_path))
            fs = StdchkFilesystem(client)
            data = make_bytes(16 * MIB, seed=8)
            fs.write_file("/guard/warm", data[:2 * MIB], block_size=4096)
            gc.collect()
            tracemalloc.start()
            try:
                before, _ = tracemalloc.get_traced_memory()
                tracemalloc.reset_peak()
                for _ in range(2):
                    fs.write_file("/guard/image", data, block_size=4096)
                gc.collect()
                kept, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            bound = 8 * MIB if protocol is WriteProtocol.SLIDING_WINDOW else 12 * MIB
            assert peak - before < bound, f"peaked {(peak - before) / MIB:.1f} MiB above start"
            assert kept - before < 2 * MIB, f"kept {(kept - before) / MIB:.1f} MiB"
            assert client.read_file("/guard/image") == data
