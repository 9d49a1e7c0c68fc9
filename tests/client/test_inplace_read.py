"""In-place restart reads: ``read_all`` fills one image, chunk by chunk, where it lies.

``StripedReader.read_all`` allocates the image once and hands every
``get_chunks`` a window of it per chunk (``Transport.call(..., into=...)``);
over TCP the kernel writes the payload at its final address.  These tests pin down what
must survive that: the result is a real ``bytes`` equal to what was written,
no byte comes from a fetch that failed verification, a chunk map with holes
is an error rather than a run of zeros, and the second copy of the image is
really gone (counted with ``tracemalloc``, not timed).
"""

from __future__ import annotations

import gc
import threading
import tracemalloc
from itertools import count

import pytest

from repro import StdchkConfig, StdchkPool, TcpDeployment
from repro.benefactor.chunk_store import DiskChunkStore, MemoryChunkStore
from repro.client.read_path import StripedReader
from repro.core.chunk_map import ChunkMap
from repro.exceptions import ReadFailedError
from repro.transport.tcp import OUT_OF_BAND_MIN
from repro.util.config import SimilarityHeuristic, WriteSemantics
from tests.conftest import make_bytes

CHUNK = 2 * OUT_OF_BAND_MIN  # whole chunks travel out-of-band, small tails in-band
MIB = 1 << 20
SIZES = [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 5 * CHUNK + CHUNK // 2]


def config(fsch: bool = False, **overrides) -> StdchkConfig:
    defaults = dict(
        chunk_size=CHUNK, stripe_width=4, replication_level=2,
        write_semantics=WriteSemantics.PESSIMISTIC,  # both replicas exist at close
        similarity_heuristic=SimilarityHeuristic.FSCH if fsch else SimilarityHeuristic.NONE,
    )
    defaults.update(overrides)
    return StdchkConfig(**defaults)


def disk_stores(tmp_path):
    numbers = count()
    return lambda capacity: DiskChunkStore(str(tmp_path / f"b{next(numbers)}"), capacity)


def tcp_with_disks(tmp_path, **overrides):
    return TcpDeployment(benefactor_count=4, config=config(**overrides),
                         store_factory=disk_stores(tmp_path))


def holder_of(deployment, benefactor_id):
    return next(b for b in deployment.benefactors if b.benefactor_id == benefactor_id)


def chunk_file(deployment, benefactor_id, chunk_id):
    return holder_of(deployment, benefactor_id).store._path(chunk_id)


def reader_trying_first(client, path, placement, victim) -> StripedReader:
    """A reader of ``path`` that asks ``victim`` for ``placement`` before anyone else.

    The scheduler tries replicas it believes failed last, at any parallelism
    and whatever is outstanding, so the chunk's other holder is marked failed.
    """
    for benefactor_id in placement.benefactors:
        if benefactor_id != victim:
            client.replica_scheduler.mark_failed(benefactor_id)
    return client.open_read(path)


@pytest.fixture(scope="module", params=["tcp", "inprocess"])
def deployment(request):
    if request.param == "tcp":
        with TcpDeployment(benefactor_count=4, config=config()) as tcp:
            yield tcp
    else:
        yield StdchkPool(benefactor_count=4, config=config())


class TestRoundTrip:
    @pytest.mark.parametrize("fsch", [False, True], ids=["plain", "fsch"])
    @pytest.mark.parametrize("parallelism", [1, 2, 4])
    def test_read_file_returns_the_written_bytes(self, deployment, parallelism, fsch):
        client = deployment.client(f"rt-{parallelism}-{fsch}", config=config(fsch=fsch),
                                   push_parallelism=2, read_parallelism=parallelism)
        for size in SIZES:
            path = f"/rt/p{parallelism}-f{int(fsch)}-s{size}"
            data = make_bytes(size, seed=size % 251)
            client.write_file(path, data)
            image = client.read_file(path)
            assert type(image) is bytes
            assert image == data, f"size {size}"

    def test_counters_keep_their_meaning(self, deployment):
        client = deployment.client("counted", read_parallelism=2)
        data = make_bytes(SIZES[-1], seed=5)
        client.write_file("/rt/counted", data)
        chunks = client.obs.counter("client_chunks_fetched_total").value
        read_bytes = client.obs.counter("client_read_bytes_total").value
        reader = client.open_read("/rt/counted")
        assert reader.read_all() == data
        assert (reader.chunks_fetched, reader.bytes_fetched) == (6, len(data))
        assert reader.replica_fallbacks == 0
        assert client.obs.counter("client_chunks_fetched_total").value == chunks + 6
        assert client.obs.counter("client_read_bytes_total").value == read_bytes + len(data)


class TestOneImageNoSecondCopy:
    def test_a_16_mib_read_peaks_at_one_image_plus_the_window(self, tmp_path):
        """Parent: two images (chunks kept for ``join``, then its result) + window.

        A count, so host speed cannot flake it; it fails the moment anything
        keeps a view alive and ``getvalue`` falls back to copying.
        """
        with TcpDeployment(benefactor_count=4, config=StdchkConfig(replication_level=1),
                           store_factory=disk_stores(tmp_path)) as deployment:
            client = deployment.client("guard", read_parallelism=2)
            data = make_bytes(16 * MIB, seed=7)
            client.write_file("/guard/image", data)
            client.read_file("/guard/image")  # sockets, threads, imports
            gc.collect()
            tracemalloc.start()
            try:
                before, _ = tracemalloc.get_traced_memory()
                tracemalloc.reset_peak()
                image = client.read_file("/guard/image")
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak - before < 16 * MIB + 6 * MIB, (
                f"peaked {(peak - before) / MIB:.1f} MiB above start")
            assert type(image) is bytes and image == data


class TestSingleFetchStaysOnTheCallingThread:
    @pytest.mark.parametrize("parallelism,chunks", [(4, 1), (1, 6)])
    def test_no_submit_and_no_thread(self, monkeypatch, parallelism, chunks):
        """One frame at any parallelism, and every frame of a serial read."""
        pool = StdchkPool(benefactor_count=4, config=config())
        client = pool.client("solo", read_parallelism=parallelism)
        data = make_bytes(chunks * CHUNK - 3, seed=11)
        client.write_file("/solo/f", data)
        threads = threading.active_count()
        fetches = []
        original = pool.transport.call

        def spying(address, method, /, **payload):
            if method == "get_chunks":
                fetches.append((len(payload["chunk_ids"]), threading.current_thread()))
            return original(address, method, **payload)

        def no_submit(*_args, **_kwargs):
            raise AssertionError("a single-frame or serial read went to the pool")

        monkeypatch.setattr(pool.transport, "call", spying)
        monkeypatch.setattr(client._worker_pool(), "submit", no_submit)
        reader = client.open_read("/solo/f")
        assert reader.read_all() == data
        assert reader.chunks_fetched == chunks
        # One chunk is a frame of one; six chunks on four benefactors are
        # at most four frames, at least one of them of several chunks.
        sizes = [size for size, _thread in fetches]
        assert sum(sizes) == chunks
        assert sizes == [1] if chunks == 1 else (len(sizes) <= 4 and max(sizes) > 1)
        assert {thread for _size, thread in fetches} == {threading.current_thread()}
        assert threading.active_count() == threads


class TestEveryByteIsVerified:
    def test_corrupt_replica_is_overwritten_by_the_fallback(self, tmp_path):
        with tcp_with_disks(tmp_path, fsch=True) as deployment:
            client = deployment.client("c", read_parallelism=2)
            data = make_bytes(6 * CHUNK, seed=21)
            client.write_file("/c/f", data)
            placement = client.open_read("/c/f").chunk_map.placements[3]
            assert len(placement.benefactors) == 2
            victim = placement.benefactors[0]
            path = chunk_file(deployment, victim, placement.ref.chunk_id)
            with open(path, "r+b") as handle:  # same length: received in place
                handle.seek(100)
                flipped = bytes([handle.read(1)[0] ^ 0xFF])
                handle.seek(100)
                handle.write(flipped)
            reader = reader_trying_first(client, "/c/f", placement, victim)
            image = reader.read_all()
            assert type(image) is bytes and image == data
            assert reader.replica_fallbacks == 1
            assert reader.corruptions_reported == 1
            assert deployment.manager.corrupt_replicas() == {placement.ref.chunk_id: [victim]}
            assert client.replica_scheduler.failed_benefactors == {victim}

    @pytest.mark.parametrize("wrong", [CHUNK - 7, CHUNK + 7, 5, 0])
    def test_wrong_length_replica_never_reaches_the_image(self, tmp_path, wrong):
        """Position-addressed chunks: the length is the only check there is."""
        with tcp_with_disks(tmp_path) as deployment:
            client = deployment.client("l", read_parallelism=2)
            data = make_bytes(4 * CHUNK, seed=22)
            client.write_file("/l/f", data)
            placement = client.open_read("/l/f").chunk_map.placements[1]
            victim = placement.benefactors[0]
            with open(chunk_file(deployment, victim, placement.ref.chunk_id), "wb") as handle:
                handle.write(b"\xAA" * wrong)
            reader = reader_trying_first(client, "/l/f", placement, victim)
            assert reader.read_all() == data
            assert reader.replica_fallbacks == 1 and reader.chunks_fetched == 4

    def test_benefactor_killed_mid_read(self):
        """The fifth ``get`` crashes its benefactor before the reply leaves."""
        gets = count(1)

        class Tripwire(MemoryChunkStore):
            def get(self, chunk_id):
                if next(gets) == 5:
                    victim = next(b for b in deployment.benefactors if b.store is self)
                    killed.append(victim.benefactor_id)
                    deployment.kill_benefactor(victim.benefactor_id)
                return super().get(chunk_id)

        killed = []
        with TcpDeployment(benefactor_count=4, config=config(),
                           store_factory=Tripwire) as deployment:
            client = deployment.client("k", read_parallelism=2)
            data = make_bytes(24 * CHUNK, seed=23)
            client.write_file("/k/f", data)
            reader = client.open_read("/k/f")
            assert reader.read_all() == data
            assert len(killed) == 1 and reader.replica_fallbacks >= 1
            assert killed[0] in client.replica_scheduler.failed_benefactors

    def test_every_replica_of_one_chunk_gone(self, tmp_path):
        with tcp_with_disks(tmp_path) as deployment:
            client = deployment.client("g", read_parallelism=2)
            client.write_file("/g/f", make_bytes(4 * CHUNK, seed=24))
            placement = client.open_read("/g/f").chunk_map.placements[2]
            for benefactor_id in placement.benefactors:
                assert holder_of(deployment, benefactor_id).store.delete(placement.ref.chunk_id)
            with pytest.raises(ReadFailedError, match="no replica of chunk"):
                client.read_file("/g/f")


class TestChunkMapMustTileTheImage:
    """The image starts as zeros, so a hole must be an error before any fetch."""

    def reader_with(self, pool, original: StripedReader, placements, size) -> StripedReader:
        return StripedReader(
            transport=pool.transport, chunk_map=ChunkMap(placements),
            addresses=original.addresses, size=size, read_parallelism=2,
        )

    @pytest.mark.parametrize("case", ["gap", "short-map", "long-map"])
    def test_read_fails_before_any_fetch(self, case):
        pool = StdchkPool(benefactor_count=4, config=config())
        client = pool.client("m")
        data = make_bytes(4 * CHUNK, seed=25)
        client.write_file("/m/f", data)
        original = client.open_read("/m/f")
        placements = original.chunk_map.placements
        if case == "gap":
            del placements[1]
            size = len(data)
        else:
            size = len(data) + (1 if case == "short-map" else -1)
        gets_before = sum(b.stats["gets"] for b in pool.benefactors.values())
        reader = self.reader_with(pool, original, placements, size)
        with pytest.raises(ReadFailedError, match="does not tile"):
            reader.read_all()
        assert reader.chunks_fetched == 0
        assert sum(b.stats["gets"] for b in pool.benefactors.values()) == gets_before
