"""One worker pool per ``ClientProxy``.

Every write session and reader a client opens submits to the client's single
``ThreadPoolExecutor``; none builds, joins or shuts down an executor of its
own, and the chunk ``ChunkPusher.finish`` flushes is pushed by the caller.
What must hold is asserted with counts (thread starts, ``submit`` calls,
thread ids, open descriptors), never with timings: a warm operation starts no
thread, an aborted or failed operation stays inside itself, the bytes and the
``WriteStats`` are those of the serial path, and a client that is closed or
simply dropped takes its workers with it.
"""

from __future__ import annotations

import gc
import os
import re
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

import repro.client
from repro import StdchkConfig, StdchkPool, TcpDeployment
from repro.benefactor.chunk_store import MemoryChunkStore
from repro.client.proxy import ClientProxy
from repro.client.read_path import StripedReader
from repro.core.chunk import opaque_chunk_id
from repro.exceptions import ReadFailedError
from repro.fs.filesystem import StdchkFilesystem
from repro.transport.tcp import TcpTransport
from repro.util.config import SimilarityHeuristic, WriteProtocol
from tests.conftest import make_bytes

CHUNK = 16 * 1024
SIZES = [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 5 * CHUNK + CHUNK // 2]
SMALL = 4 * 1024
LARGE = SIZES[-1]
WAIT = 10.0  # bound of every wait in this file; none is expected to run out


def config(**overrides) -> StdchkConfig:
    defaults = dict(
        chunk_size=CHUNK, stripe_width=4, replication_level=1,
        incremental_file_size=2 * CHUNK,  # IW rotates its spool inside LARGE
        read_ahead=2 * CHUNK,
    )
    defaults.update(overrides)
    return StdchkConfig(**defaults)


def open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def wait_until(condition) -> bool:
    deadline = time.monotonic() + WAIT
    while not condition():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


def start_every_worker(client: ClientProxy) -> None:
    """The executor adds a thread only when a submit finds none idle: park
    one task per worker so that all of them exist from here on."""
    pool = client._worker_pool()
    barrier = threading.Barrier(pool._max_workers + 1)
    futures = [pool.submit(barrier.wait, WAIT) for _ in range(pool._max_workers)]
    barrier.wait(WAIT)
    for future in futures:
        future.result(WAIT)


def open_every_connection(deployment: TcpDeployment, per_address: int) -> None:
    """The transport connects on demand and the server starts a thread per
    connection: make every connection a client can need now."""
    transport = deployment.transport
    addresses = [deployment.manager_address] + [
        transport.bound_address(b.address) for b in deployment.benefactors
    ]
    threads = threading.active_count()
    opened = 0
    for address in addresses:
        pool = transport._pool(address)
        opened += max(per_address - pool._total, 0)
        sockets = [pool.checkout() for _ in range(per_address)]
        for sock in sockets:
            pool.checkin(sock)
    assert wait_until(lambda: threading.active_count() == threads + opened)


@pytest.fixture
def thread_starts(monkeypatch):
    """``(starting thread, started thread)`` names of every ``Thread.start``."""
    starts = []
    original = threading.Thread.start

    def counting(thread):
        starts.append((threading.current_thread().name, thread.name))
        return original(thread)

    monkeypatch.setattr(threading.Thread, "start", counting)
    return starts


@pytest.fixture
def put_chunks_calls(monkeypatch):
    """``(thread id, [payload lengths])`` of every ``put_chunks`` frame a
    client sends over TCP."""
    calls = []
    original = TcpTransport.call

    def spying(transport, address, method, /, **payload):
        if method == "put_chunks":
            calls.append((threading.get_ident(), [len(data) for data in payload["data"]]))
        return original(transport, address, method, **payload)

    monkeypatch.setattr(TcpTransport, "call", spying)
    return calls


def spy_on_submit(monkeypatch, client: ClientProxy) -> list:
    pool = client._worker_pool()
    submitted = []
    original = pool.submit

    def spying(task, /, *args, **kwargs):
        submitted.append(task.__name__)
        return original(task, *args, **kwargs)

    monkeypatch.setattr(pool, "submit", spying)
    return submitted


class TestWarmOperationsStartNoThread:
    def test_fifty_mixed_operations(self, thread_starts):
        # Clients that earlier tests dropped without ``close()`` lose their
        # idle workers when the collector finds them: before threads are
        # counted here, not while.
        gc.collect()
        assert wait_until(lambda: not any(
            thread.name.startswith("stdchk-") for thread in threading.enumerate()))
        with TcpDeployment(benefactor_count=4, config=config()) as deployment:
            client = deployment.client("warm", push_parallelism=2, read_parallelism=2)
            fs = StdchkFilesystem(client)
            small, large = make_bytes(SMALL, seed=1), make_bytes(LARGE, seed=2)

            def mixed_operations():
                client.write_file("/warm/small", small)
                client.write_file("/warm/large", large)
                assert client.read_file("/warm/small") == small
                assert client.read_file("/warm/large") == large
                assert client.read_range("/warm/large", CHUNK + 7, 2 * CHUNK) == \
                    large[CHUNK + 7:3 * CHUNK + 7]
                handle = fs.open("/warm/large")
                assert handle.read(CHUNK) == large[:CHUNK]  # prefetches the next two
                assert handle.read(CHUNK) == large[CHUNK:2 * CHUNK]
                fs.close(handle)

            mixed_operations()
            start_every_worker(client)
            # Two workers and the caller can talk to one benefactor at once.
            open_every_connection(deployment, per_address=3)
            workers = set(client._worker_pool()._threads)
            threads, descriptors = threading.active_count(), open_fds()
            del thread_starts[:]

            for _ in range(50):
                mixed_operations()

            assert thread_starts == []
            assert set(client._worker_pool()._threads) == workers and len(workers) == 2
            assert threading.active_count() == threads
            assert open_fds() == descriptors

    def test_a_serial_client_that_never_prefetches_owns_no_thread(self, thread_starts):
        pool = StdchkPool(benefactor_count=4, config=config())
        client = pool.client("serial")
        data = make_bytes(LARGE, seed=3)
        client.write_file("/serial/f", data)
        assert client.read_file("/serial/f") == data
        assert client.read_range("/serial/f", 5, CHUNK) == data[5:CHUNK + 5]
        assert thread_starts == []

    def test_prefetch_of_a_serial_client_uses_the_one_worker(self, thread_starts):
        pool = StdchkPool(benefactor_count=4, config=config())
        client = pool.client("ahead")
        data = make_bytes(LARGE, seed=4)
        client.write_file("/ahead/f", data)
        reader = client.open_read("/ahead/f")
        reader.prefetch(0, 2 * CHUNK)
        assert reader.read_range(0, 2 * CHUNK) == data[:2 * CHUNK]
        assert client._worker_pool()._max_workers == 1
        assert [started for _, started in thread_starts] == ["stdchk-ahead_0"]


class TestTheFlushedChunkIsPushedByTheCaller:
    def test_a_file_smaller_than_a_chunk_never_reaches_the_pool(
            self, monkeypatch, put_chunks_calls):
        with TcpDeployment(benefactor_count=4, config=config()) as deployment:
            client = deployment.client("small", push_parallelism=4)
            submitted = spy_on_submit(monkeypatch, client)
            data = make_bytes(SMALL, seed=5)
            session = client.write_file("/small/f", data)
            assert submitted == []
            assert put_chunks_calls == [(threading.get_ident(), [SMALL])]
            assert session.stats.chunks_pushed == 1
            assert client.read_file("/small/f") == data
            assert submitted == []

    def test_whole_chunks_go_to_the_pool_and_the_tail_stays(
            self, monkeypatch, put_chunks_calls):
        with TcpDeployment(benefactor_count=4, config=config()) as deployment:
            client = deployment.client("tail", push_parallelism=2)
            submitted = spy_on_submit(monkeypatch, client)
            data = make_bytes(LARGE, seed=6)
            client.write_file("/tail/f", data)
            # Five whole chunks and the tail over four benefactors are four
            # frames: the first benefactor's takes chunks 0 and 4, the
            # second's chunk 1 and the tail, the others one each.  The
            # tail's frame stays on the caller.
            assert submitted == ["_send"] * 3
            caller = threading.get_ident()
            on_caller = [sizes for ident, sizes in put_chunks_calls if ident == caller]
            on_workers = [sizes for ident, sizes in put_chunks_calls if ident != caller]
            assert on_caller == [[CHUNK, CHUNK // 2]]
            assert sorted(on_workers) == [[CHUNK]] * 2 + [[CHUNK, CHUNK]]
            assert client.read_file("/tail/f") == data

    def test_without_an_executor_everything_runs_on_the_caller(
            self, monkeypatch, thread_starts):
        """No fallback pool: a session or reader built without one is serial."""
        pool = StdchkPool(benefactor_count=4,
                          config=config(push_parallelism=4, read_parallelism=4))
        client = pool.client("bare")
        monkeypatch.setattr(client, "_worker_pool", lambda: None)
        data = make_bytes(LARGE, seed=7)
        client.write_file("/bare/f", data)
        reader = client.open_read("/bare/f")
        reader.prefetch(0, LARGE)
        assert reader.read_all() == data
        assert reader.read_range(3, 2 * CHUNK) == data[3:2 * CHUNK + 3]
        assert b"".join(client.read_file_iter("/bare/f")) == data
        assert thread_starts == []


@pytest.fixture(scope="module", params=["tcp", "inprocess"])
def deployment(request):
    if request.param == "tcp":
        with TcpDeployment(benefactor_count=4, config=config()) as tcp:
            yield tcp
    else:
        with StdchkPool(benefactor_count=4, config=config()) as pool:
            yield pool


class TestBytesAndStatsAreThoseOfTheSerialPath:
    @pytest.mark.parametrize("fsch", [False, True], ids=["plain", "fsch"])
    @pytest.mark.parametrize("protocol", list(WriteProtocol), ids=lambda p: p.name)
    @pytest.mark.parametrize("parallelism", [1, 2, 4])
    def test_round_trip(self, deployment, tmp_path, parallelism, protocol, fsch):
        settings = config(
            write_protocol=protocol,
            similarity_heuristic=SimilarityHeuristic.FSCH if fsch else SimilarityHeuristic.NONE,
        )
        tag = f"{parallelism}-{protocol.name}-{int(fsch)}"
        client = deployment.client(f"pooled-{tag}", config=settings,
                                   push_parallelism=parallelism, read_parallelism=parallelism)
        serial = deployment.client(f"serial-{tag}", config=settings)
        client.spool_dir = serial.spool_dir = str(tmp_path)
        # One folder each: FsCH looks for known chunks in the whole folder.
        for size in SIZES:
            data = make_bytes(size, seed=size % 251)
            # Twice: under FsCH the second version is all known chunks.
            for version in (1, 2):
                session = client.write_file(f"/pooled-{tag}/s{size}", data)
                reference = serial.write_file(f"/serial-{tag}/s{size}", data)
                assert session.stats == reference.stats, f"size {size}, version {version}"
            image = client.read_file(f"/pooled-{tag}/s{size}")
            assert type(image) is bytes and image == data, f"size {size}"
            assert b"".join(client.read_file_iter(f"/pooled-{tag}/s{size}")) == data
        assert os.listdir(tmp_path) == []


class TestLifetime:
    def test_close_twice_joins_the_workers_and_the_client_stays_usable(self):
        with TcpDeployment(benefactor_count=4, config=config()) as deployment:
            client = deployment.client("closing", push_parallelism=2, read_parallelism=2)
            data = make_bytes(LARGE, seed=8)
            client.write_file("/closing/f", data)
            first = client._worker_pool()
            workers = list(first._threads)
            assert workers
            client.close()
            assert not any(worker.is_alive() for worker in workers)
            client.close()
            # Closing releases the threads, it does not end the client.
            assert client.read_file("/closing/f") == data
            client.write_file("/closing/g", data)
            assert client._worker_pool() is not first
            client.close()

    def test_closing_a_client_that_never_used_its_pool(self):
        pool = StdchkPool(benefactor_count=2, config=config())
        client = pool.client("idle")
        client.close()
        client.close()

    def test_dropped_clients_leave_no_thread_and_no_descriptor(self):
        with TcpDeployment(benefactor_count=4, config=config()) as deployment:
            # The most one address can ever get: 2/2 clients do not raise it.
            open_every_connection(deployment, per_address=config().transport_pool_size)
            gc.collect()
            threads, descriptors = threading.active_count(), open_fds()
            failures = []

            def use_and_drop(rank: int) -> None:
                try:
                    client = deployment.client(f"dropped-{rank}",
                                               push_parallelism=2, read_parallelism=2)
                    data = make_bytes(LARGE, seed=rank)
                    client.write_file(f"/dropped/{rank}", data)
                    assert client.read_file(f"/dropped/{rank}") == data
                except BaseException as exc:  # noqa: BLE001 - reported below
                    failures.append(exc)

            users = [threading.Thread(target=use_and_drop, args=(rank,)) for rank in range(20)]
            for user in users:
                user.start()
            for user in users:
                user.join(WAIT)
            assert not failures and not any(user.is_alive() for user in users)
            del users
            gc.collect()
            assert wait_until(lambda: threading.active_count() == threads), (
                f"{threading.active_count() - threads} threads outlive their clients")
            assert open_fds() == descriptors
            assert len(deployment._clients) == 0

    @pytest.mark.parametrize("kind", ["tcp", "inprocess"])
    def test_closing_the_deployment_closes_its_clients(self, kind):
        deployment = (TcpDeployment(benefactor_count=4, config=config()) if kind == "tcp"
                      else StdchkPool(benefactor_count=4, config=config()))
        clients = [deployment.client(f"owned-{i}", push_parallelism=2) for i in range(2)]
        workers = []
        for client in clients:
            client.write_file(f"/owned/{client.client_id}", make_bytes(LARGE, seed=9))
            workers += client._worker_pool()._threads
        assert workers
        deployment.close()
        assert not any(worker.is_alive() for worker in workers)
        assert all(client._workers is None for client in clients)


def scripted_stores():
    """Stores whose ``put``/``get`` first run a hook the test installs."""
    hooks = SimpleNamespace(put=lambda chunk: None, get=lambda chunk_id: None)

    class ScriptedStore(MemoryChunkStore):
        def put(self, chunk):
            hooks.put(chunk)
            super().put(chunk)

        def get(self, chunk_id):
            hooks.get(chunk_id)
            return super().get(chunk_id)

    return hooks, ScriptedStore


class TestAbortStaysInsideItsSession:
    def test_abort_cancels_its_own_queued_pushes_only_and_does_not_wait(self):
        hooks, store = scripted_stores()
        with TcpDeployment(benefactor_count=4, config=config(),
                           store_factory=store) as deployment:
            client = deployment.client("shared", push_parallelism=2)
            gate, parked, stored = threading.Event(), threading.Semaphore(0), []

            def park(chunk):
                stored.append(chunk.chunk_id)
                parked.release()
                assert gate.wait(WAIT)

            hooks.put = park
            doomed = client.open_write("/shared/doomed")
            survivor = client.open_write("/shared/survivor")
            kept = make_bytes(3 * CHUNK + CHUNK // 2, seed=10)
            doomed_running, survivor_queued = threading.Event(), threading.Event()
            failures = []

            def write_doomed():
                try:
                    # Both workers take one push each and park in the stores;
                    # the other two wait in the pool's queue.
                    doomed.write(make_bytes(4 * CHUNK, seed=11))
                    doomed.pusher.send_frames()
                    assert parked.acquire(timeout=WAIT) and parked.acquire(timeout=WAIT)
                    doomed_running.set()
                    assert survivor_queued.wait(WAIT)
                    running = list(doomed.pusher._futures[:2])
                    doomed.abort()
                    assert not gate.is_set(), "abort waited for its running pushes"
                    assert [future.done() for future in running] == [False, False]
                except BaseException as exc:  # noqa: BLE001 - reported below
                    failures.append(exc)
                finally:
                    gate.set()

            def write_survivor():
                try:
                    assert doomed_running.wait(WAIT)
                    survivor.write(kept[:3 * CHUNK])
                    survivor.pusher.send_frames()  # queued behind the parked pushes
                    survivor_queued.set()
                    survivor.write(kept[3 * CHUNK:])
                    survivor.close()  # its tail parks too, on this thread
                except BaseException as exc:  # noqa: BLE001 - reported below
                    failures.append(exc)
                    survivor_queued.set()

            writers = [threading.Thread(target=write_doomed),
                       threading.Thread(target=write_survivor)]
            for writer in writers:
                writer.start()
            for writer in writers:
                writer.join(2 * WAIT)
            assert not failures, failures
            assert not any(writer.is_alive() for writer in writers)

            assert doomed.aborted and survivor.committed
            assert survivor.stats.chunks_pushed == 4
            assert client.read_file("/shared/survivor") == kept
            assert client.versions("/shared/doomed") == []
            doomed_ids = [opaque_chunk_id(doomed.pusher.dataset_id, doomed.pusher.version, i)
                          for i in range(4)]
            assert [chunk_id in stored for chunk_id in doomed_ids] == [True, True, False, False]

            again = make_bytes(LARGE, seed=12)
            client.write_file("/shared/again", again)
            assert client.read_file("/shared/again") == again


class TestAWholeImageReadIsFetchedByItsCallerAndHelpers:
    @pytest.mark.parametrize("parallelism", [1, 2, 4])
    def test_read_all_submits_one_task_per_fetcher_beyond_the_caller(
            self, deployment, monkeypatch, parallelism):
        """Five whole chunks and a tail over four benefactors, one replica:
        four frames, fetched by the caller and ``parallelism - 1`` tasks."""
        client = deployment.client(f"fetchers-{parallelism}", read_parallelism=parallelism)
        data = make_bytes(LARGE, seed=14)
        client.write_file(f"/fetchers/{parallelism}", data)
        submitted = spy_on_submit(monkeypatch, client)
        assert client.read_file(f"/fetchers/{parallelism}") == data
        assert submitted == ["take_frames"] * (parallelism - 1)

    def test_many_fetchers_take_every_frame_exactly_once(self):
        """Sixteen frames, eight fetchers, a thread switch every microsecond:
        a frame taken twice or not at all shows in the counts.  A stream
        reads the same image as two spans, the second read ahead."""
        chunk = 512 * 1024
        with StdchkPool(benefactor_count=4, config=config(
                chunk_size=chunk, incremental_file_size=2 * chunk)) as pool:
            client = pool.client("stress", read_parallelism=8)
            data = make_bytes(32 * chunk, seed=15)
            client.write_file("/stress/f", data)
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                for _ in range(5):
                    reader = client.open_read("/stress/f")
                    gets = sum(node.stats["gets"] for node in pool.benefactors.values())
                    assert reader.read_all() == data
                    assert reader.chunks_fetched == 32
                    assert sum(node.stats["gets"] for node in pool.benefactors.values()) == gets + 32
                    streamed = client.open_read("/stress/f")
                    assert b"".join(streamed.read_iter()) == data
                    assert streamed.chunks_fetched == 32
                    assert sum(n.stats["gets"] for n in pool.benefactors.values()) == gets + 64
            finally:
                sys.setswitchinterval(interval)


class TestAFailedReadStaysInsideItsReader:
    def test_read_all_waits_for_its_running_fetches_and_the_pool_survives(self, monkeypatch):
        hooks, store = scripted_stores()
        with TcpDeployment(benefactor_count=4, config=config(),
                           store_factory=store) as deployment:
            client = deployment.client("failing", push_parallelism=2, read_parallelism=2)
            data = make_bytes(4 * CHUNK, seed=13)
            client.write_file("/failing/f", data)
            client.write_file("/failing/other", data)
            placements = client.open_read("/failing/f").chunk_map.placements
            lost, slow = placements[0], placements[1]
            for benefactor in deployment.benefactors:
                if benefactor.benefactor_id in lost.benefactors:
                    assert benefactor.store.delete(lost.ref.chunk_id)

            slow_is_running, gate = threading.Event(), threading.Event()

            def script(chunk_id):
                if chunk_id == slow.ref.chunk_id:
                    slow_is_running.set()
                    assert gate.wait(WAIT)
                elif chunk_id == lost.ref.chunk_id:
                    # Fail only once the other worker is inside its fetch.
                    assert slow_is_running.wait(WAIT)
                    threading.Timer(0.2, gate.set).start()

            hooks.get = script
            active = []
            original = StripedReader._fetch_into

            def tracking(reader, image, placement, candidates):
                active.append(placement.ref.chunk_id)
                try:
                    return original(reader, image, placement, candidates)
                finally:
                    active.remove(placement.ref.chunk_id)

            monkeypatch.setattr(StripedReader, "_fetch_into", tracking)
            # A fetch still holding its window of the image would turn this
            # into a BufferError at ``view.release()``.
            with pytest.raises(ReadFailedError, match="no replica of chunk"):
                client.read_file("/failing/f")
            assert gate.is_set(), "read_all returned while one of its fetches was running"
            assert active == []

            hooks.get = lambda chunk_id: None
            assert client.read_file("/failing/other") == data


class TestOneExecutorOnTheClientDataPath:
    SOURCES = sorted(Path(repro.client.__file__).parent.glob("*.py"))

    def test_exactly_one_construction_site(self):
        sites = [
            f"{source.name}:{number}"
            for source in self.SOURCES
            for number, line in enumerate(source.read_text().splitlines(), start=1)
            if re.search(r"\bThreadPoolExecutor\(", line)
        ]
        assert len(sites) == 1 and sites[0].startswith("proxy.py:"), sites

    def test_sessions_and_readers_shut_nothing_down(self):
        for name in ("session.py", "read_path.py", "write_protocols.py"):
            source = next(s for s in self.SOURCES if s.name == name)
            assert "shutdown" not in source.read_text(), name
