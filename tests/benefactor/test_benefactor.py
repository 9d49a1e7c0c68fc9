"""Tests for chunk stores and the benefactor node."""

import os
import random
import threading

import pytest

from repro import StdchkPool
from repro.benefactor.benefactor import Benefactor
from repro.benefactor.chunk_store import DiskChunkStore, MemoryChunkStore
from repro.core.chunk import Chunk, content_chunk_id
from repro.exceptions import (
    BenefactorOfflineError,
    ChunkIntegrityError,
    ChunkNotFoundError,
    StoreFullError,
)
from repro.obs import set_enabled
from repro.transport.inprocess import InProcessTransport


def chunk(data=b"payload"):
    return Chunk.from_data(data)


class TestMemoryChunkStore:
    def test_put_get_delete(self):
        store = MemoryChunkStore(capacity=1024)
        item = chunk()
        store.put(item)
        assert store.contains(item.chunk_id)
        assert store.get(item.chunk_id).data == item.data
        assert store.delete(item.chunk_id)
        assert not store.delete(item.chunk_id)

    def test_space_accounting(self):
        store = MemoryChunkStore(capacity=100)
        store.put(chunk(b"a" * 40))
        assert store.used_space == 40
        assert store.free_space == 60
        assert store.chunk_count == 1

    def test_capacity_enforced(self):
        store = MemoryChunkStore(capacity=50)
        store.put(chunk(b"a" * 40))
        with pytest.raises(StoreFullError):
            store.put(chunk(b"b" * 20))

    def test_duplicate_put_is_noop(self):
        store = MemoryChunkStore(capacity=100)
        item = chunk(b"a" * 40)
        store.put(item)
        store.put(item)
        assert store.used_space == 40

    def test_missing_chunk_raises(self):
        with pytest.raises(ChunkNotFoundError):
            MemoryChunkStore(1024).get("sha1:nope")

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            MemoryChunkStore(0)


class TestDiskChunkStore:
    def test_round_trip_and_restart(self, tmp_path):
        root = str(tmp_path / "store")
        store = DiskChunkStore(root=root, capacity=1 << 20)
        item = chunk(b"persisted bytes")
        store.put(item)
        assert store.get(item.chunk_id).data == item.data
        # A new store instance over the same directory sees the chunk (restart).
        reopened = DiskChunkStore(root=root, capacity=1 << 20)
        assert reopened.contains(item.chunk_id)
        assert reopened.used_space == len(item.data)

    def test_restart_round_trips_position_addressed_ids(self, tmp_path):
        """Position-addressed ids (``ds-1:v2:c3``) must survive a restart.

        The lossy legacy mapping (``:`` -> ``_``) corrupted these ids during
        the rescan, so a restarted benefactor advertised chunks nobody asked
        for and denied the ones it actually held.
        """
        root = str(tmp_path / "store")
        store = DiskChunkStore(root=root, capacity=1 << 20)
        ids = ["ds-1:v2:c3", "ds-10:v1:c0", content_chunk_id(b"abc"), "plain-id",
               "sha1_looks_legacy", "50%_percent"]
        for index, chunk_id in enumerate(ids):
            store.put(Chunk(chunk_id=chunk_id, data=bytes([index]) * (index + 1)))
        reopened = DiskChunkStore(root=root, capacity=1 << 20)
        assert sorted(reopened.chunk_ids()) == sorted(ids)
        for index, chunk_id in enumerate(ids):
            assert reopened.get(chunk_id).data == bytes([index]) * (index + 1)
        assert reopened.used_space == store.used_space
        # Idempotent re-put against the rescanned index stays a no-op.
        reopened.put(Chunk(chunk_id="ds-1:v2:c3", data=b"\x00"))
        assert reopened.used_space == store.used_space

    def test_restart_reads_legacy_sha1_file_names(self, tmp_path):
        data = b"legacy payload"
        chunk_id = content_chunk_id(data)
        with open(tmp_path / chunk_id.replace(":", "_"), "wb") as handle:
            handle.write(data)
        store = DiskChunkStore(root=str(tmp_path), capacity=1 << 20)
        assert store.contains(chunk_id)
        assert store.get(chunk_id).data == data

    @pytest.mark.parametrize("chunk_id", ["x.tmp", ".", "..", ""])
    def test_restart_keeps_ids_named_like_dots_and_torn_writes(self, tmp_path, chunk_id):
        """``.tmp`` marks a torn write only because no chunk's file name has
        a ``.``; an empty id names no file and is refused before any is opened."""
        root = tmp_path / "store"
        store = DiskChunkStore(root=str(root), capacity=1 << 20)
        store.put(Chunk(chunk_id="a_b", data=b"12345"))
        expected = {"a_b": b"12345"}
        if chunk_id:
            store.put(Chunk(chunk_id=chunk_id, data=b"67890"))
            expected[chunk_id] = b"67890"
        else:
            with pytest.raises(ValueError):
                store.put(Chunk(chunk_id=chunk_id, data=b"67890"))
        assert not [name for name in os.listdir(root) if name.endswith(".tmp")]
        reopened = DiskChunkStore(root=str(root), capacity=1 << 20)
        assert sorted(reopened.chunk_ids()) == sorted(expected)
        for stored_id, data in expected.items():
            assert reopened.get(stored_id).data == data
        assert reopened.used_space == store.used_space == 5 * len(expected)

    def test_restart_migrates_legacy_names_with_dots(self, tmp_path):
        (tmp_path / "ds-1:v1:c0.old").write_bytes(b"legacy")
        store = DiskChunkStore(root=str(tmp_path), capacity=1 << 20)
        assert store.get("ds-1:v1:c0.old").data == b"legacy"
        assert os.listdir(tmp_path) == ["ds-1%3Av1%3Ac0%2Eold"]

    def test_restart_discards_torn_tmp_files(self, tmp_path):
        with open(tmp_path / "something.tmp", "wb") as handle:
            handle.write(b"half-written")
        store = DiskChunkStore(root=str(tmp_path), capacity=1 << 20)
        assert store.chunk_count == 0
        assert not (tmp_path / "something.tmp").exists()

    def test_delete_removes_file(self, tmp_path):
        store = DiskChunkStore(root=str(tmp_path), capacity=1 << 20)
        item = chunk(b"to delete")
        store.put(item)
        assert store.delete(item.chunk_id)
        assert store.chunk_count == 0

    def test_capacity_enforced(self, tmp_path):
        store = DiskChunkStore(root=str(tmp_path), capacity=10)
        with pytest.raises(StoreFullError):
            store.put(chunk(b"x" * 100))


def both_stores(tmp_path):
    return [MemoryChunkStore(1 << 20), DiskChunkStore(str(tmp_path / "disk"), 1 << 20)]


class TestRunningSpaceTotal:
    def test_used_space_is_the_sum_of_stored_sizes(self, tmp_path):
        """Random puts, duplicate puts, refused puts and deletes; then a reopen."""
        rng = random.Random(14)
        for store in both_stores(tmp_path):
            sizes = {}
            for step in range(300):
                chunk_id = f"ds-1:v1:c{rng.randrange(40)}"
                if rng.random() < 0.6:
                    item = Chunk(chunk_id=chunk_id, data=bytes(rng.randrange(0, 30_000)))
                    try:
                        store.put(item)
                    except StoreFullError:
                        continue
                    sizes.setdefault(chunk_id, item.size)  # a duplicate put is a no-op
                else:
                    assert store.delete(chunk_id) == (sizes.pop(chunk_id, None) is not None)
                assert store.used_space == sum(sizes.values()), step
                assert store.free_space == store.capacity - store.used_space
            assert sizes and store.chunk_count == len(sizes)
            if isinstance(store, DiskChunkStore):
                reopened = DiskChunkStore(store.root, store.capacity)
                assert reopened.used_space == sum(sizes.values())
                assert reopened.delete(next(iter(sizes)))
                assert reopened.used_space == sum(list(sizes.values())[1:])


def parked_store(base, *args):
    """A ``base`` store whose reads of ``"slow"`` park until released."""

    class Parked(base):
        entered = threading.Event()
        release = threading.Event()

        def _read(self, chunk_id):
            if chunk_id == "slow":
                self.entered.set()
                assert self.release.wait(timeout=10)
            return super()._read(chunk_id)

    return Parked(*args)


class TestStoreLockIsNotHeldAcrossReads:
    @pytest.fixture(params=["memory", "disk"])
    def store(self, request, tmp_path):
        if request.param == "memory":
            store = parked_store(MemoryChunkStore, 1 << 20)
        else:
            store = parked_store(DiskChunkStore, str(tmp_path), 1 << 20)
        store.put(Chunk(chunk_id="slow", data=b"s" * 100))
        store.put(Chunk(chunk_id="fast", data=b"f" * 100))
        yield store
        store.release.set()

    def in_background(self, work):
        outcome = []

        def run():
            try:
                outcome.append(work())
            except Exception as exc:  # noqa: BLE001 - handed to the test
                outcome.append(exc)

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        return thread, outcome

    @pytest.mark.parametrize("parked", [
        lambda store: store.get("slow"),
        lambda store: store.checksum("slow"),
        lambda store: store.checksums(),
    ], ids=["get", "checksum", "checksums"])
    def test_other_operations_complete_while_a_read_is_parked(self, store, parked):
        thread, outcome = self.in_background(lambda: parked(store))
        assert store.entered.wait(timeout=10)
        others, results = self.in_background(lambda: (
            store.get("fast").data,
            store.put(Chunk(chunk_id="new", data=b"n" * 10)),
            store.contains("new"),
            store.used_space,
        ))
        others.join(timeout=10)
        assert not others.is_alive(), "a parked read must not hold the store lock"
        assert results == [(b"f" * 100, None, True, 210)]
        store.release.set()
        thread.join(timeout=10)
        assert not thread.is_alive() and not isinstance(outcome[0], Exception)

    def test_a_chunk_deleted_under_a_parked_read_is_not_found(self, store):
        getter, got = self.in_background(lambda: store.get("slow"))
        assert store.entered.wait(timeout=10)
        assert store.delete("slow")
        store.release.set()
        getter.join(timeout=10)
        assert not getter.is_alive()
        assert type(got[0]) is ChunkNotFoundError  # never KeyError / FileNotFoundError
        with pytest.raises(ChunkNotFoundError):
            store.checksum("slow")

    def test_checksums_skips_a_chunk_deleted_while_hashing(self, store):
        hasher, digests = self.in_background(store.checksums)
        assert store.entered.wait(timeout=10)
        assert store.delete("slow")
        store.release.set()
        hasher.join(timeout=10)
        assert not hasher.is_alive()
        assert digests == [{"fast": store.checksum("fast")}]


class TestBenefactor:
    def make(self, capacity=1 << 20):
        transport = InProcessTransport()
        benefactor = Benefactor("b0", transport, capacity=capacity)
        return transport, benefactor

    def test_registration_address(self):
        transport, benefactor = self.make()
        assert transport.call(benefactor.address, "health")["node_id"] == "b0"

    def test_put_get_roundtrip_via_transport(self):
        transport, benefactor = self.make()
        payload = b"chunk data" * 100
        chunk_id = content_chunk_id(payload)
        answer = transport.call(benefactor.address, "put_chunks",
                                chunk_ids=[chunk_id], data=[payload])
        assert answer["stored"] == 1
        assert transport.call(benefactor.address, "get_chunks",
                              chunk_ids=[chunk_id]) == [payload]
        assert benefactor.stats["puts"] == 1
        assert benefactor.stats["gets"] == 1

    def test_frames_are_the_only_data_rpcs(self):
        """A chunk that travels alone is a frame of one."""
        methods = Benefactor._rpcs
        assert {"put_chunks", "get_chunks"} <= set(methods)
        assert not {"put_chunk", "get_chunk"} & set(methods)

    def test_put_verifies_content_address(self):
        _transport, benefactor = self.make()
        with pytest.raises(ChunkIntegrityError):
            benefactor.put_chunks([content_chunk_id(b"good")], [b"evil"])

    def test_offline_rejects_operations(self):
        _transport, benefactor = self.make()
        benefactor.go_offline()
        with pytest.raises(BenefactorOfflineError):
            benefactor.put_chunks([content_chunk_id(b"x")], [b"x"])
        benefactor.go_online()
        benefactor.put_chunks([content_chunk_id(b"x")], [b"x"])

    def test_crash_with_data_loss(self):
        _transport, benefactor = self.make()
        benefactor.put_chunks([content_chunk_id(b"x")], [b"x"])
        benefactor.crash(lose_data=True)
        benefactor.go_online()
        assert benefactor.store.chunk_count == 0

    def test_status_reports_free_space(self):
        _transport, benefactor = self.make(capacity=1000)
        benefactor.put_chunks([content_chunk_id(b"y" * 100)], [b"y" * 100])
        status = benefactor.health()
        assert status["free_space"] == 900
        assert status["chunk_count"] == 1
        assert status["node_id"] == "b0"

    def test_delete_and_bulk_delete(self):
        _transport, benefactor = self.make()
        ids = []
        for index in range(3):
            payload = bytes([index]) * 10
            chunk_id = content_chunk_id(payload)
            benefactor.put_chunks([chunk_id], [payload])
            ids.append(chunk_id)
        assert benefactor.delete_chunks(ids[:1]) == 1
        assert benefactor.delete_chunks(ids[1:] + ["sha1:other"]) == 2
        assert benefactor.list_chunks() == []

    def test_replicate_to_peer(self):
        transport = InProcessTransport()
        source = Benefactor("src", transport)
        target = Benefactor("dst", transport)
        payload = b"replica payload"
        chunk_id = content_chunk_id(payload)
        source.put_chunks([chunk_id], [payload])
        outcome = source.replicate_to([chunk_id, "sha1:missing"], target.address)
        assert outcome["copied"] == [chunk_id]
        assert outcome["missing"] == ["sha1:missing"]
        assert target.has_chunk(chunk_id)
        assert source.stats["replications_out"] == 1

    def test_replicate_to_stops_at_the_chunk_the_target_refuses(self):
        transport = InProcessTransport()
        source = Benefactor("src", transport)
        target = Benefactor("dst", transport, capacity=2048)
        payloads = [bytes([7]) * 1024, bytes([8]) * 2048, bytes([9]) * 16]
        ids = [content_chunk_id(payload) for payload in payloads]
        for chunk_id, payload in zip(ids, payloads):
            source.put_chunks([chunk_id], [payload])
        # The second chunk does not fit: the batch ends there, nothing after
        # it is tried, and only what was stored counts as copied.
        outcome = source.replicate_to(ids, target.address)
        assert outcome == {"copied": ids[:1], "missing": []}
        assert target.list_chunks() == ids[:1]
        assert source.stats["replications_out"] == 1
        assert source.stats["bytes_out"] == 1024


def test_stats_are_accounting_not_telemetry(small_config):
    """The same write, read and repair count the same with observability
    off: the switch stops telemetry, not what repair, GC and benchmarks
    read from ``stats``."""

    def run():
        pool = StdchkPool(benefactor_count=4, config=small_config)
        client = pool.client("accountant")
        data = random.Random(3).randbytes(100_000)
        client.write_file("/app/acct.N0.T1", data)
        assert client.read_file("/app/acct.N0.T1") == data
        pool.heal()
        return {node_id: node.stats for node_id, node in pool.benefactors.items()}

    previous = set_enabled(True)
    try:
        with_telemetry = run()
        set_enabled(False)
        without_telemetry = run()
    finally:
        set_enabled(previous)
    assert without_telemetry == with_telemetry
    totals = {key: sum(stats[key] for stats in without_telemetry.values())
              for key in ("puts", "gets", "bytes_in", "replications_out")}
    # Two chunks written once, read once, copied once by repair.
    assert totals == {"puts": 4, "gets": 2, "bytes_in": 200_000,
                      "replications_out": 2}
