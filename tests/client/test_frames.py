"""Frames: the unit of transfer is not the unit of addressing.

The chunks a write completes, across its ``write()`` calls, or one
``read_all`` needs (restart read) travel as frames: one benefactor's chunks,
a transfer unit at most, one ``put_chunks`` / ``get_chunks`` each.  What must hold is what held chunk by
chunk: the same chunk map, holders, statistics and benefactor counters
however the stream is cut; a frame that fails, wholly or for one chunk, is
finished by the per-chunk path and by nothing else; and the number of data
RPCs is what the arithmetic says (counted, never timed).
"""

from __future__ import annotations

import threading
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro import StdchkConfig, StdchkPool, TcpDeployment
from repro.benefactor.chunk_store import MemoryChunkStore
from repro.client.read_path import StripedReader
from repro.core.chunk import content_chunk_id
from repro.exceptions import BenefactorOfflineError
from repro.transport.tcp import OUT_OF_BAND_MIN, TRANSFER_UNIT
from repro.util.config import SimilarityHeuristic, WriteSemantics
from tests.conftest import make_bytes

KIB = 1 << 10
MIB = 1 << 20
CHUNK = 2 * OUT_OF_BAND_MIN  # whole chunks are sections of their own over TCP
DEPLOYMENTS = {"inprocess": StdchkPool, "tcp": TcpDeployment}


def config(**overrides) -> StdchkConfig:
    defaults = dict(chunk_size=CHUNK, stripe_width=4, replication_level=2,
                    write_semantics=WriteSemantics.PESSIMISTIC)
    defaults.update(overrides)
    return StdchkConfig(**defaults)


def nodes(deployment) -> dict:
    """``benefactor_id -> Benefactor`` on either kind of deployment."""
    members = deployment.benefactors
    return dict(members) if isinstance(members, dict) else {
        b.benefactor_id: b for b in members}


def scripted_stores():
    """Stores whose ``put`` first runs a hook the test installs."""
    hooks = SimpleNamespace(put=lambda store, chunk: None)

    class ScriptedStore(MemoryChunkStore):
        def put(self, chunk):
            hooks.put(self, chunk)
            super().put(chunk)

    return hooks, ScriptedStore


@pytest.fixture
def plans(monkeypatch):
    """The frames every ``read_all`` planned, one list per read."""
    recorded = []
    original = StripedReader._plan_frames

    def recording(reader):
        recorded.append(original(reader))
        return recorded[-1]

    monkeypatch.setattr(StripedReader, "_plan_frames", recording)
    return recorded


# ---------------------------------------------------------------------------
# however the stream is cut, the result is the chunk-at-a-time result
# ---------------------------------------------------------------------------
def repetitive(size: int, block: int, seed: int) -> bytes:
    """``size`` bytes in which every third ``block`` repeats the first one."""
    first = make_bytes(block, seed)
    blocks = [first if number % 3 == 0 else make_bytes(block, seed + number)
              for number in range(-(-size // block))]
    return b"".join(blocks)[:size]


def outcome(deployment, session) -> dict:
    """Everything a write leaves behind that a different framing could change."""
    return {
        "chunk_map": session.pusher.chunk_map.to_dict(),
        "stats": session.stats,
        "counters": {name: {key: node.stats[key] for key in ("puts", "bytes_in")}
                     for name, node in sorted(nodes(deployment).items())},
        "inventories": {name: sorted(node.store.chunk_ids())
                        for name, node in sorted(nodes(deployment).items())},
    }


def write_in_pieces(kind: str, heuristic, chunk_size: int, data: bytes, edges) -> dict:
    with DEPLOYMENTS[kind](benefactor_count=4, config=config(
            chunk_size=chunk_size, similarity_heuristic=heuristic)) as deployment:
        client = deployment.client("writer")
        session = client.open_write("/split/image")
        for start, end in zip(edges, edges[1:]):
            session.write(data[start:end])
        session.close()
        assert client.read_file("/split/image") == data
        return outcome(deployment, session)


#: chunk size -> image size: 11 small chunks and a tail (frames of several
#: chunks), and two chunks of two transfer units and a tail (a chunk a frame).
SPLIT_CASES = {CHUNK: 11 * CHUNK + 100, 2 * TRANSFER_UNIT: 4 * TRANSFER_UNIT + 100}
_chunk_at_a_time: dict = {}


@pytest.mark.parametrize("heuristic", [SimilarityHeuristic.NONE, SimilarityHeuristic.FSCH],
                         ids=["opaque", "fsch"])
@pytest.mark.parametrize("chunk_size", sorted(SPLIT_CASES), ids=["below", "above"])
@pytest.mark.parametrize("kind", sorted(DEPLOYMENTS))
@settings(max_examples=5, deadline=None)
@given(cuts=st.lists(st.floats(0, 1), max_size=6))
def test_any_split_of_the_stream_yields_the_chunk_at_a_time_result(
        kind, chunk_size, heuristic, cuts):
    """Chunk map, per-chunk holders, ``WriteStats`` and the benefactors'
    counters and inventories, for chunk sizes on both sides of the transfer
    unit, with FsCH duplicates inside and across frames."""
    size = SPLIT_CASES[chunk_size]
    data = repetitive(size, chunk_size, seed=3)
    key = (kind, chunk_size, heuristic)
    if key not in _chunk_at_a_time:
        _chunk_at_a_time[key] = write_in_pieces(
            kind, heuristic, chunk_size, data, [*range(0, size, chunk_size), size])
    edges = [0, *sorted(int(cut * size) for cut in cuts), size]
    assert write_in_pieces(kind, heuristic, chunk_size, data, edges) == _chunk_at_a_time[key]


# ---------------------------------------------------------------------------
# a frame that fails is finished chunk by chunk
# ---------------------------------------------------------------------------
def victim_of(deployment) -> str:
    """The third benefactor of the stripe: its frame of an 8-chunk, 2-replica
    write is ``[c1 r1, c2 r0, c5 r1, c6 r0]``."""
    return sorted(nodes(deployment))[2]


@pytest.mark.parametrize("parallelism", [1, 2])
@pytest.mark.parametrize("kind", sorted(DEPLOYMENTS))
@pytest.mark.parametrize("trouble,failures,keeps", [
    # Gone from its third chunk on: each of the frame's four chunks finds it
    # offline once, then rotates on.
    ("dies", 4, 0),
    # Room for two chunks and a half: the per-chunk path stores the first
    # two again (idempotent) and is refused the other two, once each.
    ("fills-up", 2, 2),
    # A failure that is gone when the per-chunk path asks again.
    ("raises-once", 0, 4),
])
def test_trouble_on_the_third_chunk_of_a_frame_is_finished_per_chunk(
        kind, parallelism, trouble, failures, keeps):
    hooks, store = scripted_stores()
    with DEPLOYMENTS[kind](benefactor_count=4, config=config(),
                           store_factory=store) as deployment:
        victim_id = victim_of(deployment)
        victim = nodes(deployment)[victim_id]
        if trouble == "fills-up":
            victim.store.capacity = 2 * CHUNK + CHUNK // 2
        seen = []

        def on_put(target, chunk):
            if target is not victim.store:
                return
            seen.append(chunk.chunk_id)
            if len(seen) == 3 and trouble == "dies":
                victim.go_offline()
                raise BenefactorOfflineError("owner is back")
            if len(seen) == 3 and trouble == "raises-once":
                raise RuntimeError("disk hiccup")

        hooks.put = on_put
        client = deployment.client("writer", push_parallelism=parallelism)
        data = make_bytes(8 * CHUNK, seed=8)
        session = client.write_file("/trouble/image", data)

        assert session.committed
        assert session.stats.push_failures == failures
        assert session.stats.stripe_refreshes == 0
        assert session.stats.chunks_pushed == 16
        assert session.stats.bytes_pushed == 2 * len(data)
        placements = session.pusher.chunk_map.placements
        assert all(len(set(p.benefactors)) == 2 for p in placements), "full replication"
        assert sum(victim_id in p.benefactors for p in placements) == keeps
        for placement in placements:
            for holder in placement.benefactors:
                assert nodes(deployment)[holder].store.contains(placement.ref.chunk_id)
        assert client.read_file("/trouble/image") == data


@pytest.mark.parametrize("kind", sorted(DEPLOYMENTS))
def test_two_identical_fsch_chunks_in_one_plan_are_pushed_once(kind, data_rpcs):
    """A B C A over two benefactors: A and C share a frame, the second A is
    a reference to the first, like a hit on the previous version's chunks."""
    with DEPLOYMENTS[kind](benefactor_count=2, config=config(
            stripe_width=2, replication_level=1,
            similarity_heuristic=SimilarityHeuristic.FSCH)) as deployment:
        client = deployment.client("writer")
        a, b, c = (make_bytes(CHUNK, seed) for seed in (1, 2, 3))
        session = client.write_file("/dedup/image", a + b + c + a)
        stats = session.stats
        assert (stats.chunks_pushed, stats.chunks_deduplicated) == (3, 1)
        assert (stats.bytes_pushed, stats.bytes_deduplicated) == (3 * CHUNK, CHUNK)
        first, _b, _c, again = session.pusher.chunk_map.placements
        assert again.ref.chunk_id == first.ref.chunk_id
        assert again.benefactors == first.benefactors
        assert (again.ref.offset, again.ref.length) == (3 * CHUNK, CHUNK)
        assert sorted(data_rpcs) == [("put_chunks", 1), ("put_chunks", 2)]
        assert sum(node.stats["puts"] for node in nodes(deployment).values()) == 3
        assert client.read_file("/dedup/image") == a + b + c + a


@pytest.mark.parametrize("kind", sorted(DEPLOYMENTS))
@pytest.mark.parametrize("first_copy", ["open", "in-flight"])
def test_a_block_repeated_in_a_later_write_is_pushed_once(kind, first_copy, data_rpcs):
    """A B C, then A in a second ``write()`` while the first A is still in
    an open frame, or in a frame on its way: the second A is a reference."""
    hooks, store = scripted_stores()
    with DEPLOYMENTS[kind](benefactor_count=2, config=config(
            stripe_width=2, replication_level=1,
            similarity_heuristic=SimilarityHeuristic.FSCH),
            store_factory=store) as deployment:
        client = deployment.client("writer", push_parallelism=2)
        a, b, c = (make_bytes(CHUNK, seed) for seed in (1, 2, 3))
        landing = threading.Event()
        hooks.put = lambda target, chunk: landing.wait(10.0)
        session = client.open_write("/dedup/later")
        session.write(a + b + c)
        if first_copy == "in-flight":
            session.pusher.send_frames()
        session.write(a)
        landing.set()
        session.close()
        stats = session.stats
        assert (stats.chunks_pushed, stats.chunks_deduplicated) == (3, 1)
        assert (stats.bytes_pushed, stats.bytes_deduplicated) == (3 * CHUNK, CHUNK)
        first, _b, _c, again = session.pusher.chunk_map.placements
        assert (again.ref.chunk_id, again.benefactors) == (first.ref.chunk_id, first.benefactors)
        assert sorted(data_rpcs) == [("put_chunks", 1), ("put_chunks", 2)]
        assert sum(node.stats["puts"] for node in nodes(deployment).values()) == 3
        assert client.read_file("/dedup/later") == a + b + c + a


# ---------------------------------------------------------------------------
# a chunk a read frame did not deliver intact is fetched again by itself
# ---------------------------------------------------------------------------
def reader_fetching_from(client, path, victim_id, holders):
    """A reader whose plan asks ``victim_id`` for every chunk it holds: the
    scheduler tries replicas it believes failed last."""
    for benefactor_id in holders:
        if benefactor_id != victim_id:
            client.replica_scheduler.mark_failed(benefactor_id)
    return client.open_read(path)


@pytest.mark.parametrize("kind", sorted(DEPLOYMENTS))
@pytest.mark.parametrize("damage", ["missing", "corrupt"])
def test_one_bad_chunk_in_a_read_frame_falls_back_for_that_chunk_only(
        kind, damage, data_rpcs):
    with DEPLOYMENTS[kind](benefactor_count=4, config=config(
            similarity_heuristic=SimilarityHeuristic.FSCH)) as deployment:
        client = deployment.client("reader")
        data = make_bytes(8 * CHUNK, seed=9)
        client.write_file("/bad/image", data)
        victim_id = victim_of(deployment)
        victim = nodes(deployment)[victim_id]
        reader = reader_fetching_from(client, "/bad/image", victim_id, nodes(deployment))
        held = [p for p in reader.chunk_map.placements if victim_id in p.benefactors]
        assert len(held) == 4
        bad = held[2].ref.chunk_id
        if damage == "missing":
            assert victim.store.delete(bad)
        else:
            victim.store._chunks[bad] = bytes(CHUNK)
        gets_before = victim.stats["gets"]
        del data_rpcs[:]

        assert reader.read_all() == data
        assert reader.chunks_fetched == 8
        assert reader.replica_fallbacks == 1
        # The victim's four chunks were one frame (its ``gets`` below say
        # how far that frame got).
        assert ("get_chunks", 4) in data_rpcs
        if damage == "missing":
            # The frame fails as a whole; each of its chunks is asked for again
            # and only the missing one moves on, demoting the victim for this
            # reader alone.
            assert reader._missing == {victim_id}
            assert reader.corruptions_reported == 0
            assert victim_id not in client.replica_scheduler.failed_benefactors
            assert victim.stats["gets"] == gets_before + 2 + 3
        else:
            # The frame arrives; three chunks verify and stay, the fourth is
            # reported and fetched from its other replica, never again from
            # the same one.
            assert reader._missing == set()
            assert reader.corruptions_reported == 1
            assert victim_id in client.replica_scheduler.failed_benefactors
            assert victim.stats["gets"] == gets_before + 4
            assert victim_id in deployment.manager._corrupt[bad]


@pytest.mark.parametrize("parallelism", [1, 2, 4])
@pytest.mark.parametrize("kind", sorted(DEPLOYMENTS))
@pytest.mark.parametrize("failed_count", [1, 2], ids=["one-holder", "two-holders"])
def test_no_chunk_joins_a_frame_on_a_failed_replica_while_it_has_a_healthy_one(
        kind, parallelism, failed_count, plans):
    """Chunk i is on benefactors i and i + 1.  With one holder marked failed
    every chunk has a healthy replica and no frame goes to it; with two
    adjacent ones, the chunks held by both alone may, and no other chunk
    joins their frames."""
    with DEPLOYMENTS[kind](benefactor_count=4, config=config(
            chunk_size=64 * KIB)) as deployment:
        client = deployment.client("reader", read_parallelism=parallelism)
        data = make_bytes(512 * KIB, seed=10)
        client.write_file("/failed/image", data)
        failed = set(sorted(nodes(deployment))[:failed_count])
        for benefactor_id in failed:
            client.replica_scheduler.mark_failed(benefactor_id)
        before = {name: nodes(deployment)[name].stats["gets"] for name in failed}
        reader = client.open_read("/failed/image")
        assert reader.read_all() == data
        assert reader.replica_fallbacks == 0
        [frames] = plans
        for frame in frames:
            if frame.benefactor_id in failed:
                assert all(set(p.benefactors) <= failed for p, _ in frame.items)
        if failed_count == 1:
            [victim] = failed
            assert nodes(deployment)[victim].stats["gets"] == before[victim]


# ---------------------------------------------------------------------------
# the arithmetic, counted
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("kind", sorted(DEPLOYMENTS))
class TestDataRpcArithmetic:
    def test_small_chunks_two_replicas_is_a_frame_per_benefactor(self, kind, data_rpcs):
        """512 KiB in 64 KiB chunks, two pessimistic replicas, four
        benefactors: 16 puts and 8 gets chunk by chunk, 4 + 2 frames."""
        with DEPLOYMENTS[kind](benefactor_count=4,
                               config=config(chunk_size=64 * KIB)) as deployment:
            client = deployment.client("count", push_parallelism=2, read_parallelism=2)
            data = make_bytes(512 * KIB, seed=1)
            client.write_file("/count/f", data)
            assert sorted(data_rpcs) == [("put_chunks", 4)] * 4
            del data_rpcs[:]
            assert client.read_file("/count/f") == data
            assert data_rpcs == [("get_chunks", 4)] * 2
            assert sum(n.stats["puts"] for n in nodes(deployment).values()) == 16
            assert sum(n.stats["gets"] for n in nodes(deployment).values()) == 8

    @pytest.mark.parametrize("entry", ["write_file", "write_file_4096",
                                       "fs_write_131072", "fs_write_4096"])
    def test_every_way_of_writing_the_file_is_a_frame_per_benefactor(
            self, kind, data_rpcs, entry):
        """The same 512 KiB written in one call, in 4 KiB ``write()`` calls,
        and through the FS facade in 128 KiB and 4 KiB blocks: frames outlive
        the calls, so every way is the four frames of ``write_file``."""
        from repro.fs.filesystem import StdchkFilesystem
        with DEPLOYMENTS[kind](benefactor_count=4,
                               config=config(chunk_size=64 * KIB)) as deployment:
            client = deployment.client("count", push_parallelism=2)
            data = make_bytes(512 * KIB, seed=1)
            block = int(entry.rsplit("_", 1)[1]) if entry[-1].isdigit() else 0
            if entry.startswith("fs_"):
                StdchkFilesystem(client).write_file("/count/f", data, block_size=block)
            else:
                client.write_file("/count/f", data, block_size=block)
            assert sorted(data_rpcs) == [("put_chunks", 4)] * 4
            assert sum(n.stats["puts"] for n in nodes(deployment).values()) == 16
            assert client.read_file("/count/f") == data

    def test_an_iw_spool_rotation_sends_the_open_frames(self, kind, data_rpcs, tmp_path):
        """A spool of two chunks rotates every 128 KiB: chunks 0 and 1 are on
        benefactors 0, 1 and 1, 2, so each rotation sends frames of 1, 2 and
        1 chunks before the next block is written, and close sends none."""
        from repro.util.config import WriteProtocol
        with DEPLOYMENTS[kind](benefactor_count=4, config=config(
                chunk_size=64 * KIB, incremental_file_size=128 * KIB,
                write_protocol=WriteProtocol.INCREMENTAL)) as deployment:
            client = deployment.client("spool", spool_dir=str(tmp_path))
            data = make_bytes(512 * KIB, seed=4)
            session = client.open_write("/spool/iw")
            for rotation in range(4):
                for start in range(0, 128 * KIB, 4 * KIB):
                    offset = rotation * 128 * KIB + start
                    session.write(data[offset:offset + 4 * KIB])
                assert sorted(data_rpcs) == sorted(
                    [("put_chunks", 1), ("put_chunks", 2), ("put_chunks", 1)] * (rotation + 1))
            session.close()
            assert len(data_rpcs) == 12
            assert session.temporary_files_used == 5
            assert client.read_file("/spool/iw") == data

    def test_abort_sends_nothing_still_open(self, kind, data_rpcs):
        with DEPLOYMENTS[kind](benefactor_count=4,
                               config=config(chunk_size=64 * KIB)) as deployment:
            client = deployment.client("quitter", push_parallelism=2)
            session = client.open_write("/abort/f")
            session.write(make_bytes(3 * 64 * KIB + 100, seed=5))
            session.abort()
            assert data_rpcs == []
            assert sum(n.stats["puts"] for n in nodes(deployment).values()) == 0
            assert client.versions("/abort/f") == []

    @pytest.mark.parametrize("parallelism", [1, 2])
    @pytest.mark.parametrize("entry", ["read_file_iter", "fs_read_file",
                                       "fs_scan_4096", "fs_scan_5000"])
    def test_every_whole_file_read_is_a_frame_per_fetcher(
            self, kind, data_rpcs, parallelism, entry):
        """The same 512 KiB read whole by streaming, through the FS facade at
        once, and by FS scans of 4 KiB and 5 000 B blocks: every way is the
        two frames of ``read_file``.  A scan's first read reads the whole
        file ahead; every later read-ahead is of chunks held."""
        from repro.fs.filesystem import StdchkFilesystem
        with DEPLOYMENTS[kind](benefactor_count=4,
                               config=config(chunk_size=64 * KIB)) as deployment:
            client = deployment.client("count", read_parallelism=parallelism)
            data = make_bytes(512 * KIB, seed=1)
            client.write_file("/count/f", data)
            fs = StdchkFilesystem(client)
            del data_rpcs[:]
            if entry == "read_file_iter":
                assert b"".join(client.read_file_iter("/count/f")) == data
            elif entry == "fs_read_file":
                assert fs.read_file("/count/f") == data
            else:
                block = int(entry.rsplit("_", 1)[1])
                handle = fs.open("/count/f")
                pieces = iter(lambda: handle.read(block), b"")
                assert b"".join(pieces) == data
                fs.close(handle)
            assert data_rpcs == [("get_chunks", 4)] * 2
            assert sum(n.stats["gets"] for n in nodes(deployment).values()) == 8

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_a_range_read_frames_its_chunks(self, kind, data_rpcs, parallelism):
        """``[100, 100 + 300 KiB)`` of the same file is chunks 0..4."""
        with DEPLOYMENTS[kind](benefactor_count=4,
                               config=config(chunk_size=64 * KIB)) as deployment:
            client = deployment.client("count", read_parallelism=parallelism)
            data = make_bytes(512 * KIB, seed=1)
            client.write_file("/count/f", data)
            del data_rpcs[:]
            assert client.read_range("/count/f", 100, 300 * KIB) == data[100:100 + 300 * KIB]
            assert len(data_rpcs) < 5
            assert sum(chunks for _method, chunks in data_rpcs) == 5
            assert sum(n.stats["gets"] for n in nodes(deployment).values()) == 5

    @pytest.mark.parametrize("parallelism,frames", [(1, 2), (2, 2), (4, 4)])
    def test_a_restart_read_plans_a_frame_per_fetcher(
            self, kind, data_rpcs, plans, parallelism, frames):
        """The same 512 KiB: chunk i is on benefactors i and i + 1, so two
        frames cover the image, and four frames spread it over the holders.
        A chunk that joined a frame on its second-best replica still tries
        that replica first if the frame does not deliver it."""
        with DEPLOYMENTS[kind](benefactor_count=4,
                               config=config(chunk_size=64 * KIB)) as deployment:
            client = deployment.client("count", read_parallelism=parallelism)
            data = make_bytes(512 * KIB, seed=1)
            client.write_file("/count/f", data)
            del data_rpcs[:]
            assert client.read_file("/count/f") == data
            [plan] = plans
            assert all(candidates[0] == frame.benefactor_id
                       for frame in plan for _placement, candidates in frame.items)
            assert len(data_rpcs) == frames
            assert sum(chunks for _method, chunks in data_rpcs) == 8
            assert sum(n.stats["gets"] for n in nodes(deployment).values()) == 8

    def test_transfer_unit_chunks_are_a_chunk_per_rpc_as_ever(self, kind, data_rpcs):
        with DEPLOYMENTS[kind](benefactor_count=4, config=StdchkConfig(
                replication_level=1)) as deployment:
            client = deployment.client("count", push_parallelism=2, read_parallelism=2)
            data = make_bytes(32 * MIB, seed=2)
            client.write_file("/count/image", data)
            assert data_rpcs == [("put_chunks", 1)] * 32
            del data_rpcs[:]
            assert client.read_file("/count/image") == data
            assert data_rpcs == [("get_chunks", 1)] * 32

    def test_a_repair_copy_is_a_frame_of_one(self, kind, data_rpcs):
        with DEPLOYMENTS[kind](benefactor_count=2, config=config()) as deployment:
            source, target = nodes(deployment).values()
            payloads = [make_bytes(CHUNK, seed) for seed in (5, 6)]
            ids = [content_chunk_id(payload) for payload in payloads]
            source.put_chunks(ids, payloads)
            assert source.replicate_to(ids, target.advertised_address)["copied"] == ids
            assert data_rpcs == [("put_chunks", 1)] * 2
            assert target.stats["puts"] == 2

    def test_a_file_of_one_small_chunk_is_one_rpc_each_way(self, kind, data_rpcs):
        with DEPLOYMENTS[kind](benefactor_count=4, config=config(
                chunk_size=64 * KIB, replication_level=1)) as deployment:
            client = deployment.client("count", push_parallelism=2, read_parallelism=2)
            data = make_bytes(4 * KIB, seed=3)
            client.write_file("/count/tiny", data)
            assert client.read_file("/count/tiny") == data
            assert data_rpcs == [("put_chunks", 1), ("get_chunks", 1)]

    def test_spooled_protocols_frame_like_the_sliding_window(self, kind, data_rpcs, tmp_path):
        """CLW and IW drain their spool a transfer unit per ``feed``."""
        from repro.util.config import WriteProtocol
        for protocol in (WriteProtocol.COMPLETE_LOCAL, WriteProtocol.INCREMENTAL):
            del data_rpcs[:]
            with DEPLOYMENTS[kind](benefactor_count=4, config=config(
                    chunk_size=64 * KIB, write_protocol=protocol)) as deployment:
                client = deployment.client("spool", spool_dir=str(tmp_path))
                data = make_bytes(512 * KIB, seed=4)
                client.write_file("/spool/f", data)
                assert sorted(data_rpcs) == [("put_chunks", 4)] * 4, protocol
                assert client.read_file("/spool/f") == data
