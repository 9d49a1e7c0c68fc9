"""Compare, then hash: FsCH names an unchanged chunk without hashing it.

Under FsCH a client hands its next sliding-window session the chunks of the
last image it committed; chunk *i* whose bytes equal chunk *i* there takes its
id after one ``memcmp``, and only the other chunks are hashed.  These tests
pin how many chunks the client hashes, that every chunk map is exactly the one
a fresh client computes for the same bytes, whatever the path, size, chunk
size or write granularity of the image before, and what the client keeps:
views of the application's ``bytes`` only, never a buffer of its own; the
last image between checkpoints and, while a session is open, also what was
written to it; nothing with FsCH off or through a spooling protocol.

Reads follow the same rule: a fetched chunk whose bytes equal the chunk of
its id in the reading client's last image is accepted after one ``memcmp``,
every other one is hashed.  These tests pin how many chunks a reader hashes,
that a corrupt replica is caught whether or not its id is in the image, and
that a reader keeps no image alive.
"""

from __future__ import annotations

import gc
import itertools
import sys
import threading
import time

import pytest

import repro.client.read_path as read_path_module
import repro.client.session as session_module
from repro import CheckpointName, StdchkConfig, StdchkPool, TcpDeployment
from repro.core.chunk import Chunk, content_chunk_id
from repro.core.chunk_map import ChunkMap
from repro.exceptions import StdchkError
from repro.fs.filesystem import StdchkFilesystem
from repro.util.config import SimilarityHeuristic, WriteProtocol, WriteSemantics
from tests.conftest import make_bytes

CHUNK = 64 * 1024
CHUNKS = 32

KINDS = pytest.mark.parametrize("build", [StdchkPool, TcpDeployment],
                                ids=["inprocess", "tcp"])


def fsch_config(**overrides) -> StdchkConfig:
    fields = dict(chunk_size=CHUNK, replication_level=1,
                  similarity_heuristic=SimilarityHeuristic.FSCH)
    fields.update(overrides)
    return StdchkConfig(**fields)


@pytest.fixture
def hashed(monkeypatch):
    """Lengths of the chunks the client's pusher hashed, in order."""
    lengths = []

    def counting(payload):
        lengths.append(len(payload))
        return content_chunk_id(payload)

    monkeypatch.setattr(session_module, "content_chunk_id", counting)
    return lengths


@pytest.fixture
def verified(monkeypatch):
    """Lengths of the chunks the client's readers hashed, in order."""
    lengths = []

    class Counting(Chunk):
        def verify(self):
            lengths.append(len(self.data))
            super().verify()

    monkeypatch.setattr(read_path_module, "Chunk", Counting)
    return lengths


def names(deployment, path):
    """``(chunk_id, offset, length)`` of the latest committed version of ``path``."""
    answer = deployment.manager.get_chunk_map(path=path)
    return [(placement.chunk_id, placement.ref.offset, placement.ref.length)
            for placement in ChunkMap.from_dict(answer["chunk_map"])]


def dirty(image: bytes, chunks) -> bytes:
    """``image`` with one byte flipped in each of ``chunks``."""
    changed = bytearray(image)
    for index in chunks:
        changed[index * CHUNK + 77] ^= 0xFF
    return bytes(changed)


@KINDS
def test_a_rewrite_hashes_only_the_chunks_that_changed(build, hashed):
    with build(benefactor_count=4, config=fsch_config()) as deployment:
        client = deployment.client("checkpointer", push_parallelism=2)
        image = make_bytes(CHUNKS * CHUNK, seed=1)
        first = client.write_file("/ckpt/image", image)
        assert len(hashed) == CHUNKS
        assert first.stats.chunks_pushed == CHUNKS

        hashed.clear()
        image = dirty(image, range(0, CHUNKS, 4))
        second = client.write_file("/ckpt/image", image)
        assert hashed == [CHUNK] * 8
        assert (second.stats.chunks_pushed, second.stats.chunks_deduplicated) == (8, 24)

        hashed.clear()
        third = client.write_file("/ckpt/image", image)
        assert hashed == []
        assert (third.stats.chunks_pushed, third.stats.chunks_deduplicated) == (0, CHUNKS)

        assert client.read_file("/ckpt/image") == image
        assert names(deployment, "/ckpt/image") == [
            (content_chunk_id(image[i * CHUNK:(i + 1) * CHUNK]), i * CHUNK, CHUNK)
            for i in range(CHUNKS)]


def test_every_chunk_map_is_the_one_a_fresh_client_computes(monkeypatch):
    """One warm client writes a sequence of images that share bytes with the
    one before in every awkward way; after each, a client that never wrote
    commits the same bytes, and the two chunk maps are equal."""
    pool = StdchkPool(benefactor_count=4, config=fsch_config())
    warm = pool.client("warm")
    fresh_ids = itertools.count()

    def check(path, data, write=lambda client, path, data: client.write_file(path, data)):
        write(warm, path, data)
        fresh = pool.client(f"fresh-{next(fresh_ids)}")
        write(fresh, "/fresh" + path, data)
        assert names(pool, path) == names(pool, "/fresh" + path)

    base = make_bytes(CHUNKS * CHUNK + 1000, seed=2)
    check("/images/a", base)
    check("/images/b", dirty(base, [3, 9, 31]))                    # another path
    check("/images/a", base[:20 * CHUNK + 123])                    # shorter
    check("/images/a", base + make_bytes(5 * CHUNK + 7, seed=3))   # longer
    check("/images/a", base[100:])                                 # shifted
    check("/images/a", base,
          lambda client, path, data: client.write_file(path, data, block_size=4096))
    check("/images/fs", dirty(base, [0]),
          lambda client, path, data: StdchkFilesystem(client)
          .write_file(path, data, block_size=4096))

    # A mutable input: the client keeps its own copy, so bytes changed after
    # write_file returns are compared against what was actually written.
    mutable = bytearray(base)
    check("/images/mutable", mutable)
    written = bytes(mutable)
    mutable[5 * CHUNK + 1] ^= 0xFF
    mutable[-1] ^= 0xFF
    check("/images/mutable", bytes(mutable))
    assert bytes(mutable) != written

    # Another chunk size: no chunk of the last image has its offset, and the
    # tail lengths are what they are; only equal bytes may share an id.
    monkeypatch.setattr(pool.manager, "config",
                        pool.manager.config.with_overrides(chunk_size=48 * 1024))
    check("/images/a", base)
    check("/images/a", base[:48 * 1024 * 7 + 1000])

    # A repetitive image: equal chunks at other indices are hashed, not
    # borrowed, and still get the one id their bytes hash to.
    monkeypatch.setattr(pool.manager, "config",
                        pool.manager.config.with_overrides(chunk_size=CHUNK))
    check("/images/pattern", make_bytes(CHUNK, seed=4) * 6)
    check("/images/pattern", make_bytes(CHUNK, seed=4) * 3 + make_bytes(CHUNK, seed=5) * 3)
    pool.close()


def test_chunks_the_session_assembles_are_compared_but_never_kept(hashed):
    """Chunks topped up from 4 KiB writes (the FS facade) live in buffers
    the session made: they are compared with the last image, but the
    session's own image records none of them."""
    pool = StdchkPool(benefactor_count=4, config=fsch_config())
    client = pool.client("warm")
    fs = StdchkFilesystem(client)
    base = make_bytes(8 * CHUNK + 500, seed=6)
    client.write_file("/fs/image", base)
    assert len(hashed) == 9
    hashed.clear()
    changed = dirty(base, [2])
    fs.write_file("/fs/image", changed, block_size=4096)
    assert hashed == [CHUNK, 500]
    assert client._last_image == [None] * 9

    hashed.clear()
    fs.write_file("/fs/image", changed, block_size=CHUNK)  # views of ``changed``
    assert len(hashed) == 9
    assert client._last_image == [None] * 9

    fresh = pool.filesystem("fresh-fs")
    fresh.write_file("/fresh/fs/image", changed, block_size=4096)
    assert names(pool, "/fs/image") == names(pool, "/fresh/fs/image")
    assert fs.read_file("/fs/image") == changed
    pool.close()


@pytest.mark.parametrize("protocol", [WriteProtocol.COMPLETE_LOCAL,
                                      WriteProtocol.INCREMENTAL])
def test_spooling_sessions_compare_and_keep_nothing(protocol, hashed, tmp_path):
    """CLW and IW feed blocks read back from their spool: an image of them
    would hold in memory what the spool keeps on disk."""
    pool = StdchkPool(benefactor_count=4, config=fsch_config(
        write_protocol=protocol, incremental_file_size=4 * CHUNK))
    client = pool.client("spooler", spool_dir=str(tmp_path))
    image = make_bytes(8 * CHUNK, seed=9)
    baseline = sys.getrefcount(image)
    for _ in range(2):
        session = client.write_file("/spool/image", image)
        assert session.pusher.take_image() is None
    gc.collect()
    assert hashed == [CHUNK] * 16
    assert client._last_image == ()
    assert sys.getrefcount(image) == baseline
    assert client.read_file("/spool/image") == image
    pool.close()


def test_with_fsch_off_nothing_is_kept_or_compared(monkeypatch):
    compared = []
    monkeypatch.setattr(session_module.ChunkPusher, "_recall",
                        lambda self, index, payload: compared.append(index))
    pool = StdchkPool(benefactor_count=4, config=fsch_config(
        similarity_heuristic=SimilarityHeuristic.NONE))
    client = pool.client("plain")
    image = make_bytes(8 * CHUNK, seed=7)
    before = sys.getrefcount(image)
    for _ in range(2):
        session = client.write_file("/plain/image", image)
        assert session.pusher.take_image() is None
    gc.collect()
    assert sys.getrefcount(image) == before
    assert client._last_image == ()
    assert compared == []
    pool.close()


def test_the_next_content_addressed_commit_releases_the_last_image():
    pool = StdchkPool(benefactor_count=4, config=fsch_config())
    client = pool.client("checkpointer")
    first = make_bytes(8 * CHUNK + 100, seed=8)
    second = dirty(first, [1])
    baseline = sys.getrefcount(first)

    sessions = [client.write_file("/release/image", first)]
    gc.collect()
    # One reference per complete chunk of ``first`` in the client's image;
    # the tail chunk is in a buffer of the session's own, which is not kept.
    assert sys.getrefcount(first) == baseline + 8
    assert [entry and entry[1] for entry in client._last_image] == [
        i * CHUNK for i in range(8)] + [None]

    # The sessions write_file returns are kept: neither pins an image.
    sessions.append(client.write_file("/release/image", second))
    gc.collect()
    assert sys.getrefcount(first) == baseline
    assert [entry[0] is second for entry in client._last_image[:8]] == [True] * 8
    assert [session.pusher.take_image() for session in sessions] == [None, None]

    # An aborted session leaves the last committed image in place.
    session = client.open_write("/release/image")
    session.write(first)
    session.abort()
    assert [entry and entry[3] for entry in client._last_image] == [
        placement[0] for placement in names(pool, "/release/image")][:8] + [None]
    pool.close()


def test_an_open_session_holds_the_last_image_and_what_was_written_to_it():
    """The bound while a session runs: the client's last image plus the
    ``bytes`` written to the session so far, each referenced once per chunk
    cut from it; the commit releases the last image."""
    pool = StdchkPool(benefactor_count=4, config=fsch_config())
    client = pool.client("checkpointer")
    first = make_bytes(8 * CHUNK, seed=10)
    head, rest = first[:4 * CHUNK], dirty(first, [6])[4 * CHUNK:]
    counts = dict(first=sys.getrefcount(first), head=sys.getrefcount(head),
                  rest=sys.getrefcount(rest))
    client.write_file("/open/image", first)

    session = client.open_write("/open/image")
    session.write(head)
    gc.collect()
    assert sys.getrefcount(first) == counts["first"] + 8
    assert sys.getrefcount(head) == counts["head"] + 4
    assert sys.getrefcount(rest) == counts["rest"]

    session.write(rest)
    session.close()
    gc.collect()
    assert sys.getrefcount(first) == counts["first"]
    assert sys.getrefcount(head) == counts["head"] + 4
    assert sys.getrefcount(rest) == counts["rest"] + 4
    assert session.stats.chunks_pushed == 1
    assert client.read_file("/open/image") == head + rest
    pool.close()


@KINDS
def test_a_reader_hashes_only_chunks_not_in_its_clients_last_image(build, verified):
    with build(benefactor_count=4, config=fsch_config()) as deployment:
        client = deployment.client("checkpointer", read_parallelism=2)
        first = make_bytes(CHUNKS * CHUNK, seed=11)
        client.write_file("/restart/image", first)
        assert client.read_file("/restart/image") == first
        assert verified == [] and compared(client) == CHUNKS

        second = dirty(first, range(0, CHUNKS, 4))
        client.write_file("/restart/image", second)
        # A rollback: the 24 chunks the versions share are in the image.
        assert client.read_file("/restart/image", version=1) == first
        assert verified == [CHUNK] * 8 and compared(client) == CHUNKS + 24

        # Every read entry point verifies through the same rule.
        verified.clear()
        assert b"".join(client.read_file_iter("/restart/image")) == second
        assert client.read_range("/restart/image", 3 * CHUNK - 5, 2 * CHUNK) == (
            second[3 * CHUNK - 5:5 * CHUNK - 5])
        assert StdchkFilesystem(client).read_file("/restart/image") == second
        assert verified == []
        # read_range fetched chunks 2, 3 and 4.
        assert compared(client) == CHUNKS + 24 + CHUNKS + 3 + CHUNKS

        # A fresh process has no image: it hashes every chunk, as before.
        fresh = deployment.client("restarted")
        assert fresh.read_file("/restart/image") == second
        assert verified == [CHUNK] * CHUNKS
        assert compared(fresh) == 0


def compared(client) -> float:
    """Chunks ``client``'s readers accepted by comparison, without hashing."""
    return client.obs.counter("client_chunks_compared_total").value


@KINDS
def test_a_restart_on_the_writers_node_compares_and_a_migrated_one_hashes(
        build, verified):
    """A process that restarts on its own node reads through that node's
    client, which wrote the image; a process migrated to another node reads
    through a client that never wrote it."""
    with build(benefactor_count=4, config=fsch_config()) as deployment:
        node = deployment.client("compute-node-0", read_parallelism=2)
        image = make_bytes(CHUNKS * CHUNK, seed=16)
        for timestep in (1, 2):
            image = dirty(image, range(timestep, CHUNKS, 8))
            node.write_checkpoint(CheckpointName("app", 0, timestep), image)

        restarted = node.restore_latest_checkpoint("app")
        assert (restarted["name"].timestep, restarted["data"]) == (2, image)
        assert verified == [] and compared(node) == CHUNKS

        migrated = deployment.client("compute-node-1")
        assert migrated.restore_latest_checkpoint("app")["data"] == image
        assert verified == [CHUNK] * CHUNKS and compared(migrated) == 0


def flip_a_byte(deployment, path, index):
    """Flip one byte of the first replica of chunk ``index`` of ``path``;
    return the chunk's placement, whose first holder has the bad copy."""
    answer = deployment.manager.get_chunk_map(path=path)
    placement = list(ChunkMap.from_dict(answer["chunk_map"]))[index]
    chunk_id, victim = placement.ref.chunk_id, placement.benefactors[0]
    found = deployment.benefactors
    nodes = found if isinstance(found, dict) else {b.benefactor_id: b for b in found}
    store = nodes[victim].store
    bad = bytearray(store._chunks[chunk_id])  # MemoryChunkStore internals, deliberately
    bad[77] ^= 0xFF
    store._chunks[chunk_id] = bytes(bad)
    return placement


@KINDS
def test_a_corrupt_replica_of_an_image_chunk_is_caught(build, monkeypatch, data_rpcs):
    """The image names the chunk, but the bytes fetched differ from it: they
    are hashed once, fail, are reported and fall back to the good replica,
    never asked of the bad copy again."""
    hashed = []

    class Recording(Chunk):
        def verify(self):
            hashed.append(bytes(self.data))
            super().verify()

    monkeypatch.setattr(read_path_module, "Chunk", Recording)
    config = fsch_config(replication_level=2,
                         write_semantics=WriteSemantics.PESSIMISTIC)
    with build(benefactor_count=4, config=config) as deployment:
        client = deployment.client("checkpointer")
        image = make_bytes(8 * CHUNK, seed=12)
        client.write_file("/corrupt/image", image)
        placement = flip_a_byte(deployment, "/corrupt/image", 5)
        victim, good = placement.benefactors
        # The reader tries the bad copy first, the good one as a last resort.
        client.replica_scheduler.mark_failed(good)
        del data_rpcs[:]
        reader = client.open_read("/corrupt/image")
        assert reader.read_all() == image
        assert reader.corruptions_reported == 1
        assert deployment.manager.corrupt_replicas() == {
            placement.ref.chunk_id: [victim]}
        # One hash, of the corrupt copy; the good one was only compared.
        assert hashed == [dirty(image, [5])[5 * CHUNK:6 * CHUNK]]
        # Three frames, then the chunk alone from the good replica: 9 chunks
        # in 4 ``get_chunks``, where asking the bad copy again made 10 in 5.
        assert sum(chunks for _method, chunks in data_rpcs) == 9
        assert len(data_rpcs) == 4
        assert client.replica_scheduler.failed_benefactors == {victim}


@KINDS
def test_a_corrupt_only_copy_of_an_image_chunk_fails_the_read(build):
    with build(benefactor_count=4, config=fsch_config()) as deployment:
        client = deployment.client("checkpointer")
        image = make_bytes(8 * CHUNK, seed=13)
        client.write_file("/corrupt/image", image)
        placement = flip_a_byte(deployment, "/corrupt/image", 2)
        with pytest.raises(StdchkError):
            client.read_file("/corrupt/image")
        assert deployment.manager.corrupt_replicas() == {
            placement.ref.chunk_id: placement.benefactors}


def test_an_open_reader_keeps_no_replaced_image_alive():
    """A reader asks its client for the image at each check: once the next
    commit replaces the image, the ``bytes`` it was cut from are free, and
    the reader, still open, hashes what it fetches."""
    pool = StdchkPool(benefactor_count=4, config=fsch_config())
    client = pool.client("checkpointer", read_parallelism=2)
    first = make_bytes(8 * CHUNK, seed=14)
    baseline = sys.getrefcount(first)
    client.write_file("/open/reader", first)
    reader = client.open_read("/open/reader")
    assert reader.read_range(0, CHUNK) == first[:CHUNK]
    gc.collect()
    assert sys.getrefcount(first) == baseline + 8

    client.write_file("/open/reader", dirty(first, [3]))
    gc.collect()
    assert sys.getrefcount(first) == baseline
    assert reader.read_range(CHUNK, 7 * CHUNK) == first[CHUNK:]
    reader.close()
    pool.close()


def test_reads_stay_exact_while_commits_replace_the_image():
    """Readers look the image up at every check while another thread's
    commits replace it: a chunk's id names the same bytes in every image,
    so each read is byte-identical to one of the versions written."""
    pool = StdchkPool(benefactor_count=4, config=fsch_config())
    client = pool.client("checkpointer", push_parallelism=4, read_parallelism=4)
    first = make_bytes(8 * CHUNK, seed=15)
    images = (first, dirty(first, [1, 5]))
    client.write_file("/stress/image", first)
    stop, errors = threading.Event(), []

    def commit_in_turn() -> None:
        try:
            for turn in itertools.count(1):
                if stop.is_set():
                    return
                client.write_file("/stress/image", images[turn % 2])
        except Exception as exc:  # noqa: BLE001 - asserted below
            errors.append(exc)

    writer = threading.Thread(target=commit_in_turn)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    reads = 0
    try:
        writer.start()
        deadline = time.monotonic() + 0.5
        while time.monotonic() < deadline:
            data = client.read_file("/stress/image")
            assert data == images[0] or data == images[1]
            reads += 1
    finally:
        stop.set()
        writer.join(10)
        sys.setswitchinterval(interval)
    assert not writer.is_alive()
    assert errors == [] and reads > 0
    pool.close()
