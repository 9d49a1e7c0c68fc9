"""Tests for the POSIX-like facade, file handles, metadata cache, null/local FS."""

import pytest

from repro import StdchkConfig, StdchkPool
from repro.exceptions import (
    FileHandleClosedError,
    FileNotFoundInStdchkError,
    InvalidFileModeError,
)
from repro.fs.local_fs import LocalPassthroughFilesystem
from repro.fs.metadata_cache import MetadataCache
from repro.fs.null_fs import NullFilesystem
from repro.util.clock import VirtualClock
from repro.util.units import MiB
from tests.conftest import make_bytes


@pytest.fixture
def fs_pool():
    config = StdchkConfig(
        chunk_size=32 * 1024,
        stripe_width=3,
        replication_level=2,
        incremental_file_size=64 * 1024,
        read_ahead=64 * 1024,
    )
    pool = StdchkPool(benefactor_count=4, benefactor_capacity=64 * MiB, config=config)
    return pool, pool.filesystem()


class TestStdchkFilesystem:
    def test_write_read_round_trip(self, fs_pool):
        _pool, fs = fs_pool
        data = make_bytes(200_000, seed=1)
        fs.write_file("/app/ckpt.N0.T1", data, block_size=4096)
        assert fs.read_file("/app/ckpt.N0.T1") == data

    def test_open_write_close_sequence(self, fs_pool):
        _pool, fs = fs_pool
        handle = fs.open("/app/x", "wb")
        handle.write(b"hello ")
        handle.write(b"world")
        fs.close(handle)
        assert fs.read_file("/app/x") == b"hello world"
        assert fs.open_file_count == 0

    def test_sequential_small_reads(self, fs_pool):
        _pool, fs = fs_pool
        data = make_bytes(150_000, seed=2)
        fs.write_file("/app/seq", data)
        handle = fs.open("/app/seq", "rb")
        pieces = []
        while True:
            piece = handle.read(10_000)
            if not piece:
                break
            pieces.append(piece)
        fs.close(handle)
        assert b"".join(pieces) == data

    def test_read_with_seek(self, fs_pool):
        _pool, fs = fs_pool
        data = make_bytes(100_000, seed=3)
        fs.write_file("/app/seek", data)
        with fs.open("/app/seek", "rb") as handle:
            handle.seek(50_000)
            assert handle.read(100) == data[50_000:50_100]
            handle.seek(-100, 2)
            assert handle.read(100) == data[-100:]
            handle.seek(0)
            assert handle.tell() == 0

    def test_stat_listdir_unlink(self, fs_pool):
        _pool, fs = fs_pool
        fs.write_file("/app/a", b"12345")
        assert fs.stat("/app/a")["size"] == 5
        assert fs.getattr("/app")["type"] == "directory"
        assert fs.readdir("/app") == ["a"]
        assert fs.exists("/app/a")
        fs.unlink("/app/a")
        assert not fs.exists("/app/a")

    def test_mkdir_with_retention(self, fs_pool):
        pool, fs = fs_pool
        fs.mkdir("/managed", retention_kind="automated-replace")
        retention = pool.manager.namespace.get_retention("/managed")
        assert retention is not None

    def test_versions_listed(self, fs_pool):
        _pool, fs = fs_pool
        fs.write_file("/app/v", b"one")
        fs.write_file("/app/v", b"two")
        versions = fs.versions("/app/v")
        assert [v["version"] for v in versions] == [1, 2]

    def test_invalid_mode_rejected(self, fs_pool):
        _pool, fs = fs_pool
        with pytest.raises(InvalidFileModeError):
            fs.open("/app/x", "a+")

    def test_read_missing_file(self, fs_pool):
        _pool, fs = fs_pool
        with pytest.raises(FileNotFoundInStdchkError):
            fs.read_file("/missing")

    def test_write_abort_leaves_no_file(self, fs_pool):
        _pool, fs = fs_pool
        handle = fs.open("/app/aborted", "wb")
        handle.write(b"partial")
        handle.abort()
        with pytest.raises(FileNotFoundInStdchkError):
            fs.read_file("/app/aborted")

    def test_closed_handle_rejects_io(self, fs_pool):
        _pool, fs = fs_pool
        handle = fs.open("/app/h", "wb")
        handle.write(b"x")
        fs.close(handle)
        with pytest.raises(FileHandleClosedError):
            handle.write(b"y")

    def test_write_handle_rejects_read_and_seek(self, fs_pool):
        _pool, fs = fs_pool
        handle = fs.open("/app/w", "wb")
        handle.write(b"abc")
        with pytest.raises(InvalidFileModeError):
            handle.read(1)
        with pytest.raises(InvalidFileModeError):
            handle.seek(0)
        fs.close(handle)

    def test_metadata_cache_answers_repeat_stats(self, fs_pool):
        _pool, fs = fs_pool
        fs.write_file("/app/cached", b"data")
        fs.stat("/app/cached")
        fs.stat("/app/cached")
        fs.listdir("/app")
        fs.listdir("/app")
        stats = fs.cache_stats()
        assert stats["hits"] >= 2

    def test_cache_invalidated_by_writes(self, fs_pool):
        _pool, fs = fs_pool
        fs.write_file("/app/inv", b"one")
        assert fs.stat("/app/inv")["size"] == 3
        fs.write_file("/app/inv", b"longer content")
        assert fs.stat("/app/inv")["size"] == len(b"longer content")


class TestMetadataCache:
    def test_hit_miss_and_expiry(self):
        clock = VirtualClock()
        cache = MetadataCache(ttl=5.0, clock=clock)
        hit, _ = cache.get("stat", "/a")
        assert not hit
        cache.put("stat", "/a", {"size": 1})
        hit, value = cache.get("stat", "/a")
        assert hit and value == {"size": 1}
        clock.advance(6.0)
        hit, _ = cache.get("stat", "/a")
        assert not hit
        assert 0.0 <= cache.hit_ratio <= 1.0

    def test_invalidate_path_and_parent(self):
        cache = MetadataCache(ttl=100.0, clock=VirtualClock())
        cache.put("stat", "/a/b", 1)
        cache.put("listdir", "/a", [1])
        cache.invalidate("/a/b")
        assert not cache.get("stat", "/a/b")[0]
        assert not cache.get("listdir", "/a")[0]

    def test_zero_ttl_disables_cache(self):
        cache = MetadataCache(ttl=0.0)
        cache.put("stat", "/a", 1)
        assert not cache.get("stat", "/a")[0]

    def test_invalidate_all(self):
        cache = MetadataCache(ttl=100.0, clock=VirtualClock())
        cache.put("stat", "/a", 1)
        cache.invalidate()
        assert len(cache) == 0

    def test_negative_ttl_rejected(self):
        with pytest.raises(ValueError):
            MetadataCache(ttl=-1)


class TestAuxiliaryFilesystems:
    def test_null_fs_accepts_and_discards(self):
        fs = NullFilesystem()
        fs.write_file("/null/file", b"x" * 1000, block_size=100)
        assert fs.bytes_accepted == 1000
        assert fs.read_file("/null/file") == b""
        assert fs.calls > 10
        with fs.open("/null/other", "wb") as handle:
            handle.write(b"abc")
        assert not fs.exists("/anything")

    def test_local_passthrough_round_trip(self, tmp_path):
        fs = LocalPassthroughFilesystem(root=str(tmp_path / "root"))
        data = make_bytes(50_000, seed=4)
        fs.write_file("/dir/file.bin", data, block_size=4096)
        assert fs.read_file("/dir/file.bin") == data
        assert fs.stat("/dir/file.bin")["size"] == len(data)
        assert fs.listdir("/dir") == ["file.bin"]
        assert fs.exists("/dir/file.bin")
        fs.unlink("/dir/file.bin")
        assert not fs.exists("/dir/file.bin")
        fs.cleanup()
