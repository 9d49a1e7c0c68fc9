"""The stdchk file-system facade.

``StdchkFilesystem`` is the reproduction's stand-in for the FUSE mount: every
call an application (or a checkpointing library) would issue against
``/stdchk`` maps to a method here.  It delegates data movement to the client
proxy, adapts write granularity, performs read-ahead and caches metadata so
most ``readdir``/``getattr`` calls are answered locally.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from repro.client.proxy import ClientProxy
from repro.exceptions import (
    FileNotFoundInStdchkError,
    InvalidFileModeError,
)
from repro.fs.file_handle import StdchkFileHandle
from repro.fs.metadata_cache import MetadataCache
from repro.util.config import StdchkConfig


class StdchkFilesystem:
    """POSIX-like interface over a stdchk pool ("mounted under /stdchk")."""

    def __init__(self, client: ClientProxy, config: Optional[StdchkConfig] = None) -> None:
        self.client = client
        self.config = config if config is not None else client.config
        self.metadata_cache = MetadataCache(clock=client.clock)
        #: Open handles by id, mirroring a kernel file-descriptor table.
        self._open_handles: Dict[int, StdchkFileHandle] = {}
        self._next_fd = 3  # 0-2 are conventionally stdin/stdout/stderr

    # -- open/close -------------------------------------------------------------
    def open(self, path: str, mode: str = "rb",
             expected_size: int = 0) -> StdchkFileHandle:
        """Open ``path`` for sequential reading (``rb``) or writing (``wb``)."""
        if mode in ("r", "rt", "rb"):
            reader = self.client.open_read(path)
            handle = StdchkFileHandle(
                path=path,
                mode="rb",
                reader=reader,
                read_ahead=self.config.read_ahead,
            )
        elif mode in ("w", "wt", "wb"):
            session = self.client.open_write(path, expected_size=expected_size)
            handle = StdchkFileHandle(path=path, mode="wb", write_session=session)
            self.metadata_cache.invalidate(path)
        else:
            raise InvalidFileModeError(f"unsupported mode {mode!r}")
        fd = self._next_fd
        self._next_fd += 1
        self._open_handles[fd] = handle
        handle.fd = fd  # type: ignore[attr-defined]
        return handle

    def close(self, handle: StdchkFileHandle) -> None:
        handle.close()
        fd = getattr(handle, "fd", None)
        if fd is not None:
            self._open_handles.pop(fd, None)
        if handle.writable:
            self.metadata_cache.invalidate(handle.path)

    @property
    def open_file_count(self) -> int:
        return sum(1 for h in self._open_handles.values() if not h.closed)

    # -- whole-file convenience ----------------------------------------------------
    def write_file(self, path: str, data: bytes, block_size: int = 0) -> None:
        """Write ``data`` to ``path`` (open + sequential writes + close).

        Blocks are views of ``data``, which the session copies, so no FsCH
        image keeps them (``ChunkPusher.feed``).
        """
        handle = self.open(path, "wb", expected_size=len(data))
        try:
            if block_size and block_size > 0:
                with memoryview(data) as view:
                    for start in range(0, len(data), block_size):
                        handle.write(view[start:start + block_size])
            else:
                handle.write(data)
        except Exception:
            handle.abort()
            raise
        finally:
            if not handle.closed:
                self.close(handle)

    def read_file(self, path: str) -> bytes:
        handle = self.open(path, "rb")
        try:
            return handle.read()
        finally:
            self.close(handle)

    def stream_file(self, path: str) -> Iterator[bytes]:
        """Stream ``path`` chunk-by-chunk without buffering it whole.

        The generator's memory footprint stays bounded by two spans of
        ``read_parallelism`` transfer units — the right call for
        restart-sized images piped straight into the restarting process.
        """
        return self.client.read_file_iter(path)

    # -- namespace calls (getattr / readdir / unlink / mkdir) ------------------------
    def stat(self, path: str) -> Dict[str, object]:
        hit, value = self.metadata_cache.get("stat", path)
        if hit:
            return value
        value = self.client.stat(path)
        self.metadata_cache.put("stat", path, value)
        return value

    def getattr(self, path: str) -> Dict[str, object]:
        """Alias matching the FUSE callback name."""
        return self.stat(path)

    def listdir(self, path: str) -> List[str]:
        hit, value = self.metadata_cache.get("listdir", path)
        if hit:
            return value
        value = self.client.listdir(path)
        self.metadata_cache.put("listdir", path, value)
        return value

    def readdir(self, path: str) -> List[str]:
        """Alias matching the FUSE callback name."""
        return self.listdir(path)

    def exists(self, path: str) -> bool:
        try:
            self.stat(path)
            return True
        except FileNotFoundInStdchkError:
            return False
        except Exception:
            return self.client.exists(path)

    def mkdir(self, path: str, retention_kind: Optional[str] = None,
              purge_after: float = 3600.0, keep_last: int = 1) -> None:
        self.client.mkdir(
            path,
            retention_kind=retention_kind,
            purge_after=purge_after,
            keep_last=keep_last,
        )
        self.metadata_cache.invalidate(path)

    def unlink(self, path: str) -> None:
        self.client.delete(path)
        self.metadata_cache.invalidate(path)

    def versions(self, path: str) -> List[Dict[str, object]]:
        """Version history of a file (stdchk-specific extension)."""
        return self.client.versions(path)

    # -- diagnostics --------------------------------------------------------------------
    def cache_stats(self) -> Dict[str, float]:
        cache = self.metadata_cache
        return {
            "hits": cache.hits,
            "misses": cache.misses,
            "hit_ratio": cache.hit_ratio,
            "entries": len(cache),
        }
