"""File handles for the stdchk FS facade.

A handle adapts POSIX-style small reads/writes to the storage system's
megabyte-chunk granularity (section IV.E): writes are buffered and streamed
into the underlying write session.  Reads come from the reader's spans, each
a plan of frames fetched like a whole-file read: before every read the handle
asks for read-ahead over ``read_ahead`` bytes from its position, the range it
reads included, which the reader plans as a span for pool tasks unless it
already holds those chunks.  The read then waits only for the frames holding
its own chunks, so the rest of the span keeps arriving while the application
consumes them, and a sequential scan fetches every chunk exactly once.
"""

from __future__ import annotations

from typing import Optional

from repro.client.read_path import StripedReader
from repro.client.write_protocols import WriteSession
from repro.exceptions import FileHandleClosedError, InvalidFileModeError


class StdchkFileHandle:
    """A single open file: either write-only or read-only (like the paper's
    checkpoint workload, files are written sequentially once and read back
    sequentially on restart)."""

    def __init__(
        self,
        path: str,
        mode: str,
        write_session: Optional[WriteSession] = None,
        reader: Optional[StripedReader] = None,
        read_ahead: int = 0,
    ) -> None:
        if mode not in ("rb", "wb"):
            raise InvalidFileModeError(
                f"unsupported mode {mode!r}: the facade supports 'rb' and 'wb'"
            )
        if mode == "wb" and write_session is None:
            raise ValueError("write mode requires a write session")
        if mode == "rb" and reader is None:
            raise ValueError("read mode requires a reader")
        self.path = path
        self.mode = mode
        self._write_session = write_session
        self._reader = reader
        self._read_ahead = max(read_ahead, 0)
        self._position = 0
        self._closed = False

    # -- state ----------------------------------------------------------------
    def _require_open(self) -> None:
        if self._closed:
            raise FileHandleClosedError(f"file handle for {self.path} is closed")

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def writable(self) -> bool:
        return self.mode == "wb"

    @property
    def readable(self) -> bool:
        return self.mode == "rb"

    def tell(self) -> int:
        return self._position

    # -- writing ------------------------------------------------------------------
    def write(self, data: bytes) -> int:
        """Accept application bytes (any granularity)."""
        self._require_open()
        if not self.writable:
            raise InvalidFileModeError(f"{self.path} is open read-only")
        written = self._write_session.write(data)
        self._position += written
        return written

    # -- reading --------------------------------------------------------------------
    def read(self, size: int = -1) -> bytes:
        """Read ``size`` bytes from the current position (-1 = to EOF).

        First asks the reader to read ahead over ``[position, position +
        max(size, read_ahead))`` — chunks it already holds or has pending
        are not asked for again — then reads the range from the spans it
        holds, waiting only for the frames that hold this range's chunks.
        """
        self._require_open()
        if not self.readable:
            raise InvalidFileModeError(f"{self.path} is open write-only")
        if size is None or size < 0:
            size = max(self._reader.size - self._position, 0)
        if size == 0:
            return b""
        if self._read_ahead > 0:
            self._reader.prefetch(self._position, max(size, self._read_ahead))
        data = self._reader.read_range(self._position, size)
        self._position += len(data)
        return data

    def seek(self, offset: int, whence: int = 0) -> int:
        """Reposition the read cursor (only meaningful for read handles)."""
        self._require_open()
        if whence == 0:
            target = offset
        elif whence == 1:
            target = self._position + offset
        elif whence == 2:
            end = self._reader.size if self.readable else self._position
            target = end + offset
        else:
            raise ValueError(f"invalid whence: {whence}")
        if target < 0:
            raise ValueError("cannot seek before the start of the file")
        if self.writable and target != self._position:
            raise InvalidFileModeError(
                "write handles are append-only (checkpoints are written sequentially)"
            )
        self._position = target
        return self._position

    # -- closing ------------------------------------------------------------------------
    def close(self) -> None:
        """Close the handle; for writes this commits the chunk-map."""
        if self._closed:
            return
        if self.writable and self._write_session is not None:
            self._write_session.close()
        if self._reader is not None:
            self._reader.close()
        self._closed = True

    def abort(self) -> None:
        """Abandon a write without committing (the file version never appears)."""
        if self._closed:
            return
        if self.writable and self._write_session is not None:
            self._write_session.abort()
        if self._reader is not None:
            self._reader.close()
        self._closed = True

    def __enter__(self) -> "StdchkFileHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        elif self.writable:
            self.abort()
        else:
            self.close()
