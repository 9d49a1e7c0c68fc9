"""Memory advice for large buffers the program is about to fill.

A restart image is allocated zero-filled and untouched, then written from
front to back by ``recv_into``.  Faulting it in 4 KiB pages is about half of
a 32 MiB read; asking the kernel for transparent huge pages first lets it
back the image with 2 MiB pages instead (16 faults in place of 8 192).
"""

from __future__ import annotations

import ctypes
import mmap
import sys
from typing import Callable, Optional

#: The size and alignment of an x86-64 / arm64 (4 KiB base page) huge page.
HUGE_PAGE = 2 << 20


def _resolve_madvise() -> Optional[Callable[[int, int, int], int]]:
    """libc's ``madvise``, or ``None`` where huge-page advice does not exist."""
    if not sys.platform.startswith("linux") or not hasattr(mmap, "MADV_HUGEPAGE"):
        return None
    try:
        madvise = ctypes.CDLL(None).madvise
    except (OSError, AttributeError):
        return None
    madvise.argtypes = [ctypes.c_void_p, ctypes.c_size_t, ctypes.c_int]
    madvise.restype = ctypes.c_int
    return madvise


_madvise = _resolve_madvise()


def advise_huge_pages(view: memoryview) -> None:
    """Ask the kernel to back the 2 MiB-aligned interior of ``view`` with huge pages.

    ``view`` must be writable and contiguous (``BytesIO.getbuffer()`` is).
    Advice only: the return value is ignored, and nothing happens off Linux,
    without ``MADV_HUGEPAGE``, or when no aligned 2 MiB extent fits inside the
    buffer.  Takes no export of ``view`` that outlives the call, so
    ``BytesIO.getvalue`` can still hand the buffer over without a copy.
    """
    if _madvise is None or view.nbytes < HUGE_PAGE:
        return
    address = ctypes.addressof(ctypes.c_char.from_buffer(view))
    start = -(-address // HUGE_PAGE) * HUGE_PAGE
    end = (address + view.nbytes) // HUGE_PAGE * HUGE_PAGE
    if end > start:
        _madvise(start, end - start, mmap.MADV_HUGEPAGE)
