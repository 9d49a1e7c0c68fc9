"""Restart images fault in 2 MiB pages: ``read_all`` advises its image for THP.

``StripedReader.read_all`` asks the kernel for transparent huge pages under the
aligned 2 MiB interior of its freshly allocated image before the first fetch
(:func:`repro.util.memory.advise_huge_pages`).  The first tests replace libc's
``madvise`` with a recorder, so what is advised, and when nothing is, is exact
on any host.  The counting tests need Linux with THP not ``[never]``: they read
the kernel's own counters (minor faults, ``/proc/self/maps``), so they show the
advice takes effect and that advising heap ranges does not pile up mappings.
"""

from __future__ import annotations

import ctypes
import gc
import mmap
import resource
from pathlib import Path

import pytest

from repro import StdchkConfig, StdchkPool, TcpDeployment
from repro.util import memory
from repro.util.memory import HUGE_PAGE, advise_huge_pages
from tests.conftest import make_bytes

MIB = 1 << 20
LARGE = 32 * MIB + 12_345
THP_ENABLED = Path("/sys/kernel/mm/transparent_hugepage/enabled")


def address_of(image: bytes) -> int:
    """Where the bytes of ``image`` live (a ``c_char_p`` points into it)."""
    return ctypes.cast(ctypes.c_char_p(image), ctypes.c_void_p).value


def thp_mode() -> str:
    try:
        text = THP_ENABLED.read_text()
    except OSError:
        return "missing"
    return text[text.index("[") + 1:text.index("]")]


@pytest.fixture(scope="module", params=["tcp", "inprocess"])
def deployment(request):
    config = StdchkConfig(replication_level=1)
    if request.param == "tcp":
        with TcpDeployment(benefactor_count=4, config=config) as tcp:
            yield tcp
    else:
        with StdchkPool(benefactor_count=4, config=config) as pool:
            yield pool


@pytest.fixture(scope="module")
def written(deployment):
    """A client of ``deployment`` and the 512 KiB and 32 MiB + 12 345 B images it wrote."""
    client = deployment.client("thp", read_parallelism=2)
    images = {}
    for size in (512 * 1024, LARGE):
        path = f"/thp/{size}"
        images[path] = make_bytes(size, seed=size % 251)
        client.write_file(path, images[path])
    return client, images


@pytest.fixture
def calls(monkeypatch):
    recorded = []

    def recorder(start, length, advice):
        recorded.append((start, length, advice))
        return 0

    monkeypatch.setattr(memory, "_madvise", recorder)
    return recorded


class TestWhatIsAdvised:
    def test_an_image_below_one_aligned_extent_makes_no_call(self, written, calls):
        client, images = written
        path = f"/thp/{512 * 1024}"
        assert client.read_file(path) == images[path]
        assert calls == []

    def test_a_large_image_is_advised_once_on_its_aligned_interior(self, written, calls):
        client, images = written
        path = f"/thp/{LARGE}"
        image = client.read_file(path)
        assert image == images[path]
        assert len(calls) == 1
        start, length, advice = calls[0]
        assert advice == mmap.MADV_HUGEPAGE
        assert start % HUGE_PAGE == 0 and length % HUGE_PAGE == 0
        # ``getvalue`` hands over the very buffer that was advised.
        base = address_of(image)
        assert base <= start and start + length <= base + LARGE
        assert length >= LARGE - 4 * MIB

    def test_without_madvise_the_read_is_unchanged(self, written, monkeypatch):
        client, images = written
        monkeypatch.setattr(memory, "_madvise", None)
        for path, data in images.items():
            assert client.read_file(path) == data


class TestTheHelper:
    def test_no_export_outlives_the_call(self, calls):
        """``BytesIO.getvalue`` copies while any export is alive; resizing fails."""
        buffer = bytearray(3 * HUGE_PAGE)
        view = memoryview(buffer)
        advise_huge_pages(view)
        view.release()
        buffer.append(0)  # BufferError if a ctypes object still held the buffer
        assert len(calls) == 1


@pytest.mark.skipif(thp_mode() in ("never", "missing"),
                    reason=f"no transparent huge pages (THP mode: {thp_mode()})")
class TestRestartImagesFaultInHugePages:
    def test_a_32_mib_read_takes_fewer_than_1024_minor_faults(self, deployment):
        """8 192 4 KiB pages without the advice; 16 huge pages plus the
        unaligned head and tail (≈ 520) with it."""
        client = deployment.client("faults", read_parallelism=2)
        data = make_bytes(32 * MIB, seed=3)
        client.write_file("/thp/faults", data)
        client.read_file("/thp/faults")  # sockets, threads, imports
        faults = []
        for _ in range(3):  # a compaction stall can fall back to 4 KiB pages once
            gc.collect()
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            image = client.read_file("/thp/faults")
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
            assert image == data
            del image
        assert min(faults) < 1024, f"minor faults per 32 MiB read: {faults}"

    def test_advice_on_reused_ranges_does_not_pile_up_mappings(self):
        """Advice on a heap range can split its mapping; reuse must not split it
        without bound.  Each of 60 rounds reads images of 3, 4, … 9 and 33 MiB."""
        sizes = [n * MIB for n in range(3, 10)] + [33 * MIB]
        with StdchkPool(benefactor_count=4, config=StdchkConfig(replication_level=1)) as pool:
            client = pool.client("maps", read_parallelism=2)
            for size in sizes:
                client.write_file(f"/thp/maps/{size}", make_bytes(size, seed=size % 251))
            for size in sizes:  # warm: every size has been allocated and freed once
                client.read_file(f"/thp/maps/{size}")
            gc.collect()
            mappings = len(Path("/proc/self/maps").read_text().splitlines())
            for _ in range(60):
                for size in sizes:
                    assert len(client.read_file(f"/thp/maps/{size}")) == size
            gc.collect()
            grown = len(Path("/proc/self/maps").read_text().splitlines()) - mappings
        assert grown <= 8, f"/proc/self/maps grew by {grown} lines over 60 rounds"
