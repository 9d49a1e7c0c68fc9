"""Figures 4 & 5 — sliding-window OAB/ASB vs. buffer size and stripe width.

Paper: the sliding-window interface saturates the GigE link with two
benefactors regardless of buffer size (ASB flat at ~110 MB/s), while the
observed application bandwidth grows with the amount of memory given to the
write buffer (the application dumps into memory faster than the network
drains).

Reproduction note: the paper does not state the file size used; we write
4 GiB so that even the 512 MB buffer holds only a fraction of the file, which
is what keeps the paper's OAB in the 100–140 MB/s band.
"""

from __future__ import annotations

import time

import pytest

from repro import StdchkConfig, StdchkPool
from repro.benefactor.chunk_store import DelayedChunkStore
from repro.simulation import lan_testbed, simulate_write
from repro.util.config import WriteProtocol
from repro.util.units import GiB, MB, MiB

from benchmarks.conftest import print_table

BUFFER_SIZES_MB = (32, 64, 128, 256, 512)
STRIPE_WIDTHS = (1, 2, 4, 8)
FILE_SIZE = 4 * GiB


def sweep():
    rows = []
    for buffer_mb in BUFFER_SIZES_MB:
        row = {"buffer_MB": buffer_mb}
        for stripe in STRIPE_WIDTHS:
            cluster = lan_testbed(benefactor_count=max(STRIPE_WIDTHS))
            result = simulate_write(
                cluster, WriteProtocol.SLIDING_WINDOW, FILE_SIZE, stripe,
                buffer_size=buffer_mb * MiB,
            )
            row[f"OAB_w{stripe}"] = result.oab_mbps
            row[f"ASB_w{stripe}"] = result.asb_mbps
        rows.append(row)
    return rows


def test_figure4_5_report(benchmark):
    rows = sweep()
    print_table(
        "Figures 4 & 5 — sliding-window OAB/ASB (MB/s) vs buffer size (4 GiB file)",
        rows,
        note="paper: ASB flat ~110 at width>=2; OAB grows with the buffer",
    )
    by_buffer = {row["buffer_MB"]: row for row in rows}
    # ASB is insensitive to the buffer size and saturates at two benefactors.
    assert by_buffer[32]["ASB_w2"] == pytest.approx(by_buffer[512]["ASB_w2"], rel=0.05)
    assert by_buffer[64]["ASB_w2"] == pytest.approx(by_buffer[64]["ASB_w8"], rel=0.05)
    # OAB grows monotonically with the buffer at a fixed stripe width.
    oabs = [by_buffer[size]["OAB_w4"] for size in BUFFER_SIZES_MB]
    assert all(later >= earlier for earlier, later in zip(oabs, oabs[1:]))
    # A single benefactor stays disk-bound (~65 MB/s) for every buffer size.
    assert by_buffer[512]["ASB_w1"] == pytest.approx(65, rel=0.15)


# ---------------------------------------------------------------------------
# Functional data path: in-flight window scaling of the sliding window
# ---------------------------------------------------------------------------
FUNC_CHUNK = 64 * 1024
FUNC_CHUNKS = 32


def run_sliding_window(parallelism: int) -> float:
    """OAB (MB/s) of one functional SW write on 3 ms/put stores."""
    config = StdchkConfig(
        chunk_size=FUNC_CHUNK,
        stripe_width=4,
        replication_level=1,
        push_parallelism=parallelism,
    )
    pool = StdchkPool(
        benefactor_count=4,
        config=config,
        store_factory=lambda capacity: DelayedChunkStore(capacity, put_delay=0.003),
    )
    client = pool.client("sw-bench")
    payload = bytes(FUNC_CHUNKS * FUNC_CHUNK)
    start = time.perf_counter()
    client.write_file(f"/sw/p{parallelism}", payload)
    elapsed = time.perf_counter() - start
    return (len(payload) / elapsed) / MB


def test_functional_sliding_window_parallelism_sweep(benchmark):
    """Figure 4 companion: the sliding window's functional OAB grows with the
    in-flight window (``push_parallelism``) until the stripe is saturated."""
    rows = [
        {"push_parallelism": parallelism, "OAB": run_sliding_window(parallelism)}
        for parallelism in (1, 2, 4)
    ]
    print_table(
        "Figure 4 companion — functional SW OAB (MB/s) vs push_parallelism "
        "(3 ms/put stores, stripe width 4)",
        rows,
        note="the in-flight window replaces the paper's memory buffer sweep",
    )
    by_level = {row["push_parallelism"]: row["OAB"] for row in rows}
    assert by_level[2] > by_level[1]
    assert by_level[4] > by_level[2]
    assert by_level[4] >= 2.0 * by_level[1]
