"""Figures 2 & 3 — OAB and ASB vs. stripe width for the three write protocols.

Paper (GigE LAN testbed, 1 GB file): sliding-window and incremental writes
reach ~110 MB/s OAB at stripe width ≥ 2; complete-local-write tracks the
FUSE-to-local rate (~84 MB/s); baselines: local I/O 86.2 MB/s, NFS 24.8 MB/s.
For ASB, sliding window saturates the client GigE with two benefactors,
incremental writes sit below it (local temp-file reads), and complete local
writes are worst because local spooling and the network push serialize.

Reproduction: the discrete-event testbed model is exercised at full scale
(1 GiB files); rows are printed next to the paper's reference values.
"""

from __future__ import annotations

import time

import pytest

from repro import StdchkConfig, StdchkPool
from repro.benefactor.chunk_store import DelayedChunkStore
from repro.simulation import lan_testbed, simulate_write
from repro.simulation.cluster import PAPER_LAN_TESTBED
from repro.util.config import WriteProtocol
from repro.util.units import GiB, MB, MiB

from benchmarks.conftest import print_table

STRIPE_WIDTHS = (1, 2, 4, 8)
FILE_SIZE = 1 * GiB
BUFFER = 64 * MiB

#: Paper reference values (MB/s), read off Figures 2 and 3.
PAPER_OAB = {"CLW": 84, "IW": 108, "SW": 110, "local": 86.2, "FUSE": 84.5, "NFS": 24.8}
PAPER_ASB = {"CLW": 43, "IW": 85, "SW": 110}


def run_protocol(protocol: WriteProtocol, stripe: int):
    cluster = lan_testbed(benefactor_count=max(STRIPE_WIDTHS))
    return simulate_write(cluster, protocol, FILE_SIZE, stripe, buffer_size=BUFFER)


def sweep():
    rows = []
    for stripe in STRIPE_WIDTHS:
        row = {"stripe_width": stripe}
        for label, protocol in (("CLW", WriteProtocol.COMPLETE_LOCAL),
                                ("IW", WriteProtocol.INCREMENTAL),
                                ("SW", WriteProtocol.SLIDING_WINDOW)):
            result = run_protocol(protocol, stripe)
            row[f"{label}_OAB"] = result.oab_mbps
            row[f"{label}_ASB"] = result.asb_mbps
        rows.append(row)
    return rows


def test_figure2_3_report(benchmark):
    rows = sweep()
    profile = PAPER_LAN_TESTBED
    baselines = {
        "local_io_MBps": profile.local_io_bandwidth / MB,
        "fuse_local_MBps": profile.fuse_local_bandwidth / MB,
        "nfs_MBps": profile.nfs_bandwidth / MB,
    }
    print_table(
        "Figure 2 & 3 — OAB/ASB (MB/s) vs stripe width (1 GiB file, GigE testbed)",
        rows,
        note=f"baselines: {baselines}; paper SW ~110 OAB / ~110 ASB at width>=2",
    )

    by_width = {row["stripe_width"]: row for row in rows}
    # Shape assertions, mirroring the paper's claims.
    # (1) SW/IW beat local I/O and NFS baselines at stripe >= 2 (OAB).
    assert by_width[2]["SW_OAB"] > baselines["local_io_MBps"]
    assert by_width[2]["IW_OAB"] > baselines["nfs_MBps"] * 3
    # (2) CLW's OAB tracks the FUSE-to-local rate.
    assert by_width[4]["CLW_OAB"] == pytest.approx(baselines["fuse_local_MBps"], rel=0.05)
    # (3) SW saturates the GigE client with two benefactors (ASB plateau).
    assert by_width[2]["SW_ASB"] == pytest.approx(by_width[8]["SW_ASB"], rel=0.05)
    assert by_width[2]["SW_ASB"] == pytest.approx(PAPER_ASB["SW"], rel=0.15)
    # (4) ASB ordering: SW > IW > CLW.
    for width in (2, 4, 8):
        row = by_width[width]
        assert row["SW_ASB"] > row["IW_ASB"] > row["CLW_ASB"]


# ---------------------------------------------------------------------------
# Functional data path: the OAB gap with the parallel pusher on vs. off
# ---------------------------------------------------------------------------
FUNC_CHUNK = 64 * 1024
FUNC_CHUNKS = 32


def run_functional(protocol: WriteProtocol, parallelism: int) -> float:
    """OAB (MB/s) of one functional in-process write on 3 ms/put stores."""
    config = StdchkConfig(
        chunk_size=FUNC_CHUNK,
        stripe_width=4,
        replication_level=1,
        incremental_file_size=8 * FUNC_CHUNK,
        write_protocol=protocol,
        push_parallelism=parallelism,
    )
    pool = StdchkPool(
        benefactor_count=4,
        config=config,
        store_factory=lambda capacity: DelayedChunkStore(capacity, put_delay=0.003),
    )
    client = pool.client("func-bench")
    payload = bytes(FUNC_CHUNKS * FUNC_CHUNK)
    start = time.perf_counter()
    client.write_file(f"/func/{protocol.value}-p{parallelism}", payload)
    elapsed = time.perf_counter() - start
    return (len(payload) / elapsed) / MB


def test_functional_parallelism_gap(benchmark):
    """The same write protocols on the *functional* system: the pipelined
    pusher must widen the OAB of SW and IW measurably (Section IV.B)."""
    rows = []
    for label, protocol in (("SW", WriteProtocol.SLIDING_WINDOW),
                            ("IW", WriteProtocol.INCREMENTAL)):
        row = {"protocol": label}
        for parallelism in (1, 4):
            row[f"OAB_p{parallelism}"] = run_functional(protocol, parallelism)
        row["speedup"] = row["OAB_p4"] / row["OAB_p1"]
        rows.append(row)
    print_table(
        "Figure 2 companion — functional OAB (MB/s), parallel pusher off/on "
        "(3 ms/put stores, in-process transport)",
        rows,
        note="push_parallelism=4 vs 1 on the real ChunkPusher data path",
    )
    for row in rows:
        assert row["speedup"] >= 2.0
