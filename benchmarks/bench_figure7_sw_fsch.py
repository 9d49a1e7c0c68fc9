"""Figure 7 — sliding-window writes with and without FsCH incremental
checkpointing.

Paper: 75 successive BLAST/BLCR checkpoint images (~280 MB each, 5-minute
interval) written through the sliding-window interface to four benefactors,
with 1 MB chunks.  With FsCH the storage space and network effort drop by
~24% at the cost of slightly degraded write bandwidth (OAB 116 MB/s, ASB
84 MB/s); with a 256 MB buffer the OAB penalty grows to ~25% because the
whole (small) image fits in the buffer and hashing dominates.

Reproduction: two levels.  (1) The discrete-event model regenerates the
figure's OAB/ASB bars per buffer size using the FsCH dedup ratio measured on
the synthetic trace.  (2) The functional storage system writes a scaled-down
version of the trace through the real FsCH path and reports the measured
storage/network savings.
"""

from __future__ import annotations

import pytest

from repro import StdchkConfig, StdchkPool
from repro.simulation import lan_testbed, simulate_write
from repro.util.config import SimilarityHeuristic, WriteProtocol
from repro.util.units import MB, MiB
from repro.workloads import blast_blcr_trace

from benchmarks.conftest import print_table

BUFFER_SIZES_MB = (64, 128, 256)
IMAGE_SIZE = 280 * 1000 * 1000          # the paper's ~280 MB average image
STRIPE_WIDTH = 4
PAPER = {"reduction_pct": 24.0, "oab_no_fsch": 135.0, "asb_no_fsch": 110.0,
         "oab_fsch": 116.0, "asb_fsch": 84.0}

#: Dedup ratio and hashing throughput measured on the synthetic BLCR trace
#: (FsCH, 1 MB blocks); see bench_table3_similarity_heuristics.
FSCH_DEDUP_RATIO = 0.24
FSCH_HASH_BANDWIDTH = 110 * MB


def simulated_figure():
    rows = []
    for buffer_mb in BUFFER_SIZES_MB:
        row = {"buffer_MB": buffer_mb}
        for label, dedup, hash_bw in (("no-FsCH", 0.0, None),
                                      ("FsCH", FSCH_DEDUP_RATIO, FSCH_HASH_BANDWIDTH)):
            cluster = lan_testbed(benefactor_count=STRIPE_WIDTH)
            result = simulate_write(
                cluster, WriteProtocol.SLIDING_WINDOW, IMAGE_SIZE, STRIPE_WIDTH,
                buffer_size=buffer_mb * MiB, dedup_ratio=dedup, hash_bandwidth=hash_bw,
            )
            row[f"OAB_{label}"] = result.oab_mbps
            row[f"ASB_{label}"] = result.asb_mbps
            row[f"pushed_MB_{label}"] = result.bytes_pushed / MB
        rows.append(row)
    return rows


def functional_savings(image_count=6, image_size=32 * MiB):
    """Write a scaled BLCR trace through the real FsCH storage path."""
    config = StdchkConfig(
        chunk_size=256 * 1024,
        stripe_width=STRIPE_WIDTH,
        replication_level=1,
        similarity_heuristic=SimilarityHeuristic.FSCH,
    )
    pool = StdchkPool(benefactor_count=STRIPE_WIDTH, config=config)
    client = pool.client("blast")
    for index, image in enumerate(
            blast_blcr_trace(5, image_count=image_count, image_size=image_size)):
        client.write_checkpoint(
            name=__import__("repro").CheckpointName("blast", 0, index + 1), data=image
        )
    stats = client.lifetime_stats
    return {
        "bytes_written_MB": stats.bytes_written / MB,
        "bytes_pushed_MB": stats.bytes_pushed / MB,
        "reduction_pct": 100.0 * stats.bytes_deduplicated / stats.bytes_written,
    }


def test_figure7_report(benchmark):
    rows = simulated_figure()
    print_table(
        "Figure 7 — sliding window with/without FsCH (simulated testbed, 280 MB images)",
        rows,
        note=f"paper: ~24% storage/network reduction; OAB {PAPER['oab_fsch']} vs {PAPER['oab_no_fsch']}",
    )
    savings = functional_savings()
    print_table(
        "Figure 7 (functional) — FsCH savings writing a scaled BLCR trace through stdchk",
        [savings],
        note="paper reports ~24% reduction in storage space and network effort",
    )
    for row in rows:
        # FsCH reduces the pushed bytes by the dedup ratio...
        assert row["pushed_MB_FsCH"] == pytest.approx(
            (1 - FSCH_DEDUP_RATIO) * row["pushed_MB_no-FsCH"], rel=0.05
        )
        # ...at some cost in write bandwidth.
        assert row["OAB_FsCH"] <= row["OAB_no-FsCH"]
        assert row["ASB_FsCH"] <= row["ASB_no-FsCH"] * 1.01
    # The relative OAB penalty is largest with the biggest buffer (paper: 25%).
    penalty = [1 - row["OAB_FsCH"] / row["OAB_no-FsCH"] for row in rows]
    assert penalty[-1] >= penalty[0] - 0.01
    # Functional path: savings close to the similarity the trace contains.
    assert savings["reduction_pct"] > 8.0
