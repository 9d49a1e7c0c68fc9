"""Figure 8 — aggregate throughput under heavy load (pool scalability).

Paper: 20 benefactors, 7 clients; each client writes 100 files of 100 MB
(≈70 GB total, ~2800 manager transactions), clients starting 10 s apart.
The pool sustains ~280 MB/s aggregate throughput, limited by the testbed's
networking configuration.

Reproduction: two levels.  (1) The discrete-event model runs the full-scale
workload with a shared switching fabric calibrated to the paper's observed
ceiling and reports the sustained/peak aggregate throughput plus the
time series.  (2) The functional in-process system runs a scaled-down copy
of the same workload and verifies the manager-transaction accounting
(four transactions per write).
"""

from __future__ import annotations

import pytest

from repro import StdchkConfig, StdchkPool
from repro.simulation import lan_testbed, simulate_scalability_run
from repro.util.units import MB, MiB

from benchmarks.conftest import print_table

CLIENTS = 7
FILES_PER_CLIENT = 100
FILE_SIZE = 100 * MB
BENEFACTORS = 20
STRIPE_WIDTH = 4
#: The paper attributes the ~280 MB/s plateau to its network configuration;
#: the simulated fabric is calibrated to that ceiling (2.5 Gb/s usable).
FABRIC_BANDWIDTH = 312 * MB
PAPER = {"sustained_MBps": 280.0, "total_GB": 70.0, "manager_transactions": 2800}


def run_simulation(files_per_client=FILES_PER_CLIENT):
    cluster = lan_testbed(
        benefactor_count=BENEFACTORS,
        client_count=CLIENTS,
        fabric_bandwidth=FABRIC_BANDWIDTH,
    )
    return simulate_scalability_run(
        cluster,
        client_count=CLIENTS,
        files_per_client=files_per_client,
        file_size=FILE_SIZE,
        stripe_width=STRIPE_WIDTH,
        client_start_interval=10.0,
        sample_interval=5.0,
    )


def run_functional(files_per_client=4, file_size=2 * MiB):
    """Scaled-down functional run to check the transaction accounting."""
    config = StdchkConfig(chunk_size=256 * 1024, stripe_width=STRIPE_WIDTH,
                          replication_level=1, incremental_file_size=1 * MiB)
    pool = StdchkPool(benefactor_count=BENEFACTORS, config=config)
    baseline = pool.manager.transactions
    for client_index in range(CLIENTS):
        client = pool.client(f"client-{client_index}")
        for file_index in range(files_per_client):
            data = bytes(file_size)
            client.write_file(f"/load/c{client_index}-f{file_index}", data)
    writes = CLIENTS * files_per_client
    return {
        "writes": writes,
        "manager_transactions": pool.manager.transactions - baseline,
        "transactions_per_write": (pool.manager.transactions - baseline) / writes,
        "stored_GB": pool.stored_bytes() / 1e9,
    }


def test_figure8_report(benchmark):
    outcome = run_simulation()
    timeline_preview = [
        {"time_s": time, "aggregate_MBps": rate / MB}
        for time, rate in outcome.timeline[:: max(len(outcome.timeline) // 12, 1)]
    ]
    print_table(
        "Figure 8 — aggregate stdchk throughput under load (time series preview)",
        timeline_preview,
        note=(f"sustained {outcome.sustained_throughput / MB:.0f} MB/s, "
              f"peak {outcome.peak_throughput / MB:.0f} MB/s, "
              f"{outcome.total_bytes / 1e9:.0f} GB in {outcome.duration:.0f} s "
              f"(paper: ~{PAPER['sustained_MBps']:.0f} MB/s sustained, 70 GB)"),
    )
    functional = run_functional()
    print_table(
        "Figure 8 (functional) — manager transaction accounting (scaled workload)",
        [functional],
        note="paper: 2800 manager transactions for 700 writes (four per write)",
    )
    assert outcome.total_bytes == CLIENTS * FILES_PER_CLIENT * FILE_SIZE
    # Sustained aggregate throughput lands near the paper's plateau.
    assert outcome.sustained_throughput / MB == pytest.approx(
        PAPER["sustained_MBps"], rel=0.15
    )
    assert outcome.peak_throughput <= FABRIC_BANDWIDTH * 1.05
    # The functional system issues a handful of manager transactions per
    # write (session + commit + registration refreshes), independent of size.
    assert functional["transactions_per_write"] <= 6
