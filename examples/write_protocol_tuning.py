#!/usr/bin/env python3
"""Write-protocol and durability tuning on the simulated desktop-grid testbed.

Sweeps the three write protocols (complete local write, incremental write,
sliding window), the stripe width and the write semantics on the
discrete-event model of the paper's GigE testbed, and prints the observed
application bandwidth (OAB) and achieved storage bandwidth (ASB) the way the
paper's Figures 2-5 report them.  Use it to pick a configuration for your
own deployment tradeoff between checkpoint latency and durability.

Run with:  python examples/write_protocol_tuning.py
"""

from __future__ import annotations

from repro import StdchkConfig, StdchkPool, WriteProtocol, WriteSemantics
from repro.simulation import lan_testbed, simulate_write
from repro.util.units import GiB, MiB, MB


def simulated_sweep() -> None:
    print("simulated GigE testbed, 1 GiB checkpoint image")
    print(f"{'protocol':<22}{'stripe':>7}{'OAB MB/s':>10}{'ASB MB/s':>10}")
    for protocol in (WriteProtocol.COMPLETE_LOCAL, WriteProtocol.INCREMENTAL,
                     WriteProtocol.SLIDING_WINDOW):
        for stripe in (1, 2, 4, 8):
            cluster = lan_testbed(benefactor_count=8)
            result = simulate_write(cluster, protocol, 1 * GiB, stripe,
                                    buffer_size=64 * MiB)
            print(f"{protocol.value:<22}{stripe:>7}{result.oab_mbps:>10.1f}"
                  f"{result.asb_mbps:>10.1f}")
    print()


def semantics_comparison() -> None:
    print("functional pool, 16 MiB image, replication level 2")
    for semantics in (WriteSemantics.OPTIMISTIC, WriteSemantics.PESSIMISTIC):
        config = StdchkConfig(chunk_size=1 * MiB, stripe_width=4,
                              replication_level=2, write_semantics=semantics)
        pool = StdchkPool(benefactor_count=6, config=config)
        client = pool.client("app")
        session = client.write_file("/job/ckpt.N0.T1", bytes(16 * MiB))
        print(f"  {semantics.value:<12} client pushed {session.stats.bytes_pushed // MiB} MiB "
              f"(replication debt handled in background: "
              f"{bool(pool.manager.under_replicated_count())})")
        pool.heal()
        print(f"  {semantics.value:<12} after background replication: "
              f"{pool.stored_bytes() // MiB} MiB physically stored")


def main() -> None:
    simulated_sweep()
    semantics_comparison()
    print("\nguidance: sliding-window + optimistic semantics maximises the rate at")
    print("which the application returns to useful computation; pessimistic")
    print("semantics buys immediate durability at the cost of pushing every replica")
    print("synchronously (the paper's section IV tradeoff).")


if __name__ == "__main__":
    main()
