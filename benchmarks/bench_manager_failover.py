"""Manager failover — time-to-promote and the stall a client actually sees.

The replicated metadata plane is only worth its shipping overhead if a
primary death is (a) survivable and (b) short.  Two gated measurements over
a real localhost TCP deployment with one primary and one hot standby:

1. *Kill-primary-mid-storm*: a client writes a stream of checkpoint images
   with ``push_parallelism=4`` while the primary dies answering one of the
   write's manager RPCs (``FaultyTransport.lose_answer`` around the
   client's transport) and the standby is promoted.  Gates: promotion completes
   within ``PROMOTE_GATE_S`` and the client-visible stall (the extra time
   the interrupted write takes, and the retry layer's own stall histogram)
   stays under ``STALL_GATE_S`` — far below the 30 s failover deadline.
2. *Shipping overhead*: OAB of the same write workload with zero vs. one
   standby (synchronous per-record shipping).  Loose gate: replication must
   not halve the write path.

Results land in ``BENCH_manager_failover.json`` (with the deployment's
aggregate metrics block) so CI archives the failover trajectory.
"""

from __future__ import annotations

import time

from repro import StdchkConfig, TcpDeployment
from repro.client.proxy import ClientProxy
from repro.transport.faulty import FaultyTransport
from repro.util.units import MB

from benchmarks.conftest import print_table, write_bench_results

CHUNK = 64 * 1024
FILE_SIZE = 8 * CHUNK  # 512 KiB per checkpoint image
FILES = 6
RESULTS_PATH = "BENCH_manager_failover.json"

#: Gates.  Promotion is an in-memory role flip plus benefactor re-pointing;
#: the client stall adds re-discovery probes and one backoff round at most.
PROMOTE_GATE_S = 2.0
STALL_GATE_S = 5.0


def failover_config(**overrides) -> StdchkConfig:
    defaults = dict(
        chunk_size=CHUNK,
        stripe_width=2,
        replication_level=1,
        push_parallelism=4,
        ack_batch_size=1,
        failover_backoff_base=0.02,
        failover_backoff_max=0.5,
        failover_deadline=30.0,
    )
    defaults.update(overrides)
    return StdchkConfig(**defaults)


def _histogram_stats(snapshot: dict, name: str):
    family = snapshot["metrics"].get(name)
    if not family:
        return 0, 0.0
    count = sum(entry.get("count", 0) for entry in family["series"])
    total = sum(entry.get("sum", 0.0) for entry in family["series"])
    return count, total


def measure_failover():
    """Kill the primary mid-write-storm; report promote time and stall."""
    with TcpDeployment(benefactor_count=3, config=failover_config()) as deployment:
        deployment.add_standby("bench-standby")
        # The client alone goes through the fault rules; the deployment's
        # own transport is not wrapped.
        faulty = FaultyTransport(deployment.transport)
        client = ClientProxy(
            "bench-survivor", faulty, deployment.manager_address,
            config=deployment.config, clock=deployment.clock,
            standby_addresses=list(deployment.standby_endpoints().values()))
        payload = bytes(FILE_SIZE)

        # Warm baseline: same write with no failure, for the stall delta.
        start = time.perf_counter()
        client.write_file("/bench/ck.N0.T0", payload)
        baseline_write_s = time.perf_counter() - start

        promote_s = []

        def promote() -> None:
            t0 = time.perf_counter()
            deployment.promote_standby()
            promote_s.append(time.perf_counter() - t0)

        # The primary dies answering the interrupted write's third manager
        # RPC (create_session, then the first two put_chunks_ack).
        faulty.lose_answer(deployment.manager_address, "put_chunks_ack",
                           nth=2, then=promote)
        start = time.perf_counter()
        client.write_file("/bench/ck.N0.T1", payload)
        interrupted_write_s = time.perf_counter() - start

        # The storm continues against the promoted primary.
        start = time.perf_counter()
        for index in range(2, FILES):
            client.write_file(f"/bench/ck.N0.T{index}", payload)
        post_failover_s = time.perf_counter() - start

        for index in range(FILES):
            assert client.read_file(f"/bench/ck.N0.T{index}") == payload

        snap = client.obs.snapshot()
        stall_count, stall_sum = _histogram_stats(
            snap, "client_failover_stall_seconds"
        )
        retries = sum(
            entry.get("value", 0)
            for entry in snap["metrics"]
            .get("client_failover_retries_total", {"series": []})["series"]
        )
        client.close()
        metrics = deployment.scrape()["aggregate"]
        return {
            "baseline_write_s": baseline_write_s,
            "interrupted_write_s": interrupted_write_s,
            "write_stall_s": max(0.0, interrupted_write_s - baseline_write_s),
            "time_to_promote_s": promote_s[0] if promote_s else None,
            "client_stall_histogram_s": stall_sum,
            "client_stalls": stall_count,
            "client_retries": retries,
            "post_failover_writes_s": post_failover_s,
        }, metrics


def measure_shipping_overhead(standbys: int) -> float:
    """OAB (MB/s) of the write storm with ``standbys`` hot standbys."""
    with TcpDeployment(benefactor_count=3, config=failover_config()) as deployment:
        for index in range(standbys):
            deployment.add_standby(f"overhead-standby-{index}")
        client = deployment.client("bench-writer")
        payload = bytes(FILE_SIZE)
        start = time.perf_counter()
        for index in range(FILES):
            client.write_file(f"/bench/ov.N0.T{index}", payload)
        elapsed = time.perf_counter() - start
        return (FILES * FILE_SIZE / elapsed) / MB


def test_kill_primary_mid_storm_gates(benchmark):
    results, metrics = measure_failover()
    print_table(
        "Manager failover under a parallel write storm (TCP, 1 standby)",
        [{
            "time_to_promote_s": results["time_to_promote_s"],
            "write_stall_s": results["write_stall_s"],
            "stall_hist_s": results["client_stall_histogram_s"],
            "retries": results["client_retries"],
        }],
        note=(f"gates: promote <= {PROMOTE_GATE_S}s, "
              f"client-visible stall <= {STALL_GATE_S}s"),
    )
    results["promote_gate_s"] = PROMOTE_GATE_S
    results["stall_gate_s"] = STALL_GATE_S
    write_bench_results(RESULTS_PATH, "failover", results, metrics=metrics)

    assert results["time_to_promote_s"] is not None, "kill never fired"
    assert results["time_to_promote_s"] <= PROMOTE_GATE_S, (
        f"promotion took {results['time_to_promote_s']:.2f}s "
        f"(gate {PROMOTE_GATE_S}s)"
    )
    assert results["write_stall_s"] <= STALL_GATE_S, (
        f"client-visible stall {results['write_stall_s']:.2f}s "
        f"(gate {STALL_GATE_S}s)"
    )
    assert results["client_stall_histogram_s"] <= STALL_GATE_S
    assert results["client_retries"] >= 1


def test_log_shipping_overhead(benchmark):
    baseline = measure_shipping_overhead(0)
    shipped = measure_shipping_overhead(1)
    overhead = (baseline - shipped) / baseline * 100.0
    print_table(
        "Log-shipping overhead on the write path (TCP)",
        [
            {"standbys": 0, "OAB_MBps": baseline, "overhead_pct": 0.0},
            {"standbys": 1, "OAB_MBps": shipped, "overhead_pct": overhead},
        ],
        note="synchronous per-record shipping (ship_batch_records=1)",
    )
    write_bench_results(RESULTS_PATH, "shipping_overhead", {
        "baseline_mbps": baseline,
        "one_standby_mbps": shipped,
        "overhead_pct": overhead,
    })
    # Loose gate: synchronous shipping must not halve the write path.
    assert shipped >= 0.5 * baseline, (
        f"log shipping overhead too high: {shipped:.1f} MB/s vs "
        f"baseline {baseline:.1f} MB/s"
    )
