"""Parallel chunk push — OAB with ``push_parallelism`` on vs. off, over TCP.

The paper's write protocols are only as fast as the data path lets them be:
section IV.B overlaps checkpoint production with propagation to benefactors.
This benchmark measures the functional implementation end-to-end over a real
localhost TCP transport against benefactors whose stores model a scavenged
disk's per-request service time, and reports the observed application
bandwidth (OAB) of the sliding-window and incremental-write protocols with
the pipelined parallel pusher disabled (``push_parallelism=1``, the
historical one-RPC-at-a-time path) and enabled (``push_parallelism=4``).

Acceptance gates: with four benefactors and a four-wide in-flight window the
parallel path must deliver at least 2x the serial OAB for both SW and IW, and
the observability layer (metrics + traces enabled, the default) must stay
within 5% of the same run with observability globally disabled.

Results are also dumped to ``BENCH_parallel_push.json`` (with the scraped
metrics aggregate) so CI can archive them alongside the other ``BENCH_*.json``
artifacts.
"""

from __future__ import annotations

import time

from repro import StdchkConfig, TcpDeployment
from repro.benefactor.chunk_store import DelayedChunkStore
from repro.obs import set_enabled
from repro.util.config import WriteProtocol
from repro.util.units import MB

from benchmarks.conftest import print_table, write_bench_results

CHUNK = 64 * 1024
CHUNKS = 48
FILE_SIZE = CHUNKS * CHUNK
#: Simulated per-put device service time (a scavenged desktop disk).
PUT_DELAY = 0.004
PARALLELISM_LEVELS = (1, 4)
PROTOCOLS = (
    ("SW", WriteProtocol.SLIDING_WINDOW),
    ("IW", WriteProtocol.INCREMENTAL),
)
RESULTS_PATH = "BENCH_parallel_push.json"
#: Observability overhead gate: instrumented OAB within 5% of disabled.
MAX_OBS_OVERHEAD = 0.05


def make_config(protocol: WriteProtocol) -> StdchkConfig:
    return StdchkConfig(
        chunk_size=CHUNK,
        stripe_width=4,
        replication_level=1,
        incremental_file_size=8 * CHUNK,
        write_protocol=protocol,
    )


def slow_store(capacity):
    return DelayedChunkStore(capacity, put_delay=PUT_DELAY)


def run_once(protocol: WriteProtocol, parallelism: int):
    """One full-file write over TCP; returns (OAB MB/s, metrics aggregate)."""
    with TcpDeployment(
        benefactor_count=4,
        config=make_config(protocol),
        store_factory=slow_store,
    ) as deployment:
        client = deployment.client("bench", push_parallelism=parallelism)
        payload = bytes(FILE_SIZE)
        start = time.perf_counter()
        session = client.write_file(f"/bench/p{parallelism}", payload)
        elapsed = time.perf_counter() - start
        assert session.stats.chunks_pushed == CHUNKS
        assert client.read_file(f"/bench/p{parallelism}") == payload
        metrics = deployment.scrape()["aggregate"]
    return (FILE_SIZE / elapsed) / MB, metrics


def sweep():
    rows = []
    metrics = None
    for label, protocol in PROTOCOLS:
        row = {"protocol": label}
        for parallelism in PARALLELISM_LEVELS:
            row[f"OAB_p{parallelism}"], metrics = run_once(protocol, parallelism)
        row["speedup"] = row["OAB_p4"] / row["OAB_p1"]
        rows.append(row)
    return rows, metrics


def test_parallel_push_oab_speedup(benchmark):
    rows, metrics = sweep()
    print_table(
        "Parallel push — OAB (MB/s) over TCP, 4 ms/put benefactor stores "
        f"({CHUNKS} x {CHUNK // 1024} KiB chunks)",
        rows,
        note="push_parallelism=4 vs 1; acceptance gate: >= 2x for SW and IW",
    )
    write_bench_results(RESULTS_PATH, "oab_speedup", {"rows": rows},
                        metrics=metrics)
    for row in rows:
        assert row["speedup"] >= 2.0, (
            f"{row['protocol']}: parallel OAB {row['OAB_p4']:.1f} MB/s is less "
            f"than 2x serial {row['OAB_p1']:.1f} MB/s"
        )


#: Rounds of the overhead comparison; each writes the file once with
#: telemetry off and once with it on, in alternating order.
OVERHEAD_ROUNDS = 40


def _best_oab_pair(rounds: int = OVERHEAD_ROUNDS) -> tuple[float, float]:
    """Best-of-N OAB of one parallel SW write with telemetry off and on.

    Best-of-N (rather than mean) because the measured quantity is a floor —
    the simulated 4 ms/put device time plus unavoidable path cost — and the
    scheduler noise above it is one-sided.  The runs interleave (off, on,
    then on, off, ...) on one warm deployment, so both sides see the same
    stretch of host load and neither pays for connecting or starting
    threads: a single 3 MiB write lasts about 60 ms, and a fresh
    deployment's setup spreads it by more than the 5 % the gate resolves.
    """
    runs: dict[bool, list[float]] = {False: [], True: []}
    with TcpDeployment(
        benefactor_count=4,
        config=make_config(WriteProtocol.SLIDING_WINDOW),
        store_factory=slow_store,
    ) as deployment:
        client = deployment.client("bench", push_parallelism=4)
        payload = bytes(FILE_SIZE)
        client.write_file("/bench/obs-warmup", payload)
        for round_number in range(rounds):
            order = (False, True) if round_number % 2 == 0 else (True, False)
            for enabled in order:
                prior = set_enabled(enabled)
                try:
                    start = time.perf_counter()
                    client.write_file(f"/bench/obs{round_number}-{enabled}", payload)
                    elapsed = time.perf_counter() - start
                finally:
                    set_enabled(prior)
                runs[enabled].append((FILE_SIZE / elapsed) / MB)
    return max(runs[False]), max(runs[True])


def test_observability_overhead_within_gate(benchmark):
    baseline, instrumented = _best_oab_pair()
    overhead_pct = (baseline - instrumented) / baseline * 100.0
    rows = [
        {"observability": "disabled", "OAB_MBps": baseline, "overhead_pct": 0.0},
        {"observability": "enabled", "OAB_MBps": instrumented,
         "overhead_pct": overhead_pct},
    ]
    print_table(
        "Observability overhead — parallel SW push over TCP "
        f"(best of {OVERHEAD_ROUNDS}, off/on interleaved)",
        rows,
        note=f"acceptance gate: metrics+traces within "
             f"{MAX_OBS_OVERHEAD:.0%} of disabled",
    )
    write_bench_results(
        RESULTS_PATH, "observability_overhead",
        {"baseline_mbps": baseline, "instrumented_mbps": instrumented,
         "overhead_pct": overhead_pct},
    )
    assert instrumented >= (1.0 - MAX_OBS_OVERHEAD) * baseline, (
        f"observability overhead too high: {instrumented:.1f} MB/s vs "
        f"{baseline:.1f} MB/s with it disabled"
    )
