"""Parallel read — restart latency with ``read_parallelism`` on vs. off, over TCP.

Restart latency after a failure is read-bound (design goal III.B): the
client reassembles a whole checkpoint image from chunks striped across
benefactors.  This benchmark measures the functional implementation
end-to-end over a real localhost TCP transport against benefactors whose
stores model a scavenged disk's per-request service time, and reports
whole-image read throughput with the pipelined parallel reader disabled
(``read_parallelism=1``, the historical one-RPC-at-a-time path) and enabled
(``read_parallelism=4``), plus the streaming ``read_iter`` path at the same
parallelism.

Acceptance gates: the parallel whole-image read must deliver at least 2x the
serial throughput, streaming must deliver at least 0.9x the whole-image
throughput at each parallelism (both fetch the same frames), and the serial
reader's output must be byte-identical to the written image (the parallel
and streamed outputs are verified identical as well).

Results are also dumped to ``BENCH_parallel_read.json`` so CI can archive
them alongside the other ``BENCH_*.json`` artifacts.
"""

from __future__ import annotations

import time

from repro import StdchkConfig, TcpDeployment
from repro.benefactor.chunk_store import DelayedChunkStore
from repro.util.units import MB

from benchmarks.conftest import print_table, write_bench_results

CHUNK = 64 * 1024
CHUNKS = 48
FILE_SIZE = CHUNKS * CHUNK
#: Simulated per-get device service time (a scavenged desktop disk).
GET_DELAY = 0.004
PARALLELISM_LEVELS = (1, 4)
RESULTS_PATH = "BENCH_parallel_read.json"


def make_config() -> StdchkConfig:
    return StdchkConfig(
        chunk_size=CHUNK,
        stripe_width=4,
        replication_level=1,
        push_parallelism=4,  # fast write; the read path is what is measured
    )


def run_reads():
    """Write one image, then time whole-image reads at each parallelism.

    Returns ``(rows, metrics)`` — the timing rows plus the deployment's
    scraped metrics aggregate for the ``BENCH_*.json`` artifact.
    """

    def slow_store(capacity):
        return DelayedChunkStore(capacity, get_delay=GET_DELAY)

    rows = []
    with TcpDeployment(
        benefactor_count=4,
        config=make_config(),
        store_factory=slow_store,
    ) as deployment:
        writer = deployment.client("writer")
        payload = bytes(FILE_SIZE)
        writer.write_file("/restart/image", payload)
        for parallelism in PARALLELISM_LEVELS:
            client = deployment.client("reader", read_parallelism=parallelism)
            start = time.perf_counter()
            image = client.read_file("/restart/image")
            elapsed = time.perf_counter() - start
            assert image == payload, (
                f"read_parallelism={parallelism} returned a different image"
            )
            start = time.perf_counter()
            streamed = b"".join(client.read_file_iter("/restart/image"))
            stream_elapsed = time.perf_counter() - start
            assert streamed == payload
            rows.append({
                "read_parallelism": parallelism,
                "restart_s": elapsed,
                "throughput_MBps": (FILE_SIZE / elapsed) / MB,
                "stream_MBps": (FILE_SIZE / stream_elapsed) / MB,
            })
        metrics = deployment.scrape()["aggregate"]
    return rows, metrics


def test_parallel_read_restart_speedup(benchmark):
    rows, metrics = run_reads()
    speedup = rows[-1]["throughput_MBps"] / rows[0]["throughput_MBps"]
    for row in rows:
        row["speedup"] = row["throughput_MBps"] / rows[0]["throughput_MBps"]
    print_table(
        "Parallel read — whole-image restart throughput (MB/s) over TCP, "
        f"4 ms/get benefactor stores ({CHUNKS} x {CHUNK // 1024} KiB chunks)",
        rows,
        note="read_parallelism=4 vs 1; acceptance gates: >= 2x whole-image read, "
             "stream >= 0.9x whole-image read",
    )
    write_bench_results(
        RESULTS_PATH, "restart_read",
        {"file_size_bytes": FILE_SIZE, "get_delay_s": GET_DELAY, "rows": rows},
        metrics=metrics,
    )
    assert speedup >= 2.0, (
        f"parallel read {rows[-1]['throughput_MBps']:.1f} MB/s is less than "
        f"2x serial {rows[0]['throughput_MBps']:.1f} MB/s"
    )
    for row in rows:
        assert row["stream_MBps"] >= 0.9 * row["throughput_MBps"], (
            f"read_parallelism={row['read_parallelism']}: streaming "
            f"{row['stream_MBps']:.1f} MB/s is less than 0.9x the whole-image "
            f"read {row['throughput_MBps']:.1f} MB/s"
        )
