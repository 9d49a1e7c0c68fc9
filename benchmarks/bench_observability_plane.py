"""The live observability plane — overhead gate and detection latency.

Two questions the plane must answer before it ships on by default:

* **What does it cost?**  A parallel sliding-window push over TCP with the
  full plane running (per-node HTTP telemetry servers being scraped, the
  cluster health monitor probing every node) must stay within 5% OAB of the
  same write with the plane absent.  The instrumentation itself (metrics,
  traces) is already gated by ``bench_parallel_push``; this bench gates the
  *serving* side on top.
* **What does it cost per operation?**  Reported, not gated: ops/s of a
  ``meta_storm``-shaped loop (4 KiB write/stat/read per file, then the
  deletes) over TCP with observability on and off.  The push above waits
  4 ms per chunk on its device, so it cannot see per-operation cost; in
  this loop per-operation cost is all there is.
* **How fast does it notice?**  Wall-clock latency from killing a node
  (benefactor, then primary) to the monitor declaring it ``dead``, with
  aggressive-but-real detector knobs.  The paper's desktop-grid setting
  (section I: volatile scavenged nodes) is exactly the population such a
  detector watches.

Results land in ``BENCH_observability_plane.json`` with the standard
``metrics`` block, plus a ``cluster_status.json`` snapshot artifact of the
monitored deployment for CI to archive.
"""

from __future__ import annotations

import contextlib
import json
import random
import statistics
import threading
import time
import urllib.request

from repro import StdchkConfig, TcpDeployment
from repro.benefactor.chunk_store import DelayedChunkStore
from repro.obs import set_enabled
from repro.util.units import KiB, MB

from benchmarks.conftest import print_table, write_bench_results

CHUNK = 64 * 1024
CHUNKS = 48
FILE_SIZE = CHUNKS * CHUNK
PUT_DELAY = 0.004
RESULTS_PATH = "BENCH_observability_plane.json"
STATUS_PATH = "cluster_status.json"
#: Acceptance gate: full plane (HTTP servers + health monitor) within 5%.
MAX_PLANE_OVERHEAD = 0.05
#: Detector knobs for the detection-latency measurements.
PROBE_INTERVAL = 0.1
SUSPECT_AFTER = 0.3
DEAD_AFTER = 1.0
#: The small-operation loop: files per cycle, timed cycles per run, and
#: alternating on/off pairs of runs.
STORM_FILES = 100
STORM_CYCLES = 3
STORM_PAIRS = 5
#: Alternating rounds of the overhead gate; each writes the file once with
#: the plane absent and once with it running.
PLANE_ROUNDS = 10


def make_config(with_detector_knobs: bool = False) -> StdchkConfig:
    knobs = dict(
        chunk_size=CHUNK,
        stripe_width=4,
        replication_level=1,
        push_parallelism=4,
    )
    if with_detector_knobs:
        knobs.update(
            health_probe_interval=PROBE_INTERVAL,
            health_suspect_after=SUSPECT_AFTER,
            health_dead_after=DEAD_AFTER,
        )
    return StdchkConfig(**knobs)


@contextlib.contextmanager
def live_plane(deployment):
    """The full plane, running while the block runs: every node serves its
    HTTP telemetry endpoint, the health monitor probes the whole deployment
    on its background thread, and a scraper thread hits ``/metrics`` — the
    realistic worst case of running the plane in production.  The block
    starts once the monitor has probed, so it sees the plane's steady state.
    """
    endpoints = deployment.start_obs_http()
    monitor = deployment.health_monitor().start()
    stop = threading.Event()

    def scrape_loop():
        while not stop.is_set():
            for base in endpoints.values():
                try:
                    urllib.request.urlopen(base + "/metrics", timeout=1).read()
                except OSError:
                    pass
            stop.wait(PROBE_INTERVAL)

    scraper = threading.Thread(target=scrape_loop, daemon=True)
    scraper.start()
    try:
        deadline = time.perf_counter() + 5.0
        while monitor.probes_total == 0 and time.perf_counter() < deadline:
            time.sleep(PROBE_INTERVAL / 4)
        yield
    finally:
        stop.set()
        scraper.join(timeout=5)
        monitor.stop()
        deployment.stop_obs_http()


def best_oab_pair(rounds: int = PLANE_ROUNDS) -> tuple:
    """Best-of-N OAB of one parallel push over TCP with the plane absent and
    running; returns (off MB/s, on MB/s, metrics aggregate).

    Best-of-N because the measured quantity is a floor (the simulated 4 ms
    per put plus unavoidable path cost) and scheduler noise above it is
    one-sided.  The rounds alternate (off, on, then on, off, ...) on one warm
    deployment, so both sides see the same stretch of host load and neither
    pays for connecting or starting threads; each side taken on fresh
    deployments one after the other reads the host's drift as overhead.
    The plane starts and stops outside the timed write.
    """

    def slow_store(capacity):
        return DelayedChunkStore(capacity, put_delay=PUT_DELAY)

    runs = {False: [], True: []}
    with TcpDeployment(
        benefactor_count=4,
        config=make_config(with_detector_knobs=True),
        store_factory=slow_store,
    ) as deployment:
        client = deployment.client("bench-plane")
        payload = bytes(FILE_SIZE)
        client.write_file("/bench/plane-warmup", payload)
        for round_number in range(rounds):
            for plane in ((False, True) if round_number % 2 == 0 else (True, False)):
                with live_plane(deployment) if plane else contextlib.nullcontext():
                    start = time.perf_counter()
                    client.write_file(f"/bench/plane{round_number}-{plane}", payload)
                    elapsed = time.perf_counter() - start
                runs[plane].append((FILE_SIZE / elapsed) / MB)
        assert client.read_file("/bench/plane0-True") == payload
        metrics = deployment.scrape()["aggregate"]
    return max(runs[False]), max(runs[True]), metrics


def test_plane_overhead_within_gate(benchmark):
    baseline, with_plane, metrics = best_oab_pair()
    overhead_pct = (baseline - with_plane) / baseline * 100.0
    rows = [
        {"plane": "off", "OAB_MBps": baseline, "overhead_pct": 0.0},
        {"plane": "on (HTTP + monitor + scraper)", "OAB_MBps": with_plane,
         "overhead_pct": overhead_pct},
    ]
    print_table(
        "Observability plane overhead — parallel SW push over TCP "
        f"(best of {PLANE_ROUNDS}, off/on interleaved)",
        rows,
        note=f"acceptance gate: live plane within {MAX_PLANE_OVERHEAD:.0%}",
    )
    write_bench_results(RESULTS_PATH, "plane_overhead",
                        {"baseline_mbps": baseline,
                         "with_plane_mbps": with_plane,
                         "overhead_pct": overhead_pct},
                        metrics=metrics)
    assert with_plane >= (1.0 - MAX_PLANE_OVERHEAD) * baseline, (
        f"observability plane overhead too high: {with_plane:.1f} MB/s vs "
        f"{baseline:.1f} MB/s without it"
    )


def run_storm(enabled: bool) -> float:
    """Operations per second of the small-operation loop, telemetry on or off.

    One client and four benefactors (stripe 2, one replica) as in
    ``benchmarks/perf``'s ``meta_storm``, minus its second client and its
    journal; every cycle writes, stats and reads back each file, then
    deletes them all.  One untimed cycle warms pools and connections.
    """
    payloads = [random.Random(index).randbytes(4 * KiB)
                for index in range(STORM_FILES)]
    prior = set_enabled(enabled)
    try:
        with TcpDeployment(
            benefactor_count=4,
            config=StdchkConfig(stripe_width=2, replication_level=1),
        ) as deployment:
            client = deployment.client("bench-storm", push_parallelism=2,
                                       read_parallelism=2)

            def cycle() -> int:
                for index, payload in enumerate(payloads):
                    path = f"/storm/f{index}"
                    client.write_file(path, payload)
                    client.stat(path)
                    assert client.read_file(path) == payload
                for index in range(STORM_FILES):
                    client.delete(f"/storm/f{index}")
                return 4 * STORM_FILES

            cycle()
            start = time.perf_counter()
            operations = sum(cycle() for _ in range(STORM_CYCLES))
            return operations / (time.perf_counter() - start)
    finally:
        set_enabled(prior)


def test_small_operation_overhead_reported(benchmark):
    runs = {True: [], False: []}
    for pair in range(STORM_PAIRS):
        for enabled in ((False, True) if pair % 2 == 0 else (True, False)):
            runs[enabled].append(run_storm(enabled))
    off = statistics.median(runs[False])
    on = statistics.median(runs[True])
    overhead_pct = (off - on) / off * 100.0
    rows = [
        {"observability": "disabled", "ops_per_s": off, "overhead_pct": 0.0},
        {"observability": "enabled", "ops_per_s": on,
         "overhead_pct": overhead_pct},
    ]
    print_table(
        "Observability cost per small operation — 4 KiB write/stat/read/delete "
        f"over TCP (median of {STORM_PAIRS} alternating runs each)",
        rows,
        note="reported, not gated: what is left is per-RPC and per-chunk metrics",
    )
    write_bench_results(RESULTS_PATH, "small_operation_overhead", {
        "disabled_ops_per_s": off,
        "enabled_ops_per_s": on,
        "overhead_pct": overhead_pct,
        "runs": {"disabled": runs[False], "enabled": runs[True]},
    })


def measure_detection(kill) -> float:
    """Wall-clock seconds from ``kill(deployment)`` to the dead verdict."""
    with TcpDeployment(
        benefactor_count=2, config=make_config(with_detector_knobs=True)
    ) as deployment:
        deployment.add_standby("bench-standby")
        deployment.start_obs_http()
        monitor = deployment.health_monitor()
        monitor.start()
        try:
            deadline = time.perf_counter() + 5.0
            while monitor.probes_total == 0 and time.perf_counter() < deadline:
                time.sleep(PROBE_INTERVAL / 2)
            victim = kill(deployment)
            started = time.perf_counter()
            budget = 10 * (DEAD_AFTER + PROBE_INTERVAL)
            while time.perf_counter() - started < budget:
                if monitor.state_of(victim) == "dead":
                    break
                time.sleep(PROBE_INTERVAL / 4)
            detection = time.perf_counter() - started
            assert monitor.state_of(victim) == "dead", (
                f"{victim} not declared dead within {budget:.1f}s"
            )
            status = monitor.cluster_status()
        finally:
            monitor.stop()
    with open(STATUS_PATH, "w", encoding="utf-8") as handle:
        json.dump(status, handle, indent=2, sort_keys=True)
    return detection


def kill_benefactor(deployment) -> str:
    deployment.kill_benefactor("tcp-benefactor-00")
    return "tcp-benefactor-00"


def kill_primary(deployment) -> str:
    deployment.kill_primary()
    return "manager"


def test_detection_latency(benchmark):
    benefactor_latency = measure_detection(kill_benefactor)
    primary_latency = measure_detection(kill_primary)
    floor = DEAD_AFTER
    rows = [
        {"victim": "benefactor", "detection_s": benefactor_latency,
         "floor_s": floor},
        {"victim": "primary", "detection_s": primary_latency,
         "floor_s": floor},
    ]
    print_table(
        "Failure-detection latency — killed node to dead verdict "
        f"(probe {PROBE_INTERVAL}s, dead after {DEAD_AFTER}s of silence)",
        rows,
        note="floor is dead_after; detection adds at most scheduling slack",
    )
    write_bench_results(RESULTS_PATH, "detection_latency", {
        "benefactor_seconds": benefactor_latency,
        "primary_seconds": primary_latency,
        "probe_interval": PROBE_INTERVAL,
        "dead_after": DEAD_AFTER,
    })
    # Both must be the same order as the configured detector, not minutes.
    for latency in (benefactor_latency, primary_latency):
        assert latency <= 10 * (DEAD_AFTER + PROBE_INTERVAL)
