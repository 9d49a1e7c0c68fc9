"""The measuring loop: one workload, one process, closed loop.

The rules implemented here are the benchmark's definition, not tuning
(README.md, "Noise"): a constant live footprint (what a block wrote is
deleted and garbage-collected, untimed, before the next block), every timing
metric a median of per-block or per-call values, and self-checks that fail
the run rather than publish a number measured under the wrong conditions.

This module imports ``repro`` and must therefore only be imported after
``__main__`` pinned the process to one CPU.
"""

from __future__ import annotations

import gc
import hashlib
import os
import random
import shutil
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.manager.garbage_collector import GarbageCollector

from benchmarks.perf.stats import quartiles

MIB = 1 << 20
GIB = 1 << 30

#: Live chunk-store bytes and process RSS may never exceed these (README,
#: "Noise": past ~1.1 GiB of live bytes the VM backs fresh pages lazily and
#: the write rate collapses mid-run).  RSS peaks near 460 MiB on the 32 MiB
#: workloads with glibc's per-thread arenas; the cap leaves room for that.
STORE_CAP_BYTES = 128 * MIB
RSS_CAP_BYTES = 640 * MIB

#: Set-up (inputs + deployment + warm-up) is repeated and its median
#: reported, so one cold start cannot move ``setup_s``.
SETUP_REPEATS = 3

class SelfCheckError(RuntimeError):
    """The run broke one of the benchmark's own rules; no result is printed."""


def rss_bytes() -> int:
    with open("/proc/self/statm", encoding="ascii") as handle:
        return int(handle.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def peak_rss_bytes() -> int:
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024
    return 0


def calibrate(seed: int, repeats: int = 5) -> float:
    """MB/s of SHA-1 + copy of a 32 MiB buffer: the host's speed, not the program's."""
    buffer = random.Random(seed).randbytes(32 * MIB)
    rates = []
    for _ in range(repeats):
        start = time.perf_counter()
        hashlib.sha1(buffer).digest()
        bytes(bytearray(buffer))
        rates.append(len(buffer) / 1e6 / (time.perf_counter() - start))
    return statistics.median(rates)


@dataclass
class Sink:
    """What one client thread observed during one timed block."""

    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    bytes_written: int = 0
    bytes_read: int = 0
    bytes_pushed: int = 0
    bytes_deduplicated: int = 0
    chunks_pushed: int = 0
    chunks_deduplicated: int = 0
    write_mbps: List[float] = field(default_factory=list)
    asb_mbps: List[float] = field(default_factory=list)
    read_mbps: List[float] = field(default_factory=list)
    latency_ms: Dict[str, List[float]] = field(
        default_factory=lambda: {"write_file": [], "read_file": [], "meta_op": []}
    )
    #: ``(expected, got)`` pairs compared after the block, outside the timing.
    readbacks: List[Tuple[bytes, bytes]] = field(default_factory=list)

    def _call(self, kind: str, fn: Callable, *args):
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # noqa: BLE001 - any failed op is counted, the run goes on
            self.failed += 1
            self.errors.append(f"{fn.__name__}{args[:1]}: {exc!r}")
            return None, 0.0
        elapsed = time.perf_counter() - start
        self.latency_ms[kind].append(elapsed * 1e3)
        return result, elapsed

    def write(self, client, path: str, data: bytes) -> None:
        session, elapsed = self._call("write_file", client.write_file, path, data)
        if session is None:
            return
        stats = session.stats
        self.bytes_written += stats.bytes_written
        self.bytes_pushed += stats.bytes_pushed
        self.bytes_deduplicated += stats.bytes_deduplicated
        self.chunks_pushed += stats.chunks_pushed
        self.chunks_deduplicated += stats.chunks_deduplicated
        self.write_mbps.append(len(data) / 1e6 / elapsed)
        self.asb_mbps.append(len(data) / 1e6 / session.storage_duration)

    def read(self, client, path: str, expected: bytes) -> None:
        data, elapsed = self._call("read_file", client.read_file, path)
        if data is None:
            return
        self.bytes_read += len(data)
        self.read_mbps.append(len(data) / 1e6 / elapsed)
        self.readbacks.append((expected, data))

    def meta(self, fn: Callable, path: str) -> None:
        self._call("meta_op", fn, path)


@dataclass
class BlockSample:
    """Per-block values; every reported timing is a median over these."""

    cpu_s: float
    ops: int
    clients: int
    bytes_written: int
    bytes_read: int
    bytes_pushed: int
    store_bytes_in: int
    store_bytes_out: int
    store_puts: int
    store_gets: int
    window: Tuple[float, float]

    @property
    def wall_s(self) -> float:
        return self.window[1] - self.window[0]

    @property
    def user_bytes(self) -> int:
        return self.bytes_written + self.bytes_read


@dataclass
class Totals:
    """Everything a measurement phase accumulated."""

    blocks: List[BlockSample] = field(default_factory=list)
    sinks: List[Sink] = field(default_factory=list)
    gc_round_ms: List[float] = field(default_factory=list)
    gc_collected: List[int] = field(default_factory=list)
    prune_ms: List[float] = field(default_factory=list)
    journal_bytes_per_op: List[float] = field(default_factory=list)
    fsyncs_per_commit: List[float] = field(default_factory=list)
    chunks_fetched: int = 0
    replica_fallbacks: int = 0

    def merged(self, attr: str) -> List[float]:
        return [value for sink in self.sinks for value in getattr(sink, attr)]

    def total(self, attr: str) -> int:
        return sum(getattr(sink, attr) for sink in self.sinks)

    def latencies(self, kind: str) -> List[float]:
        return [v for sink in self.sinks for v in sink.latency_ms[kind]]


class Harness:
    """Drives one built workload: timed block, untimed clean-up, checks."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.deployment = workload.deployment
        self.collector = GarbageCollector(self.deployment.manager,
                                          self.deployment.transport)
        #: "idle" | "timed" | "maintenance"; a timed block may only start
        #: from idle, so GC or pruning can never overlap one.
        self._phase = "idle"
        self.footprint_peak = 0
        self.threads_max = 0
        self.open_fds_max = 0
        #: Set for the traced part of a traced run: spans are recorded only
        #: inside timed sections and folded into the profile block by block.
        self.profile = None

    # -- phases ---------------------------------------------------------------
    def _enter(self, phase: str) -> None:
        if phase != "idle" and self._phase != "idle":
            raise SelfCheckError(
                f"cannot start a {phase} section while {self._phase} is active"
            )
        self._phase = phase

    def _store_counters(self) -> List[int]:
        stats = [benefactor.stats for benefactor in self.deployment.benefactors]
        return [sum(s[key] for s in stats)
                for key in ("bytes_in", "bytes_out", "puts", "gets")]

    def _check_footprint(self) -> None:
        stored = sum(b.store.used_space for b in self.deployment.benefactors)
        self.footprint_peak = max(self.footprint_peak, stored)
        if stored > STORE_CAP_BYTES:
            raise SelfCheckError(
                f"chunk stores hold {stored / MIB:.0f} MiB, cap is "
                f"{STORE_CAP_BYTES // MIB} MiB"
            )
        rss = rss_bytes()
        if rss > RSS_CAP_BYTES:
            raise SelfCheckError(
                f"process RSS is {rss / MIB:.0f} MiB, cap is {RSS_CAP_BYTES // MIB} MiB"
            )
        self.threads_max = max(self.threads_max, threading.active_count())
        self.open_fds_max = max(self.open_fds_max, len(os.listdir("/proc/self/fd")))

    # -- one block ------------------------------------------------------------
    def run_block(self, totals: Optional[Totals]) -> None:
        """One timed block, its read-back check, then untimed clean-up.

        ``totals=None`` is a warm-up block: same path, nothing kept.
        """
        persistence = self.deployment.manager.persistence
        journal_before = persistence.journal_bytes() if persistence else 0
        fsyncs_before = persistence.stats()["fsyncs"] if persistence else 0
        counters_before = self._store_counters()
        self.workload.prepare()

        self._enter("timed")
        if self.profile is not None:
            self.profile.recorder.enabled = True
        cpu_start = time.process_time()
        start = time.perf_counter()
        sinks = self.workload.block()
        end = time.perf_counter()
        cpu = time.process_time() - cpu_start
        if self.profile is not None:
            self.profile.recorder.enabled = False
        self._enter("idle")

        for sink in sinks:
            for expected, got in sink.readbacks:
                if got != expected:
                    sink.failed += 1
                    sink.errors.append("read-back is not byte-identical")
            sink.readbacks.clear()
        self._check_footprint()
        counters = [b - a for a, b in zip(counters_before, self._store_counters())]
        sample = BlockSample(
            cpu_s=cpu,
            ops=sum(s.attempted - s.failed for s in sinks),
            clients=len(sinks),
            bytes_written=sum(s.bytes_written for s in sinks),
            bytes_read=sum(s.bytes_read for s in sinks),
            bytes_pushed=sum(s.bytes_pushed for s in sinks),
            store_bytes_in=counters[0], store_bytes_out=counters[1],
            store_puts=counters[2], store_gets=counters[3],
            window=(start, end),
        )
        if self.profile is not None:
            self.profile.on_block(sample)

        if totals is not None:
            totals.blocks.append(sample)
            totals.sinks.extend(sinks)
            if persistence is not None:
                written = persistence.journal_bytes() - journal_before
                if written > 0:  # a snapshot rotated the segment otherwise
                    totals.journal_bytes_per_op.append(written / max(sample.ops, 1))
                commits = sum(len(s.write_mbps) for s in sinks)
                totals.fsyncs_per_commit.append(
                    (persistence.stats()["fsyncs"] - fsyncs_before) / max(commits, 1)
                )
        self._maintain(totals)

    def _maintain(self, totals: Optional[Totals]) -> None:
        """Delete/prune what the block wrote, two GC rounds, ``gc.collect``."""
        self._enter("maintenance")
        start = time.perf_counter()
        pruned = self.workload.cleanup()
        prune_s = time.perf_counter() - start
        rounds = []
        collected = 0
        for _ in range(2):  # the manager's seen-twice rule needs two rounds
            start = time.perf_counter()
            collected += self.collector.run_once().chunks_collected
            rounds.append((time.perf_counter() - start) * 1e3)
        gc.collect()
        self._enter("idle")
        if totals is not None:
            totals.gc_round_ms.extend(rounds)
            totals.gc_collected.append(collected)
            if pruned:
                totals.prune_ms.append(prune_s * 1e3)

    def measure(self, seconds: float) -> Totals:
        """Run blocks until ``seconds`` of wall time passed (at least 4)."""
        totals = Totals()

        def client_counter(name: str) -> int:
            return int(sum(c.obs.counter(name).value for c in self.workload.clients))

        fetched = client_counter("client_chunks_fetched_total")
        fallbacks = client_counter("client_replica_fallbacks_total")
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or len(totals.blocks) < 4:
            self.run_block(totals)
        totals.chunks_fetched = client_counter("client_chunks_fetched_total") - fetched
        totals.replica_fallbacks = (
            client_counter("client_replica_fallbacks_total") - fallbacks)
        return totals


def end_to_end(totals: Totals, setup_s: float) -> Dict[str, dict]:
    """The seven end-to-end metrics, each with quartiles and sample count."""
    def timing(values: Sequence[float], unit: str) -> dict:
        q1, median, q3 = quartiles(values)
        return {"value": median, "unit": unit, "q1": q1, "q3": q3, "n": len(values)}

    blocks = totals.blocks
    written = totals.total("bytes_written")
    stored = sum(b.store_bytes_in for b in blocks)
    return {
        "write_oab_mbps": timing(totals.merged("write_mbps"), "MB/s"),
        "restart_read_mbps": timing(totals.merged("read_mbps"), "MB/s"),
        "ops_per_s": timing([b.ops / b.wall_s for b in blocks], "1/s"),
        "cpu_s_per_gib": timing(
            [b.cpu_s / (b.user_bytes / GIB) for b in blocks], "s/GiB"),
        "net_bytes_per_user_byte": {
            "value": totals.total("bytes_pushed") / written, "unit": "B/B"},
        "stored_bytes_per_user_byte": {"value": stored / written, "unit": "B/B"},
        "setup_s": {"value": setup_s, "unit": "s"},
    }


def self_check(workload, totals: Totals, metrics: Dict[str, dict]) -> None:
    failed = totals.total("failed")
    if failed:
        errors = [e for sink in totals.sinks for e in sink.errors][:5]
        raise SelfCheckError(f"{failed} operations failed on a healthy cluster: {errors}")
    expected = workload.net_bytes_per_user_byte
    observed = metrics["net_bytes_per_user_byte"]["value"]
    if observed != expected:
        raise SelfCheckError(
            f"net_bytes_per_user_byte is {observed!r}, "
            f"{workload.name} is defined to give {expected}"
        )


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path
