"""Manager durability — journal overhead on the write path, recovery time.

Two questions the durability subsystem must answer quantitatively:

1. *What does the journal cost writers?*  OAB of a full checkpoint write
   against benefactor stores with a realistic per-put device time, with
   journaling disabled vs. enabled under each fsync policy.  Acceptance
   gate: ``fsync_policy="commit"`` stays within 10% of the no-journal
   baseline (the paper's low-overhead write path must survive durability).
2. *How long does recovery take?*  Snapshot + replay time for journals of
   increasing length, and the effect of snapshot compaction.

Results are also dumped to ``BENCH_manager_recovery.json`` so CI can archive
the perf trajectory across PRs.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time

from repro import StdchkConfig, StdchkPool
from repro.benefactor.chunk_store import DelayedChunkStore
from repro.manager.manager import MetadataManager
from repro.transport.inprocess import InProcessTransport
from repro.util.clock import VirtualClock
from repro.util.units import MB, MiB

from benchmarks.conftest import print_table, write_bench_results

CHUNK = 64 * 1024
FILE_SIZE = 16 * CHUNK  # 1 MiB per checkpoint image
FILES = 8
#: Simulated per-put device service time (a scavenged desktop disk).
PUT_DELAY = 0.002
RESULTS_PATH = "BENCH_manager_recovery.json"


def write_config(journal_dir, fsync_policy):
    return StdchkConfig(
        chunk_size=CHUNK,
        stripe_width=2,
        replication_level=1,
        journal_dir=journal_dir,
        journal_fsync_policy=fsync_policy,
    )


def measure_write_path(fsync_policy):
    """OAB (MB/s), fsync count, and metrics aggregate for FILES image writes.

    ``fsync_policy=None`` disables the journal entirely.
    """
    tmp = tempfile.mkdtemp(prefix="bench-journal-")
    journal_dir = None if fsync_policy is None else os.path.join(tmp, "journal")
    try:
        pool = StdchkPool(
            benefactor_count=4,
            benefactor_capacity=1024 * MiB,
            config=write_config(journal_dir, fsync_policy or "commit"),
            store_factory=lambda capacity: DelayedChunkStore(
                capacity, put_delay=PUT_DELAY
            ),
        )
        client = pool.client("bench")
        payload = bytes(FILE_SIZE)
        start = time.perf_counter()
        for index in range(FILES):
            client.write_file(f"/bench/ck.N0.T{index}", payload)
        elapsed = time.perf_counter() - start
        metrics = pool.metrics()["aggregate"]
        fsyncs = 0
        if pool.manager.persistence is not None:
            fsyncs = pool.manager.persistence.stats()["fsyncs"]
            pool.manager.close_persistence()
        return (FILES * FILE_SIZE / elapsed) / MB, fsyncs, metrics
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def build_journal(journal_dir, commits, snapshot_every):
    """Drive ``commits`` session+commit pairs against a journaled manager."""
    config = StdchkConfig(
        chunk_size=CHUNK,
        stripe_width=2,
        replication_level=1,
        journal_dir=journal_dir,
        journal_fsync_policy="never",
        snapshot_every_n_records=snapshot_every,
    )
    manager = MetadataManager(
        transport=InProcessTransport(), config=config, clock=VirtualClock()
    )
    for index in range(4):
        manager.register_benefactor(f"b{index}", f"benefactor://b{index}",
                                    free_space=1 << 40)
    chunk_map = {
        "placements": [
            {"chunk_id": "sha1:feed", "offset": 0, "length": CHUNK,
             "benefactors": ["b0"]},
        ]
    }
    for index in range(commits):
        session = manager.create_session(f"/app/ck.N0.T{index}", client_id="bench")
        manager.commit_session(session["session_id"], chunk_map, size=CHUNK)
    summary = manager.storage_summary()
    manager.close_persistence()
    return summary


def measure_recovery(commits, snapshot_every=10**9):
    """Build a journal of ``2 * commits`` records and time its recovery."""
    tmp = tempfile.mkdtemp(prefix="bench-recovery-")
    journal_dir = os.path.join(tmp, "journal")
    try:
        summary = build_journal(journal_dir, commits, snapshot_every)
        manager = MetadataManager(
            transport=InProcessTransport(),
            config=StdchkConfig(journal_dir=journal_dir,
                                snapshot_every_n_records=snapshot_every),
            clock=VirtualClock(),
        )
        report = manager.recover_from_journal()
        recovered = manager.storage_summary()
        manager.close_persistence()
        assert recovered["datasets"] == summary["datasets"]
        assert recovered["versions"] == summary["versions"]
        return report
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def test_write_path_overhead(benchmark):
    rows = []
    results = {}
    metrics = None
    measure_write_path(None)  # warm-up (thread pools, allocator) — discarded
    baseline, _, _ = measure_write_path(None)
    rows.append({"journal": "disabled", "OAB_MBps": baseline, "fsyncs": 0,
                 "overhead_pct": 0.0})
    for policy in ("never", "commit", "always"):
        oab, fsyncs, metrics = measure_write_path(policy)
        overhead = (baseline - oab) / baseline * 100.0
        rows.append({"journal": f"fsync={policy}", "OAB_MBps": oab,
                     "fsyncs": fsyncs, "overhead_pct": overhead})
        results[policy] = {"oab_mbps": oab, "fsyncs": fsyncs,
                           "overhead_pct": overhead}
    results["baseline_mbps"] = baseline
    print_table(
        f"Journal overhead on the write path ({FILES} x {FILE_SIZE // MiB} MiB "
        f"images, {PUT_DELAY * 1000:.0f} ms/put stores)",
        rows,
        note="acceptance gate: fsync=commit within 10% of the no-journal baseline",
    )
    write_bench_results(RESULTS_PATH, "write_path", results, metrics=metrics)
    commit_oab = results["commit"]["oab_mbps"]
    assert commit_oab >= 0.9 * baseline, (
        f"journaling overhead too high: {commit_oab:.1f} MB/s vs "
        f"baseline {baseline:.1f} MB/s"
    )


def test_recovery_time_scales_with_journal_length(benchmark):
    rows = []
    results = {}
    for commits in (250, 1000, 4000):
        report = measure_recovery(commits)
        records = report.records_replayed
        rate = records / report.duration if report.duration > 0 else float("inf")
        rows.append({
            "commits": commits,
            "records": records,
            "recovery_s": report.duration,
            "records_per_s": rate,
        })
        results[str(commits)] = {"records": records,
                                 "recovery_s": report.duration}
        assert report.datasets == commits
    # Snapshot compaction keeps replay short no matter the history length.
    snap_report = measure_recovery(4000, snapshot_every=512)
    rows.append({
        "commits": "4000+snap",
        "records": snap_report.records_replayed,
        "recovery_s": snap_report.duration,
        "records_per_s": "-",
    })
    results["4000_snapshotted"] = {
        "records": snap_report.records_replayed,
        "recovery_s": snap_report.duration,
        "snapshot_loaded": snap_report.snapshot_loaded,
    }
    print_table(
        "Recovery time vs. journal length (snapshot disabled unless noted)",
        rows,
        note="one create_session + commit pair per checkpoint; replay only",
    )
    write_bench_results(RESULTS_PATH, "recovery", results)
    assert snap_report.snapshot_loaded
    assert snap_report.records_replayed <= 512
