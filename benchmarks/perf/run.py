"""One run of one workload: set-up, measurement, checks, report.

Imports ``repro`` (through the harness), so ``__main__`` imports this module
only after pinning the process.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import statistics
import time
from pathlib import Path
from typing import Dict, Optional

from benchmarks.perf import layers, tracer
from benchmarks.perf.harness import (
    SETUP_REPEATS, Harness, Totals, calibrate, end_to_end, fresh_dir, self_check,
)
from benchmarks.perf.workloads import WORKLOADS

#: Share of a traced run spent untraced, as the reference for the overhead.
REFERENCE_SHARE = 0.25


def host_fingerprint() -> Dict[str, object]:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu_model": model, "nproc": os.cpu_count(), "kernel": platform.release()}


def _set_up(cls, seed: int, root: Path, repeats: int):
    """Build + warm up ``repeats`` times; keep the last, report the median time."""
    times = []
    for repeat in range(repeats):
        if repeat:
            harness.workload.close()
            shutil.rmtree(root, ignore_errors=True)
        start = time.perf_counter()
        workload = cls(seed, fresh_dir(root))
        harness = Harness(workload)
        for _ in range(workload.warmup_blocks):
            harness.run_block(None)
        times.append(time.perf_counter() - start)
    return harness, statistics.median(times)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 import_s: float, pinned_cpu: Optional[int],
                 work_root: Path) -> Dict[str, object]:
    """Run ``name`` and return the full report (metrics with quartiles, env).

    Chunk stores, journals and the trace file go under ``work_root``.
    """
    cls = WORKLOADS[name]
    root = work_root / f"run-{os.getpid()}"
    calib_before = calibrate(seed)

    recorder = tracer.Recorder()
    uninstall = recorder.install() if trace else (lambda: None)
    harness = None
    try:
        harness, setup_median = _set_up(cls, seed, root, 1 if trace else SETUP_REPEATS)
        reference: Optional[Totals] = None
        profile = layers.LayerProfile(recorder)
        if trace:
            reference = harness.measure(seconds * REFERENCE_SHARE)
            harness.profile = profile
            seconds *= 1.0 - REFERENCE_SHARE
        totals = harness.measure(seconds)

        calib = (calib_before + calibrate(seed)) / 2.0
        metrics = end_to_end(totals, import_s + setup_median)
        self_check(harness.workload, totals, metrics)
        report: Dict[str, object] = {
            "workload": name, "seed": seed, "trace": int(trace),
            "correct": True,
            "attempted": totals.total("attempted"),
            "failed": totals.total("failed"),
            "blocks": len(totals.blocks),
            "end_to_end": metrics,
            "env": {"pinned_cpu": pinned_cpu, "store_root": str(work_root),
                    "calib_mbps": calib, "host": host_fingerprint()},
        }
        if trace:
            report["per_layer"] = layers.per_layer(
                harness, totals, profile, reference, calib)
            report["layer_shares_pct"] = shares = profile.shares()
            trace_path = work_root / f"trace_{name}.json"
            with open(trace_path, "w", encoding="utf-8") as handle:
                json.dump({"workload": name, "seed": seed, "layer_shares_pct": shares,
                           "spans": tracer.spans_to_json(profile.last_spans)}, handle)
            report["trace_file"] = str(trace_path)
        return report
    finally:
        uninstall()
        if harness is not None:
            harness.workload.close()
        shutil.rmtree(root, ignore_errors=True)
