"""Smoke test of the perf benchmark (not in tier-1 ``testpaths``).

Run it by path: ``python -m pytest benchmarks/perf/test_perf_smoke.py -q``.
Every workload runs for a twentieth of ``run_seconds`` in its own process,
exactly as the driver would start it; one workload also runs traced.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
from pathlib import Path

import pytest

PERF_DIR = Path(__file__).resolve().parent
REPO_ROOT = PERF_DIR.parents[1]
SPEC = json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SECONDS = SPEC["run_seconds"] / 20


def run_benchmark(workload: str, trace: int, report: Path, cwd: Path = REPO_ROOT):
    command = SPEC["command"] + ["--workload", workload, "--seed", "7",
                                 "--seconds", str(SECONDS), "--trace", str(trace),
                                 "--report", str(report)]
    return subprocess.run(command, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=180)


def check_result(done, declared) -> dict:
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == {entry["name"] for entry in declared}
    for entry in declared:
        metric = result["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"], entry["name"]
        assert math.isfinite(metric["value"]), entry["name"]
    return result


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_end_to_end_metrics(workload, tmp_path):
    done = run_benchmark(workload, 0, tmp_path / "report.json")
    result = check_result(done, SPEC["end_to_end"])
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name
    report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    for name in ("write_oab_mbps", "restart_read_mbps", "ops_per_s", "cpu_s_per_gib"):
        metric = report["end_to_end"][name]
        assert metric["n"] >= 4 and metric["q1"] <= metric["value"] <= metric["q3"]


def test_traced_run_gives_the_layer_table(tmp_path):
    done = run_benchmark("durable_small", 1, tmp_path / "report.json")
    result = check_result(done, SPEC["per_layer"])
    report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))

    shares = report["layer_shares_pct"]
    assert abs(sum(shares.values()) - 100.0) <= 1.0
    assert shares["unattributed"] < 15.0
    # every layer this workload uses did some of the work
    for layer in ("client.proxy", "client.session", "client.read_path", "transport.tcp",
                  "benefactor.benefactor", "benefactor.chunk_store", "manager.manager",
                  "manager.persistence", "manager.replication.shipper"):
        assert result["metrics"][f"{layer}.wall_share_pct"]["value"] > 0, layer
    assert result["metrics"]["client.read_path.replica_fallbacks"]["value"] == 0
    assert result["metrics"]["manager.replication.shipper.quorum_degrades"]["value"] == 0

    trace = json.loads(Path(report["trace_file"]).read_text(encoding="utf-8"))
    ids = {span["id"] for span in trace["spans"]}
    assert ids
    for span in trace["spans"]:
        assert span["parent"] == 0 or span["parent"] in ids, span
        assert span["end"] >= span["start"]


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and ``paths`` there is nothing
    to measure: the command must fail instead of printing a result."""
    shutil.copy(REPO_ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(PERF_DIR, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_benchmark("stream_large", 0, tmp_path / "report.json", cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip().endswith("}")
