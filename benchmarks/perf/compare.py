"""Summaries of saved run sets, the A-vs-B comparison, and the trajectory line.

A *set* is what ``python -m benchmarks.perf --out FILE`` saves: the
end-to-end spec of BENCHMARK.json (bounds, directions) and one report per
run.  With several runs per workload the summary's quartiles are taken
across the runs' medians (what the acceptance rule looks at); with a single
run they are that run's own per-block quartiles.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

from benchmarks.perf.stats import quartiles


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def summarise(results: dict) -> Dict[str, Dict[str, dict]]:
    """``workload -> metric -> {median, q1, q3, n}`` (+ ``calib_mbps`` per workload)."""
    by_workload: Dict[str, List[dict]] = {}
    for report in results["reports"]:
        if not report["trace"]:
            by_workload.setdefault(report["workload"], []).append(report)
    summary: Dict[str, Dict[str, dict]] = {}
    for workload, reports in by_workload.items():
        rows: Dict[str, dict] = {}
        for metric in reports[0]["end_to_end"]:
            samples = [r["end_to_end"][metric] for r in reports]
            if len(samples) > 1:
                q1, median, q3 = quartiles([s["value"] for s in samples])
            else:
                median = samples[0]["value"]
                q1, q3 = samples[0].get("q1", median), samples[0].get("q3", median)
            rows[metric] = {"median": median, "q1": q1, "q3": q3, "n": len(samples),
                            "unit": samples[0]["unit"]}
        rows["calib_mbps"] = {"median": statistics.median(
            r["env"]["calib_mbps"] for r in reports)}
        summary[workload] = rows
    return summary


def print_summary(results: dict) -> None:
    for workload, rows in summarise(results).items():
        print(f"{workload}  (host calib {rows['calib_mbps']['median']:.0f} MB/s)")
        for metric, row in rows.items():
            if metric == "calib_mbps":
                continue
            spread = (row["q3"] - row["q1"]) / row["median"] if row["median"] else 0.0
            print(f"  {metric:<28} {row['median']:>12.4f} {row['unit']:<6} "
                  f"q1 {row['q1']:.4f}  q3 {row['q3']:.4f}  "
                  f"iqr/median {100 * spread:.2f}%  runs={row['n']}")


def compare(base: dict, change: dict) -> List[dict]:
    """One row per workload x end-to-end metric: difference against the bound."""
    spec = {entry["name"]: entry for entry in base["spec"]}
    left, right = summarise(base), summarise(change)
    rows = []
    for workload in left:
        if workload not in right:
            continue
        calib_a = left[workload]["calib_mbps"]["median"]
        calib_b = right[workload]["calib_mbps"]["median"]
        calib_gap = abs(calib_b - calib_a) / calib_a
        for metric, entry in spec.items():
            a, b = left[workload][metric], right[workload][metric]
            worse = (b["median"] - a["median"]) / a["median"]
            if entry["better"] == "higher":
                worse = -worse
            spread = max((side["q3"] - side["q1"]) / side["median"] for side in (a, b))
            if spread == 0 and worse == 0:
                verdict = "ok"  # an exact count that repeats: host speed cannot move it
            elif spread > entry["bound"] or calib_gap > entry["bound"]:
                verdict = "unresolved"
            elif worse > entry["bound"]:
                verdict = "REGRESSION"
            else:
                verdict = "ok"
            rows.append({"workload": workload, "metric": metric, "a": a, "b": b,
                         "worse_by": worse, "bound": entry["bound"], "spread": spread,
                         "calib_gap": calib_gap, "verdict": verdict})
    return rows


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print("usage: python -m benchmarks.perf compare A.json B.json", file=sys.stderr)
        return 2
    rows = compare(load(argv[0]), load(argv[1]))
    for row in rows:
        a, b = row["a"], row["b"]
        print(f"{row['workload']:<17} {row['metric']:<27} "
              f"A {a['median']:.4f} [{a['q1']:.4f}, {a['q3']:.4f}]  "
              f"B {b['median']:.4f} [{b['q1']:.4f}, {b['q3']:.4f}]  "
              f"worse by {100 * row['worse_by']:+.2f}% (bound {100 * row['bound']:.1f}%, "
              f"spread {100 * row['spread']:.2f}%, calib gap {100 * row['calib_gap']:.2f}%)  "
              f"{row['verdict']}")
    regressions = [row for row in rows if row["verdict"] == "REGRESSION"]
    unresolved = [row for row in rows if row["verdict"] == "unresolved"]
    print(f"{len(rows)} pairs: {len(regressions)} regressions, {len(unresolved)} unresolved")
    return 1 if regressions else 0


def record(results: dict, trajectory: Path, repo_root: Path) -> None:
    """Append one line (commit, host, medians + quartiles) to the trajectory."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=repo_root, check=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    env = results["reports"][0]["env"]
    summary = summarise(results)
    line = {
        "commit": commit, "host": env["host"], "pinned_cpu": env["pinned_cpu"],
        "store_root": env["store_root"],
        "workloads": {
            workload: {metric: {key: row[key] for key in ("median", "q1", "q3", "n")
                                if key in row}
                       for metric, row in rows.items()}
            for workload, rows in summary.items()
        },
    }
    with open(trajectory, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(line, sort_keys=True) + "\n")
